"""Letters, freely reduced words, and cyclic words over a finite alphabet.

Text format: one ASCII character per generator, lowercase for the
generator and uppercase for its inverse, so "abA" reads a b a^-1.  The
empty word prints as "1".  Cyclic words model conjugacy classes; they
are stored cyclically reduced and rotated to a canonical representative.

Encoding: Word and CyclicWord store their letters as vertex codes
2 * gen + (1 for an inverse), so c ^ 1 is the inverse of c and the codes
order letters as Letter.key does.  Every module works on these codes:
the Whitehead graph and the Nielsen search, the arcs of Stallings
graphs and the least rotation, which one linear scan finds for
`_rotated`, the library's one rotation.  This module alone converts
codes to and from Letters, which the public API keeps: constructors
take Letters, `letters` gives them back, `_arc_letters` maps a code.

All values are immutable and all operations are pure functions, so
everything in this module can be shared freely between threads.
"""

from __future__ import annotations

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "CyclicWord",
    "Letter",
    "TrivialWordError",
    "Word",
    "WordFormatError",
    "cyclic_reduce",
    "format_letters",
    "free_reduce",
    "letter_support",
    "parse_cyclic",
    "parse_word",
    "signed_support",
]

import string
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence


class WordFormatError(ValueError):
    """Malformed word text, or a symbol outside the alphabet."""


class AlphabetMismatchError(ValueError):
    """Operands built over different alphabets."""


class TrivialWordError(ValueError):
    """A nontrivial word was required."""


class Letter(NamedTuple):
    """A generator index paired with a sign (+1 generator, -1 inverse)."""

    gen: int
    sign: int

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    @property
    def key(self) -> tuple[int, int]:
        """Sort key; generators come before their inverses."""
        return (self.gen, 0 if self.sign > 0 else 1)

    @property
    def code(self) -> int:
        """The vertex code 2 * gen + (1 for an inverse) that words store."""
        return 2 * self.gen + (self.sign < 0)


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names; the order fixes all tie-breaking below."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet needs at least one generator")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate generator names: %r" % (self.symbols,))

    @classmethod
    def of_rank(cls, n: int) -> "Alphabet":
        """The rank-n alphabet named a, b, c, ... (x0, x1, ... past 26).

        >>> Alphabet.of_rank(3).symbols
        ('a', 'b', 'c')
        """
        if n < 1:
            raise ValueError("rank must be at least 1")
        if n <= 26:
            return cls(tuple(string.ascii_lowercase[:n]))
        return cls(tuple("x%d" % i for i in range(n)))

    @property
    def rank(self) -> int:
        return len(self.symbols)

    def letter(self, gen: int, sign: int = 1) -> Letter:
        if not 0 <= gen < self.rank:
            raise ValueError("generator index %d out of range" % gen)
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return Letter(gen, sign)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise WordFormatError("unknown generator %r" % symbol) from None


@lru_cache(maxsize=None)
def _arc_letters(rank: int) -> tuple[Letter, ...]:
    """The Letter of each vertex code, indexed by the code."""
    return tuple(Letter(k >> 1, -1 if k & 1 else 1) for k in range(2 * rank))


def _encode(letters: Iterable[Letter], rank: int) -> tuple[int, ...]:
    """The vertex codes of Letters, each checked against the rank."""
    out = []
    for l in letters:
        if not 0 <= l.gen < rank or l.sign not in (1, -1):
            raise ValueError("letter %r outside alphabet of rank %d" % (l, rank))
        out.append(l.code)
    return tuple(out)


def _check(codes: tuple[int, ...], rank: int, cyclic: bool) -> None:
    """Raise ValueError unless every code is a letter of the rank and no
    two adjacent letters cancel, counting the last and the first as
    adjacent when `cyclic`.  One pass does both."""
    n = 2 * rank
    prev = codes[-1] if cyclic and codes else -1
    for c in codes:
        if not 0 <= c < n:
            raise ValueError("letter code %r outside alphabet of rank %d" % (c, rank))
        if c == prev ^ 1:
            letters = _arc_letters(rank)
            raise ValueError(
                "word is not %s reduced at %r %r"
                % ("cyclically" if cyclic else "freely", letters[prev], letters[c])
            )
        prev = c


@dataclass(frozen=True, init=False)
class _CodedWord(object):
    """What Word and CyclicWord share: the alphabet and the vertex codes."""

    alphabet: Alphabet
    codes: tuple[int, ...]

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()) -> None:
        self._set(alphabet, _encode(letters, alphabet.rank))

    @classmethod
    def _of(cls, alphabet: Alphabet, codes: Sequence[int], **options):
        """Build from vertex codes, checked as the constructor checks
        Letters; `options` go to the subclass's `_set`."""
        word = object.__new__(cls)
        word._set(alphabet, tuple(codes), **options)
        return word

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return _format(self.codes, self.alphabet)

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        """The letters as Letter objects, built on first use."""
        letters = _arc_letters(self.alphabet.rank)
        return tuple([letters[c] for c in self.codes])

    @property
    def is_trivial(self) -> bool:
        return not self.codes


@dataclass(frozen=True, init=False)
class Word(_CodedWord):
    """A freely reduced word.  Construction rejects unreduced input;
    use free_reduce to build a Word from an arbitrary letter sequence."""

    def _set(self, alphabet: Alphabet, codes: tuple[int, ...]) -> None:
        _check(codes, alphabet.rank, cyclic=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", codes)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)


@dataclass(frozen=True, init=False)
class CyclicWord(_CodedWord):
    """A cyclically reduced conjugacy-class representative.

    The constructor rejects input that is not cyclically reduced and
    rotates the letters to the lexicographically least rotation, so
    structurally equal values represent equal conjugacy classes.
    """

    def _set(self, alphabet: Alphabet, codes: tuple[int, ...], rotate: bool = True) -> None:
        # rotate=False: the codes are already in their least rotation.
        _check(codes, alphabet.rank, cyclic=True)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", _rotated(codes) if rotate else codes)

    @classmethod
    def from_word(cls, w: Word) -> "CyclicWord":
        return cyclic_reduce(w)[0]

    def as_word(self) -> Word:
        """The stored rotation as a linear word."""
        return Word._of(self.alphabet, self.codes)

    def rotations(self) -> Iterator[tuple[Letter, ...]]:
        letters = self.letters
        for r in range(max(len(letters), 1)):
            yield letters[r:] + letters[:r]


def _least_rotation_start(keys: Sequence[int]) -> int:
    """Where the lexicographically least rotation of the integer
    sequence first starts, by an O(n) two-pointer scan of the doubled
    sequence, which keeps no table.  At the first difference of starts
    i < j, k letters in, the loser's starts up to k letters on lose too."""
    n, s = len(keys), list(keys) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        if s[i + k] == s[j + k]:
            k += 1
        elif s[i + k] > s[j + k]:
            i = max(i + k + 1, j)
            j, k = i + 1, 0
        else:
            j, k = j + k + 1, 0
    return i


def _rotated(codes: tuple[int, ...]) -> tuple[int, ...]:
    """A code word cut where the scan says its least rotation starts:
    the library's one rotation, for `CyclicWord` and the Whitehead orbit."""
    k = _least_rotation_start(codes)
    return codes[k:] + codes[:k]


def _reduce(codes: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for c in codes:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


def _join(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """The free reduction of u v for reduced code tuples u and v: letters
    cancel only at the junction, so count the cancelling pairs there and
    slice."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == v[k] ^ 1:
        k += 1
    return u[: len(u) - k] + v[k:]


def _inverse(codes: Sequence[int]) -> tuple[int, ...]:
    return tuple([c ^ 1 for c in reversed(codes)])


def free_reduce(letters: Iterable[Letter], alphabet: Alphabet) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    The result does not depend on cancellation order, so a single
    left-to-right stack pass suffices.
    """
    return Word._of(alphabet, _reduce(_encode(letters, alphabet.rank)))


def concat(u: Word, v: Word) -> Word:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("cannot concatenate words over different alphabets")
    return Word._of(u.alphabet, _join(u.codes, v.codes))


def invert(u: Word) -> Word:
    return Word._of(u.alphabet, _inverse(u.codes))


def _conjugator_length(codes: Sequence[int]) -> int:
    """The length of the shortest x with codes = x c x^-1 and c
    cyclically reduced, for freely reduced codes."""
    i, j = 0, len(codes)
    while i < j - 1 and codes[i] == codes[j - 1] ^ 1:
        i += 1
        j -= 1
    return i


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split w as x * c * x^-1 with c cyclically reduced and x minimal.

    Returns (cyclic word of c, conjugator x).
    """
    codes = w.codes
    i = _conjugator_length(codes)
    return CyclicWord._of(w.alphabet, codes[i : len(codes) - i]), Word._of(w.alphabet, codes[:i])


def letter_support(w: "Word | CyclicWord") -> frozenset[int]:
    """The set of generator indices occurring in w (in either sign)."""
    return frozenset([c >> 1 for c in w.codes])


def signed_support(w: "Word | CyclicWord") -> frozenset[Letter]:
    """The set of letters occurring in w, signs distinguished."""
    return frozenset(w.letters)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the case-based text format into a reduced word.

    >>> a2 = Alphabet.of_rank(2)
    >>> str(parse_word("aA", a2))
    '1'
    >>> str(parse_word("abB", a2))
    'a'
    """
    return Word._of(alphabet, _reduce(_parse_codes(text, alphabet)))


def parse_cyclic(text: str, alphabet: Alphabet) -> CyclicWord:
    """Parse, cyclically reduce, and canonicalize in one step."""
    return CyclicWord.from_word(parse_word(text, alphabet))


@lru_cache(maxsize=64)
def _spelling(alphabet: Alphabet) -> tuple[tuple[str, ...], dict[str, int] | None]:
    """The text of each code, and the text format's character -> code
    table.  The case format spells a generator by its name and the
    inverse in uppercase; it needs single lowercase ASCII names, and
    other alphabets spell "x" and "x^-1" and have no table."""
    symbols = alphabet.symbols
    if all(len(s) == 1 and s in string.ascii_lowercase for s in symbols):
        texts = tuple(t for s in symbols for t in (s, s.upper()))
        return texts, {t: c for c, t in enumerate(texts)}
    return tuple(t for s in symbols for t in (s, s + "^-1")), None


def _parse_codes(text: str, alphabet: Alphabet) -> list[int]:
    table = _spelling(alphabet)[1]
    if table is None:
        raise WordFormatError("text format needs single-letter generator names")
    if text == "1":
        return []
    try:
        return [table[ch] for ch in text]
    except KeyError:
        pass
    # Read each character by its case: the KELVIN SIGN is an inverse k.
    out = []
    for ch in text:
        low = ch.lower()
        if not ch.isalpha() or low not in alphabet.symbols:
            raise WordFormatError("unexpected character %r in %r" % (ch, text))
        out.append(2 * alphabet.index(low) + (0 if ch.islower() else 1))
    return out


def _format(codes: Sequence[int], alphabet: Alphabet) -> str:
    if not codes:
        return "1"
    texts, table = _spelling(alphabet)
    return ("" if table is not None else " ").join([texts[c] for c in codes])


def format_letters(letters: tuple[Letter, ...], alphabet: Alphabet) -> str:
    return _format(_encode(letters, alphabet.rank), alphabet)
