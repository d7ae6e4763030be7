"""Letters, freely reduced words, and cyclic words over a finite alphabet.

Text format: one ASCII character per generator, lowercase for the
generator and uppercase for its inverse, so "abA" reads a b a^-1.  The
empty word prints as "1".  Cyclic words model conjugacy classes; they
are stored cyclically reduced and rotated to a canonical representative.

All values are immutable and all operations are pure functions, so
everything in this module can be shared freely between threads.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
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

    def _is_charmap(self) -> bool:
        return _letter_table(self) is not None


@lru_cache(maxsize=64)
def _letter_table(alphabet: Alphabet) -> dict[str, Letter] | None:
    """The text format's character -> letter table: each generator's name
    and its uppercase inverse.  None when the alphabet cannot use the
    case-based format, which needs single lowercase ASCII names."""
    symbols = alphabet.symbols
    if not all(len(s) == 1 and s in string.ascii_lowercase for s in symbols):
        return None
    table = {s: Letter(gen, 1) for gen, s in enumerate(symbols)}
    table.update((s.upper(), Letter(gen, -1)) for gen, s in enumerate(symbols))
    return table


def _check_letters(letters: Iterable[Letter], rank: int) -> tuple[Letter, ...]:
    out = tuple(letters)
    for l in out:
        if not 0 <= l.gen < rank or l.sign not in (1, -1):
            raise ValueError("letter %r outside alphabet of rank %d" % (l, rank))
    return out


def _reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for l in letters:
        if stack and stack[-1].gen == l.gen and stack[-1].sign == -l.sign:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


@dataclass(frozen=True)
class Word(object):
    """A freely reduced word.  Construction rejects unreduced input;
    use free_reduce to build a Word from an arbitrary letter sequence."""

    alphabet: Alphabet
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _check_letters(self.letters, self.alphabet.rank))
        for a, b in zip(self.letters, self.letters[1:]):
            if a.gen == b.gen and a.sign == -b.sign:
                raise ValueError("word is not freely reduced at %r %r" % (a, b))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __str__(self) -> str:
        return format_letters(self.letters, self.alphabet)

    @property
    def is_trivial(self) -> bool:
        return not self.letters


@dataclass(frozen=True)
class CyclicWord(object):
    """A cyclically reduced conjugacy-class representative.

    The constructor rejects input that is not cyclically reduced and
    rotates the letters to the lexicographically least rotation, so
    structurally equal values represent equal conjugacy classes.
    """

    alphabet: Alphabet
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        letters = _check_letters(self.letters, self.alphabet.rank)
        for i in range(len(letters)):
            a, b = letters[i - 1], letters[i]
            if a.gen == b.gen and a.sign == -b.sign:
                raise ValueError("word is not cyclically reduced at %r %r" % (a, b))
        object.__setattr__(self, "letters", _least_rotation(letters))

    @classmethod
    def from_word(cls, w: Word) -> "CyclicWord":
        return cyclic_reduce(w)[0]

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters, self.alphabet)

    def as_word(self) -> Word:
        """The stored rotation as a linear word."""
        return Word(self.alphabet, self.letters)

    def rotations(self) -> Iterator[tuple[Letter, ...]]:
        n = len(self.letters)
        for r in range(max(n, 1)):
            yield self.letters[r:] + self.letters[:r]

    @property
    def is_trivial(self) -> bool:
        return not self.letters


def _least_rotation(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The lexicographically least rotation, found on the integer keys
    2 * gen + (1 for an inverse), which order letters as Letter.key does."""
    k = _least_rotation_start([2 * l.gen + (l.sign < 0) for l in letters])
    return letters[k:] + letters[:k]


def _least_rotation_start(keys: Sequence[int]) -> int:
    """Where the lexicographically least rotation of the integer
    sequence starts, by Booth's O(n) algorithm (Booth 1980)."""
    n = len(keys)
    if n <= 1:
        return 0
    s = list(keys) * 2
    failure = [-1] * (2 * n)
    k = 0  # start of the least rotation found so far
    for j in range(1, 2 * n):
        c = s[j]
        i = failure[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = failure[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            failure[j - k] = -1
        else:
            failure[j - k] = i + 1
    return k


def free_reduce(letters: Iterable[Letter], alphabet: Alphabet) -> Word:
    """Cancel adjacent inverse pairs until none remain.

    The result does not depend on cancellation order, so a single
    left-to-right stack pass suffices.
    """
    return Word(alphabet, _reduce_letters(_check_letters(letters, alphabet.rank)))


def concat(u: Word, v: Word) -> Word:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("cannot concatenate words over different alphabets")
    return Word(u.alphabet, _reduce_letters(u.letters + v.letters))


def invert(u: Word) -> Word:
    return Word(u.alphabet, tuple(l.inverse() for l in reversed(u.letters)))


def _conjugator_length(letters: tuple[Letter, ...]) -> int:
    """The length of the shortest x with letters = x c x^-1 and c
    cyclically reduced, for freely reduced letters."""
    i, j = 0, len(letters)
    while i < j - 1 and letters[i] == letters[j - 1].inverse():
        i += 1
        j -= 1
    return i


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split w as x * c * x^-1 with c cyclically reduced and x minimal.

    Returns (cyclic word of c, conjugator x).
    """
    letters = w.letters
    i = _conjugator_length(letters)
    return CyclicWord(w.alphabet, letters[i : len(letters) - i]), Word(w.alphabet, letters[:i])


def letter_support(w: "Word | CyclicWord") -> frozenset[int]:
    """The set of generator indices occurring in w (in either sign)."""
    return frozenset(l.gen for l in w.letters)


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
    return free_reduce(_parse_letters(text, alphabet), alphabet)


def parse_cyclic(text: str, alphabet: Alphabet) -> CyclicWord:
    """Parse, cyclically reduce, and canonicalize in one step."""
    return CyclicWord.from_word(parse_word(text, alphabet))


def _parse_letters(text: str, alphabet: Alphabet) -> list[Letter]:
    table = _letter_table(alphabet)
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
        out.append(Letter(alphabet.index(low), 1 if ch.islower() else -1))
    return out


def format_letters(letters: tuple[Letter, ...], alphabet: Alphabet) -> str:
    if not letters:
        return "1"
    if alphabet._is_charmap():
        return "".join(
            alphabet.symbols[l.gen] if l.sign > 0 else alphabet.symbols[l.gen].upper()
            for l in letters
        )
    # Fallback spelling for alphabets that cannot use the case format.
    return " ".join(
        alphabet.symbols[l.gen] if l.sign > 0 else alphabet.symbols[l.gen] + "^-1"
        for l in letters
    )
