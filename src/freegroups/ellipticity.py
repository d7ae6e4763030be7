"""Distance-two decisions in the ellipticity graph of a free group.

The ellipticity graph is bipartite: one side holds (equivalence classes
of) two-factor free splittings F = A * B, the other nontrivial cyclic
words, with an edge when the word is elliptic -- conjugate into a factor.
Two splittings are at distance two exactly when some nontrivial element
is elliptic to both, which reduces to a cycle search in products of type
graphs.  Two words are at distance two exactly when a Whitehead-minimal
representative of the pair is good (frugal or disjoint), in which case
the separating splitting pulls back through the descent, as the letters'
images under the inverted descent.

Also here: a primitive element in the intersection of two free factors
(the intersection of free factors is again a free factor, so any basis
element of it is primitive), and the Nielsen upper bound 2m on the
splitting distance, where m counts elementary moves relating the bases.
Both rebase by the automorphism φ sending the standard letters to a
splitting's combined basis, kept as the letters' images under φ and
φ⁻¹, so a rebased word is one substitution; φ⁻¹'s images replay the
moves of the basis's Nielsen reduction backward, which the basis fixes
whatever the moves, and `whitehead` builds and applies every image
tuple.  Every answer is re-checked by an explicit
raise of CertificateError, which `python -O` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .stallings import (
    CertificateError,
    Subgroup,
    XDigraph,
    _find_cycle,
    _generates,
    build_subgroup,
    contains,
    contains_conjugate,
    intersect,
    product,
    spanning_tree_basis,
    type_graph,
)
from .whitehead import (
    PairClass,
    _decompose_basis,
    _free_image,
    _images,
    _Images,
    _multiplier_images,
    _reduction_moves,
    _replay,
    _word_image,
    classify_pair,
    minimize_tuple,
    standard_basis,
)
from .words import (
    Alphabet,
    AlphabetMismatchError,
    CyclicWord,
    TrivialWordError,
    Word,
    letter_support,
)


class SplittingError(ValueError):
    """The given data does not describe a two-factor free splitting."""


class DoesNotGenerateError(SplittingError):
    """The combined basis words do not generate the whole group."""


class RankMismatchError(SplittingError):
    """Factor basis sizes are incompatible with the alphabet rank."""


class TrivialIntersectionError(ValueError):
    """The chosen factors intersect trivially."""


@dataclass(frozen=True)
class FreeSplitting(object):
    """F = A * B presented by a basis of each factor.

    Construction certifies the splitting, so holding a FreeSplitting is
    proof that it is one, as holding a Subgroup is; dataclasses.replace
    constructs, and so checks, again, and a copy or a pickle round trip
    restores a certified splitting's fields.  The bases are stored as
    tuples.  Their sizes must add up to the rank n, and the combined
    words must generate F: they fold to the rose on the alphabet.
    That suffices.  F_n is Hopfian, so n words that generate it form a basis,
    and any subset of a basis freely generates the subgroup it spans.
    So A and B have ranks len(basis_a) and len(basis_b), and F = A * B.
    The test reads the folded tables and builds no graph.  Each
    factor's subgroup and type graph are built on first use and kept
    in caches that are not fields, so they take no part in equality,
    hashing, the repr, asdict or astuple.
    """

    alphabet: Alphabet
    basis_a: tuple[Word, ...]
    basis_b: tuple[Word, ...]

    def __post_init__(self) -> None:
        a, b, alphabet = tuple(self.basis_a), tuple(self.basis_b), self.alphabet
        object.__setattr__(self, "basis_a", a)
        object.__setattr__(self, "basis_b", b)
        object.__setattr__(self, "_factors", {})
        object.__setattr__(self, "_type_graphs", {})
        if not a or not b:
            raise SplittingError("both factors must be proper: empty basis list")
        for w in a + b:
            if w.alphabet != alphabet:
                raise AlphabetMismatchError("basis word over a different alphabet")
            if w.is_trivial:
                raise SplittingError("basis words must be nontrivial")
        if len(a) + len(b) != alphabet.rank:
            raise RankMismatchError(
                "basis sizes %d + %d do not sum to the rank %d"
                % (len(a), len(b), alphabet.rank)
            )
        if not _generates([w.codes for w in a + b], alphabet.rank):
            raise DoesNotGenerateError("combined basis words do not generate F")

    @property
    def combined(self) -> tuple[Word, ...]:
        return self.basis_a + self.basis_b

    def basis(self, which: "int | str") -> tuple[Word, ...]:
        return self.basis_b if factor_index(which) else self.basis_a

    def factor(self, which: "int | str") -> Subgroup:
        i = factor_index(which)
        if i not in self._factors:
            self._factors[i] = build_subgroup(list(self.basis(i)), self.alphabet)
        return self._factors[i]

    def _type_graph(self, which: "int | str") -> XDigraph:
        i = factor_index(which)
        if i not in self._type_graphs:
            self._type_graphs[i] = type_graph(self.factor(i))
        return self._type_graphs[i]

    def __str__(self) -> str:
        return "split %s | %s" % (
            " ".join(str(w) for w in self.basis_a),
            " ".join(str(w) for w in self.basis_b),
        )


@dataclass(frozen=True)
class EllipticityAnswer(object):
    """A decision plus, on yes, the witnessing object: a common elliptic
    cyclic word (for a pair of splittings) or a common splitting (for a
    pair of words)."""

    decision: bool
    witness: "CyclicWord | FreeSplitting | None" = None

    def __bool__(self) -> bool:
        return self.decision

    def __str__(self) -> str:
        if not self.decision:
            return "no"
        return "yes witness=%s" % (self.witness,)


def factor_index(tag: "int | str") -> int:
    """Normalize a factor selector: A/a/0 is the first factor, B/b/1 the
    second."""
    if tag in (0, 1):
        return int(tag)
    if isinstance(tag, str) and tag.upper() in ("A", "B"):
        return 0 if tag.upper() == "A" else 1
    raise ValueError("factor selector must be A or B, got %r" % (tag,))


def verify_splitting(
    basis_a: Sequence[Word], basis_b: Sequence[Word], alphabet: Alphabet
) -> FreeSplitting:
    """Certify that the two word lists present a free splitting F = A * B:
    the FreeSplitting constructor runs the checks."""
    return FreeSplitting(alphabet, basis_a, basis_b)


def _require_same_alphabet(s1: FreeSplitting, s2: FreeSplitting) -> None:
    if s1.alphabet != s2.alphabet:
        raise AlphabetMismatchError("splittings over different alphabets")


# The fixed order of factor pairings; the first cyclic witness found wins.
_PAIR_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def splittings_distance_two(
    s1: FreeSplitting, s2: FreeSplitting
) -> EllipticityAnswer:
    """Is some nontrivial element elliptic to both splittings?

    An element lies in conjugates of factors H and K exactly when the
    product of their type graphs has a cycle; going once around the
    first cycle found yields the witness, which must be conjugate into
    both factors whose type graphs gave it.  A "no" is certified by
    `_is_forest`, which shares no code with the cycle search.
    """
    _require_same_alphabet(s1, s2)
    for i, j in _PAIR_ORDER:
        prod = product(s1._type_graph(i), s2._type_graph(j))
        found = _find_cycle(prod)
        if found is not None:
            witness = CyclicWord._of(s1.alphabet, found[0])
            w = witness.as_word()
            if not (contains_conjugate(s1.factor(i), w) and contains_conjugate(s2.factor(j), w)):
                raise CertificateError("the witness is not elliptic in the factors that gave it")
            return EllipticityAnswer(True, witness)
        if not _is_forest(prod):
            raise CertificateError("the cycle search missed a cycle in a product of type graphs")
    return EllipticityAnswer(False)


def _is_forest(g: XDigraph) -> bool:
    """Is the symmetrized graph a forest?  A union-find over the edges:
    a loop, or an edge whose ends are already in one component, closes
    a cycle."""
    parent = list(range(g.vertex_count))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for o, t, _ in g.edges:
        o, t = find(o), find(t)
        if o == t:
            return False
        parent[t] = o
    return True


def word_elliptic(w: "Word | CyclicWord", s: FreeSplitting) -> bool:
    """Is some conjugate of w inside a factor of the splitting?"""
    linear = w.as_word() if isinstance(w, CyclicWord) else w
    if linear.alphabet != s.alphabet:
        raise AlphabetMismatchError("word over a different alphabet")
    if linear.is_trivial:
        raise TrivialWordError("ellipticity is defined for nontrivial words")
    return any(contains_conjugate(s.factor(i), linear) for i in (0, 1))


def words_distance_two(v: CyclicWord, w: CyclicWord) -> EllipticityAnswer:
    """Are the two cyclic words both elliptic to one proper free splitting?

    Minimize the pair under the diagonal Whitehead action; the answer is
    yes exactly when the minimal pair is good.  A good minimal pair is
    separated by a coordinate splitting -- on the support of the first
    word when the supports are disjoint, on the union of the supports
    when a generator is missed -- and the letters' images under the
    inverted descent pull it back to a splitting of the input pair.
    Flipping a step's multiplier sign undoes every action kind.
    """
    if v.alphabet != w.alphabet:
        raise AlphabetMismatchError("pair over different alphabets")
    if v.is_trivial or w.is_trivial:
        raise TrivialWordError("distance is defined for nontrivial words")
    alphabet = v.alphabet
    (mv, mw), descent = minimize_tuple((v, w))
    cls = classify_pair(mv, mw)
    if not cls.is_good:
        return EllipticityAnswer(False)
    if cls in (PairClass.DISJOINT, PairClass.BOTH):
        x1 = set(letter_support(mv))  # the first support alone splits
    else:  # frugal only: both supports fit in one proper factor
        x1 = set(letter_support(mv) | letter_support(mw))
    images = [[2 * g] for g in range(alphabet.rank)]
    for t in reversed(descent):
        back = _multiplier_images(t.mult.code ^ 1, t.actions)
        images = [_free_image(back, u) for u in images]
    a = [Word._of(alphabet, images[g]) for g in sorted(x1)]
    b = [Word._of(alphabet, images[g]) for g in range(alphabet.rank) if g not in x1]
    s = verify_splitting(a, b, alphabet)
    if not (word_elliptic(v, s) and word_elliptic(w, s)):
        raise CertificateError("the pulled-back splitting misses an input word")
    return EllipticityAnswer(True, s)


@lru_cache(maxsize=256)
def _rebase_moves(alphabet: Alphabet, combined: tuple[Word, ...]) -> tuple[_Images, _Images]:
    """`whitehead._images` of the letters under the rebase φ, which sends
    them to a certified splitting's combined basis, and under φ⁻¹, the
    letters `whitehead._replay`ed backward through the moves of the
    basis's Nielsen reduction, `whitehead._reduction_moves`.  The basis
    fixes φ⁻¹, so any move list gives the same images, and the reduction
    needs no search.  φ⁻¹ must send the basis back to the letters, which
    proves it φ's inverse: the moves are never replayed forward."""
    codes = tuple([w.codes for w in combined])
    back = _images(_replay(_reduction_moves(codes), alphabet.rank, forward=False))
    if any(_free_image(back, w) != [2 * g] for g, w in enumerate(codes)):
        raise CertificateError("the inverse rebase does not send the basis to the letters")
    return _images(codes), back


def primitive_in_intersection(
    s1: FreeSplitting,
    factor1: "int | str",
    s2: FreeSplitting,
    factor2: "int | str",
) -> Word:
    """A primitive element of F inside H ∩ K, for the chosen factors H of
    s1 and K of s2.

    Rebase by φ⁻¹, φ as in `_rebase_moves`, so that H becomes a
    coordinate sub-rose; then H ∩ K is computed by the graph product,
    and any basis element of it is primitive because an intersection of
    free factors is a free factor.  It must lie in both rebased factors
    before φ maps it back.
    """
    _require_same_alphabet(s1, s2)
    alphabet = s1.alphabet
    i1, i2 = factor_index(factor1), factor_index(factor2)
    forward, back = _rebase_moves(alphabet, s1.combined)
    k = len(s1.basis_a)
    std = standard_basis(alphabet)
    sub_rose = build_subgroup(list(std[:k] if i1 == 0 else std[k:]), alphabet)
    rebased_k = build_subgroup([_word_image(back, u) for u in s2.basis(i2)], alphabet)
    inter = intersect(sub_rose, rebased_k)
    if inter.is_trivial:
        raise TrivialIntersectionError("the chosen factors intersect trivially")
    x = spanning_tree_basis(inter)[0]
    if not (contains(sub_rose, x) and contains(rebased_k, x)):
        raise CertificateError("the intersection's basis element misses a rebased factor")
    return _word_image(forward, x)


def nielsen_bound(s1: FreeSplitting, s2: FreeSplitting) -> int:
    """An upper bound on the distance between the two splittings in the
    ellipticity graph: twice the number of elementary Nielsen moves
    relating s2's combined basis to s1's, plus 2 when the cuts differ:
    the last splitting on that path then shares s2's whole basis.

    Zero exactly when the bases and the cuts agree.  φ⁻¹ of
    `_rebase_moves` carries s2's combined basis over s1; both certificates
    make the result a basis, so it is decomposed without a second fold.
    """
    _require_same_alphabet(s1, s2)
    _, back = _rebase_moves(s1.alphabet, s1.combined)
    over_s1 = tuple([tuple(_free_image(back, u.codes)) for u in s2.combined])
    recut = len(s1.basis_a) != len(s2.basis_a)
    return 2 * (len(_decompose_basis(over_s1, s1.alphabet.rank)) + recut)
