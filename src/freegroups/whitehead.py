"""Whitehead automorphisms, length minimization, and Nielsen moves.

Two kinds of Whitehead automorphism act on cyclic words: relabelings
(signed permutations of the generators) and multiplier automorphisms,
which fix a multiplier letter m and send every other generator x to one
of x, xm, m^-1 x, or m^-1 x m.  Relabelings never change length, and if
a tuple of cyclic words is not of minimal total length in its
automorphism orbit then some multiplier automorphism strictly shortens
it, so any strictly shortening descent over the multiplier family
reaches the minimum.  Two minimal tuples lie in the same orbit exactly
when they are connected by length-preserving Whitehead automorphisms,
which is what the orbit closure computes.

Candidates are scored without rewriting any word.  The Whitehead graph
of a tuple has one vertex per letter and, for each cyclically adjacent
pair u v of an entry, one edge u - v^-1.  A multiplier automorphism
with multiplier m has the side A = {m} + {x : x acts right or conj} +
{x^-1 : x acts left or conj}, and it changes the total length by
cap(A) - deg(m), the number of edges leaving A minus the degree of m
(Whitehead 1936; Roig-Ventura-Weil 2007).  A max flow between x and
x^-1 bounds the change of every multiplier x or x^-1 at once, so most
blocks of candidates are never scored.  `minimize_tuple` scores the rest
in enumeration order and applies only the first that shortens, a
(multiplier vertex, action code); its words are rotated once, at the
end.  `is_primitive` reads only the minimal length, so it descends by
minimum cuts instead: each step is the side of the first flow that stays
below deg(x), and no table is built.  `wmin`, `dist2-word` and
`same_orbit` keep the scan, since the steps and witnesses they print,
their minimal tuples and the orbit's budget depend on its path.  The
orbit closure applies only the multipliers that score zero, then every
relabeling to what they reach.  Each applied multiplier is checked
against its predicted length.

The scan, the orbit, the application of an automorphism and the
Nielsen search read the vertex codes 2 * gen + (1 for an inverse) that
words store (see `freegroups.words`), so c ^ 1 inverts a letter and no
step converts a word to Letter objects.  Every automorphism, here and
in the rebase of `freegroups.ellipticity`, acts as an image tuple (one
word per code) that `_images` builds.  Each kind has one builder:
`_relabelings` walks the relabelings once per rank, as flat code maps
that the orbit maps letters through and `enumerate_relabelings` turns
into WhiteheadAuts, and `_multiplier` makes every multiplier
WhiteheadAut from a (multiplier vertex, action code).  Their count is
exponential in the rank, so each cached table checks it against
WHITEHEAD_BUDGET before it is built: `_relabelings` itself, and
`enumerate_whitehead` and the cut table `_multiplier_cuts` through
`_check_multipliers`, which `is_primitive` calls too.  The orbit closure
also checks the budget before each relabeling class it adds.  Ranks
below 1 are refused.

Nielsen transformations are the elementary moves on ordered bases:
invert one entry, or right-multiply one entry by another.  A basis
tuple is decomposed into the shortest such move sequence when a search
finds it within its budget, which stops it mid-layer if need be, and by
Nielsen reduction otherwise.  A move list is replayed by the search's
own step, forward, or undone in reverse order to give the inverse
automorphism.  All three hold a basis as a tuple of `bytes` words of
vertex codes, converted once at entry: a word inverts in C (reversed,
then translated by c -> c ^ 1), and a product is a plain concatenation
unless its junction cancels.  bytes holds the codes of ranks up to 128;
above that the words are tuples, under the same loops.  The search's
forward half, the breadth-first ball around the standard basis, depends
on the rank alone, so every search starts from all layers of one shared
ball per rank.  It deepens by a layer only once the searches' backward
halves, private balls around their targets, have paid for it.
"""

from __future__ import annotations

__all__ = [
    "NielsenBudgetError",
    "NielsenTransformation",
    "NotABasisError",
    "PairClass",
    "WhiteheadAut",
    "WhiteheadBudgetError",
    "apply_nielsen",
    "apply_whitehead",
    "classify_pair",
    "enumerate_relabelings",
    "enumerate_whitehead",
    "equal_length_orbit",
    "is_primitive",
    "minimize_tuple",
    "nielsen_decompose",
    "same_orbit",
    "standard_basis",
    "total_length",
]

import itertools
import math
import threading
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .stallings import CertificateError, _generates
from .words import (
    Alphabet,
    AlphabetMismatchError,
    CyclicWord,
    Letter,
    TrivialWordError,
    Word,
    _arc_letters,
    _conjugator_length,
    _encode,
    _inverse,
    _join,
    _rotated,
    _spelling,
    letter_support,
)

# The most automorphisms of one kind (multipliers or relabelings) that a
# call may enumerate.  Rank 6 has 12,276 multipliers and 46,080
# relabelings; rank 7 has 57,330 and 645,120.
WHITEHEAD_BUDGET = 50_000

# The most tuples one breadth-first Nielsen search may make past the
# shared ball, and the bound on each plateau of equal total length in
# the reduction that backs it up.
NIELSEN_BUDGET = 300_000

# The most states a rank's shared Nielsen ball keeps: ranks 2, 3 and 4
# stop at 1,736, 3,689 and 2,491 (depths 6, 4 and 3).
BALL_STATES = 5_000


class NotABasisError(ValueError):
    """The given tuple does not freely generate the whole group."""


class WhiteheadBudgetError(ValueError):
    """The rank has more Whitehead automorphisms than WHITEHEAD_BUDGET, or
    an orbit closure would compute more relabeling images."""


class NielsenBudgetError(ValueError):
    """A Nielsen reduction met over NIELSEN_BUDGET tuples of one length."""


def _check_budget(count: int, kind: str, rank: int) -> None:
    if count > WHITEHEAD_BUDGET:
        raise WhiteheadBudgetError(
            "rank %d has %d %s, over the budget of %d"
            % (rank, count, kind, WHITEHEAD_BUDGET)
        )


def _check_positive(rank: int) -> None:
    if rank < 1:
        raise ValueError("rank %d is below 1" % rank)


def _check_multipliers(rank: int) -> None:
    _check_positive(rank)
    _check_budget(2 * rank * (4 ** (rank - 1) - 1), "multiplier automorphisms", rank)


class Action(IntEnum):
    """How a multiplier automorphism treats one generator.  Bit 0 puts
    the generator on the side A, bit 1 its inverse."""

    KEEP = 0
    RIGHT = 1
    LEFT = 2
    CONJ = 3


# The image of each vertex code, indexed by that code.
_Images = tuple[tuple[int, ...], ...]


# Hot paths build tuples from lists, not generators: tuple() sizes a
# generator's result at 10 and resizes it, so freeing it feeds the
# interpreter's free list for its final length while nothing drains
# that list, and those lists keep up to 2,000 dead tuples per length.


def _actions(rank: int, gen: int, code: int) -> list[int]:
    """The action table whose base-4 digits, least significant first,
    are the actions on the generators other than gen."""
    actions = [int(Action.KEEP)] * rank
    for g in range(rank):
        if g != gen:
            actions[g] = code & 3
            code >>= 2
    return actions


def _images(words: Iterable[Sequence[int]]) -> _Images:
    """The code images of the endomorphism sending generator g to words[g]:
    every image tuple is built here.  A one-letter image inverts inline."""
    images = []
    for w in words:
        w = tuple(w)
        images += (w, (w[0] ^ 1,) if len(w) == 1 else _inverse(w))
    return tuple(images)


def _multiplier_images(m: int, actions: Sequence[int]) -> _Images:
    """The code images of the multiplier automorphism with multiplier
    vertex m and these actions."""
    n = m ^ 1
    return _images(
        [((2 * g,), (2 * g, m), (n, 2 * g), (n, 2 * g, m))[act] for g, act in enumerate(actions)]
    )


def _free_image(images: _Images, word: Iterable[int]) -> list[int]:
    """The free reduction of the image of a code word.  Every image is
    reduced, so letters cancel only at the junctions."""
    out: list[int] = []
    for c in word:
        image = images[c]
        k = 0
        while out and k < len(image) and out[-1] == image[k] ^ 1:
            out.pop()
            k += 1
        out.extend(image[k:])
    return out


def _word_image(images: _Images, w: Word) -> Word:
    return Word._of(w.alphabet, _free_image(images, w.codes))


def _cyclic_image(images: _Images, word: Iterable[int]) -> tuple[int, ...]:
    """The cyclically reduced image of a code word, unrotated: the
    descent rotates its words once, at its end, and the orbit and
    `WhiteheadAut.apply_to_cyclic` rotate their own images."""
    out = _free_image(images, word)
    i = _conjugator_length(out)
    return tuple(out[i : len(out) - i])


@dataclass(frozen=True)
class WhiteheadAut(object):
    """Either a relabeling (signed generator permutation) or a multiplier
    automorphism, determined by which of `images` / `mult` is set.  The
    constructor checks every field, however the value is built."""

    rank: int
    mult: Letter | None = None
    actions: tuple[int, ...] | None = None
    images: tuple[Letter, ...] | None = None

    def __post_init__(self) -> None:
        rank, mult, actions, images = self.rank, self.mult, self.actions, self.images
        if images is not None and mult is None and actions is None:
            images = tuple(images)
            _check_positive(rank)
            _encode(images, rank)
            if sorted([l.gen for l in images]) != list(range(rank)):
                raise ValueError("images must hit every generator exactly once")
            object.__setattr__(self, "images", images)
        elif images is None and mult is not None and actions is not None:
            _encode((mult,), rank)
            if len(actions) != rank:
                raise ValueError("need one action per generator")
            # int() reads an Action as its value, and only checked entries.
            kinds = tuple([int(a) for a in actions if isinstance(a, int) and 0 <= a <= 3])
            if len(kinds) != rank:
                raise ValueError("unknown action in %r" % (actions,))
            if kinds[mult.gen] != Action.KEEP:
                raise ValueError("the multiplier's own generator must be kept")
            object.__setattr__(self, "actions", kinds)
        else:
            raise ValueError("a Whitehead automorphism has images alone, or mult with actions")

    @classmethod
    def relabeling(cls, images: Sequence[Letter]) -> "WhiteheadAut":
        return cls(len(images), images=images)

    @classmethod
    def multiplier(cls, rank: int, mult: Letter, actions: Sequence[int]) -> "WhiteheadAut":
        return cls(rank, mult, tuple(actions))

    def inverse(self) -> "WhiteheadAut":
        if self.images is not None:
            inv = [Letter(0, 1)] * self.rank
            for g, image in enumerate(self.images):
                inv[image.gen] = Letter(g, image.sign)
            return WhiteheadAut(self.rank, images=tuple(inv))
        # Flipping the multiplier's sign undoes every action kind.
        return WhiteheadAut(self.rank, self.mult.inverse(), self.actions)

    @cached_property
    def _code_images(self) -> _Images:
        if self.images is not None:
            return _images([(l.code,) for l in self.images])
        return _multiplier_images(self.mult.code, self.actions)

    def apply_to_word(self, w: Word) -> Word:
        self._check_rank(w.alphabet)
        return _word_image(self._code_images, w)

    def apply_to_cyclic(self, w: CyclicWord) -> CyclicWord:
        self._check_rank(w.alphabet)
        return CyclicWord._of(w.alphabet, _cyclic_image(self._code_images, w.codes))

    def _check_rank(self, alphabet: Alphabet) -> None:
        if alphabet.rank != self.rank:
            raise AlphabetMismatchError(
                "automorphism of rank %d applied over rank %d"
                % (self.rank, alphabet.rank)
            )

    def describe(self, alphabet: Alphabet) -> str:
        """External text form: 'perm a->b ...' or 'mult a b:right ...'."""
        self._check_rank(alphabet)
        texts = _spelling(alphabet)[0]
        if self.images is not None:
            parts = [
                "%s->%s" % (alphabet.symbols[g], texts[img.code])
                for g, img in enumerate(self.images)
            ]
            return "perm " + " ".join(parts)
        parts = [
            "%s:%s" % (alphabet.symbols[g], Action(a).name.lower())
            for g, a in enumerate(self.actions)
            if g != self.mult.gen
        ]
        return "mult %s %s" % (texts[self.mult.code], " ".join(parts))


def apply_whitehead(t: WhiteheadAut, w: CyclicWord) -> CyclicWord:
    return t.apply_to_cyclic(w)


def _multiplier(rank: int, m: int, code: int) -> WhiteheadAut:
    """The multiplier automorphism with multiplier vertex m and action
    code `code`.  It makes the table of `enumerate_whitehead`, which
    checks the budget by `_check_multipliers` first, and each step of
    `minimize_tuple`, whose cut table `_multiplier_cuts` checked it."""
    return WhiteheadAut(rank, _arc_letters(rank)[m], _actions(rank, m >> 1, code))


@lru_cache(maxsize=None)
def enumerate_whitehead(rank: int) -> tuple[WhiteheadAut, ...]:
    """All non-identity multiplier automorphisms, in a fixed order:
    multipliers by letter order, then action tables in base-4 counting
    order over the other generators (least significant digit first).
    There are 2n * (4^(n-1) - 1) of them."""
    _check_multipliers(rank)
    return tuple(
        _multiplier(rank, m, code)
        for m in range(2 * rank)
        for code in range(1, 4 ** (rank - 1))
    )


@lru_cache(maxsize=None)
def _relabelings(rank: int) -> tuple[bytes, ...]:
    """Each relabeling as its flat code map (byte c codes letter c's
    image): permutations of the generators in lexicographic order, each
    with every sign flip in binary counting order (generator 0's flip
    most significant).  This is the one walk of the relabelings, and it
    checks their count against WHITEHEAD_BUDGET before it starts;
    `enumerate_relabelings` and the orbit closure read its result."""
    _check_positive(rank)
    _check_budget(math.factorial(rank) * 2**rank, "relabelings", rank)
    return tuple([
        bytes([p ^ f ^ s for p, f in zip(perm, flips) for s in (0, 1)])
        for perm in itertools.permutations(range(0, 2 * rank, 2))
        for flips in itertools.product((0, 1), repeat=rank)
    ])


@lru_cache(maxsize=None)
def enumerate_relabelings(rank: int) -> tuple[WhiteheadAut, ...]:
    """All n! * 2^n signed permutations of the generators, in the order
    of `_relabelings`, whose code maps give each generator g its image,
    the letter of byte 2g; the budget is checked there."""
    letters = _arc_letters(rank)
    return tuple([
        WhiteheadAut(rank, images=tuple([letters[r[g]] for g in range(0, 2 * rank, 2)]))
        for r in _relabelings(rank)
    ])


def _common_alphabet(ws: Sequence[CyclicWord]) -> Alphabet:
    if not ws:
        raise ValueError("empty tuple of cyclic words")
    alphabet = ws[0].alphabet
    for w in ws[1:]:
        if w.alphabet != alphabet:
            raise AlphabetMismatchError("tuple entries over different alphabets")
    return alphabet


def total_length(ws: Sequence[CyclicWord]) -> int:
    return sum(len(w) for w in ws)


def _whitehead_graph(
    words: Iterable[tuple[int, ...]], rank: int
) -> tuple[list[int], list[int]]:
    """The Whitehead graph of a tuple of code words as a flat 2n x 2n
    matrix of edge counts, with the vertex degrees.  Each cyclically
    adjacent pair u v adds an edge u - v^-1."""
    size = 2 * rank
    graph = [0] * (size * size)
    for w in words:
        if not w:
            continue
        u = w[-1]
        for v in w:
            graph[u * size + (v ^ 1)] += 1
            graph[(v ^ 1) * size + u] += 1
            u = v
    degrees = [sum(graph[v * size : (v + 1) * size]) for v in range(size)]
    return graph, degrees


@lru_cache(maxsize=None)
def _multiplier_cuts(rank: int) -> tuple[tuple[bytes, ...], ...]:
    """For each multiplier vertex m, one `bytes` per action code, in code
    order: the matrix cells that join the side A of (m, code) to the
    complement of A.  The length change of (m, code) is the sum over its
    cells minus the degree of m.  A cell indexes the 2n x 2n matrix, so
    it is below (2n)^2 <= 144 at rank 6, the highest rank
    WHITEHEAD_BUDGET admits, and fits in a byte up to rank 8."""
    _check_multipliers(rank)
    size = 2 * rank
    table = []
    for m in range(size):
        cuts = []
        for code in range(1, 4 ** (rank - 1)):
            side = {m}
            for g, act in enumerate(_actions(rank, m >> 1, code)):
                if act & 1:
                    side.add(2 * g)
                if act & 2:
                    side.add(2 * g + 1)
            rest = [v for v in range(size) if v not in side]
            cuts.append(bytes([a * size + b for a in sorted(side) for b in rest]))
        table.append(tuple(cuts))
    return tuple(table)


def _cut_below(graph: list[int], size: int, source: int, target: int) -> list[int] | None:
    """Does the max flow from vertex `source` to its inverse, with the
    matrix as capacities, stay below `target`?  Then the vertices the
    last residual search reached, a minimum cut's side; else None.
    Augments along shortest residual paths (Edmonds-Karp) and stops as
    soon as the flow reaches `target`."""
    sink = source ^ 1
    residual = graph[:]
    flow = 0
    while flow < target:
        parent = [-1] * size
        parent[source] = source
        queue = [source]
        for u in queue:
            row = u * size
            for v in range(size):
                if parent[v] < 0 and residual[row + v]:
                    parent[v] = u
                    queue.append(v)
            if parent[sink] >= 0:
                break
        else:
            return queue
        push, v = target - flow, sink
        while v != source:
            u = parent[v]
            push = min(push, residual[u * size + v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            residual[u * size + v] -= push
            residual[v * size + u] += push
            v = u
        flow += push
    return None


def _length_changes(
    words: Sequence[tuple[int, ...]], rank: int, bound: int
) -> Iterator[tuple[int, int, int]]:
    """(multiplier vertex, action code, change in total length) for the
    multiplier automorphisms in enumeration order, read off the Whitehead
    graph of the code words without applying them.  Whole blocks whose
    changes all exceed `bound` are skipped.

    Take a generator x.  The side of a multiplier x contains x and not
    x^-1; so does the complement of the side of a multiplier x^-1, and a
    set and its complement have the same cut.  Conversely every set that
    holds x and not x^-1 is the side of a multiplier x (the set {x} is
    the identity's).  Since deg(x) = deg(x^-1), the least change over
    both blocks, counting the identity's 0, is mincut(x, x^-1) - deg(x).
    So one max flow from x to x^-1, stopped once it reaches
    deg(x) + bound + 1, shows whether every candidate of both blocks
    changes the length by more than `bound`; those blocks are skipped.
    The cut never exceeds cap({x}) = deg(x), so a bound >= 0 skips
    nothing and runs no flow.  The other blocks are scored in full and
    in order, so the first candidate with change <= bound is the one a
    full scan meets first.
    """
    graph, degrees = _whitehead_graph(words, rank)
    size = 2 * rank
    cell = graph.__getitem__
    cuts = _multiplier_cuts(rank)
    for x in range(0, size, 2):
        target = degrees[x] + bound + 1
        if target <= degrees[x] and _cut_below(graph, size, x, target) is None:
            continue
        for m in (x, x + 1):
            deg = degrees[m]
            for code, cells in enumerate(cuts[m], 1):
                yield m, code, sum(map(cell, cells)) - deg


def _check_predicted(got: int, predicted: int) -> None:
    if got != predicted:
        raise CertificateError(
            "Whitehead move predicted total length %d, applying gave %d"
            % (predicted, got)
        )


def minimize_tuple(
    ws: Sequence[CyclicWord],
) -> tuple[tuple[CyclicWord, ...], list[WhiteheadAut]]:
    """First-improvement descent to the minimal total length in the orbit.

    Each step scores the multiplier automorphisms in enumeration order on
    the Whitehead graph and applies the first that shortens the tuple,
    a (multiplier vertex, action code), to the code words; they are
    rotated once, after the last step.  Returns the minimal tuple and the
    automorphisms applied, in order.  Entry order is preserved throughout.
    """
    current = tuple(ws)
    alphabet = _common_alphabet(current)
    rank, words = alphabet.rank, [w.codes for w in current]
    descent: list[WhiteheadAut] = []
    length = total_length(current)
    while True:
        for m, code, change in _length_changes(words, rank, -1):
            if change < 0:
                break
        else:
            break
        step = _multiplier(rank, m, code)
        descent.append(step)
        images = _multiplier_images(m, step.actions)
        words = [_cyclic_image(images, w) for w in words]
        length += change
        _check_predicted(sum(map(len, words)), length)
    if descent:
        current = tuple([CyclicWord._of(alphabet, w) for w in words])
    return current, descent


def equal_length_orbit(
    ws: Sequence[CyclicWord],
) -> set[tuple[CyclicWord, ...]]:
    """Closure of a minimal tuple under length-preserving Whitehead
    automorphisms of both kinds.  Contains the tuple itself.

    Conjugating a multiplier automorphism by a relabeling gives another
    multiplier automorphism with the same length change.  So if the
    closure holds a tuple, it holds all its relabelings, and the
    multiplier neighbours of a relabeling r(p) are the relabelings by r
    of the multiplier neighbours of p.  The closure is therefore a union
    of relabeling classes, and the search scores the multipliers on one
    tuple per class: each tuple a multiplier reaches outside the closure
    found so far brings in its whole class.  The search runs on code
    words in least rotation; each member becomes a CyclicWord tuple
    once, at the end, without a second rotation.

    Each class costs n!·2ⁿ relabeling images, so a closure may add
    classes only while their images total at most WHITEHEAD_BUDGET;
    WhiteheadBudgetError is raised before a class would pass it.
    """
    start = tuple(ws)
    alphabet = _common_alphabet(start)
    orbit = _orbit_codes(tuple([w.codes for w in start]), alphabet.rank)
    return {tuple([CyclicWord._of(alphabet, w, rotate=False) for w in member]) for member in orbit}


def _orbit_codes(start: tuple, rank: int, goal: tuple | None = None) -> set[tuple]:
    """equal_length_orbit on code words in least rotation.  Stops as soon
    as a class brings in `goal`, returning the closure found so far.
    The rank's relabelings are built once, by `_relabelings`, which
    checks their budget.  One never cancels a letter, so it maps the
    codes one by one; a multiplier image comes from `_cyclic_image` and
    is checked.  Each image is rotated once."""
    relabelings = _relabelings(rank)
    target = sum(map(len, start))
    orbit: set[tuple] = set()
    queue: deque[tuple] = deque()
    computed = 0

    def add_class(member: tuple) -> None:
        nonlocal computed
        computed += len(relabelings)
        if computed > WHITEHEAD_BUDGET:
            raise WhiteheadBudgetError(
                "the orbit closure needs at least %d relabeling images, over the budget of %d"
                % (computed, WHITEHEAD_BUDGET)
            )
        orbit.update(tuple([_rotated(tuple([r[c] for c in w])) for w in member]) for r in relabelings)
        queue.append(member)

    add_class(start)
    while queue and goal not in orbit:
        current = queue.popleft()
        for m, code, change in _length_changes(current, rank, 0):
            if change == 0:
                images = _multiplier_images(m, _actions(rank, m >> 1, code))
                reached = tuple([_rotated(_cyclic_image(images, w)) for w in current])
                _check_predicted(sum(map(len, reached)), target)
                if reached not in orbit:
                    add_class(reached)
                    if goal in orbit:
                        break
    return orbit


def same_orbit(us: Sequence[CyclicWord], vs: Sequence[CyclicWord]) -> bool:
    """Are the two tuples related by an automorphism (entrywise, in order)?
    The orbit closure stops as soon as it meets the second tuple."""
    us, vs = tuple(us), tuple(vs)
    if len(us) != len(vs):
        raise ValueError("tuple lengths differ: %d vs %d" % (len(us), len(vs)))
    alphabet = _common_alphabet(us)
    if alphabet != _common_alphabet(vs):
        raise AlphabetMismatchError("tuples over different alphabets")
    mu, _ = minimize_tuple(us)
    mv, _ = minimize_tuple(vs)
    if total_length(mu) != total_length(mv):
        return False
    goal = tuple([w.codes for w in mv])
    return goal in _orbit_codes(tuple([w.codes for w in mu]), alphabet.rank, goal)


def _cut_descent(words: list[tuple[int, ...]], rank: int) -> list[tuple[int, ...]]:
    """Descent by minimum cuts (Roig-Ventura-Weil 2007) on code words,
    returned unrotated.  A step takes the first generator x whose flow
    to x^-1 stays below deg(x) and applies the multiplier x with that
    cut's side as A, the best of both blocks of x (see `_length_changes`)."""
    size = 2 * rank
    while True:
        graph, degrees = _whitehead_graph(words, rank)
        for x in range(0, size, 2):
            side = _cut_below(graph, size, x, degrees[x])
            if side is not None:
                break
        else:
            return words
        cut = sum([graph[a * size + b] for a in side for b in range(size) if b not in side])
        length = sum(map(len, words)) + cut - degrees[x]
        actions = [(g in side) | (g + 1 in side) << 1 if g != x else 0 for g in range(0, size, 2)]
        images = _multiplier_images(x, actions)
        words = [_cyclic_image(images, w) for w in words]
        _check_predicted(sum(map(len, words)), length)


def is_primitive(w: Word) -> bool:
    """Is w an entry of some free basis?  True exactly when the minimal
    cyclic length in its orbit is one.  Only that length is read, and
    every strictly shortening descent stops at it, so this one descends
    by minimum cuts, with no table; the rank keeps the table's budget."""
    if w.is_trivial:
        raise TrivialWordError("the trivial word is not primitive")
    rank = w.alphabet.rank
    _check_multipliers(rank)
    return sum(map(len, _cut_descent([CyclicWord.from_word(w).codes], rank))) == 1


class PairClass(IntEnum):
    """Support classification of a pair of cyclic words."""

    NEITHER = 0
    FRUGAL = 1
    DISJOINT = 2
    BOTH = 3

    @property
    def is_good(self) -> bool:
        return self != PairClass.NEITHER

    @property
    def text(self) -> str:
        return self.name.lower()


def classify_pair(v: CyclicWord, w: CyclicWord) -> PairClass:
    """frugal: the supports miss some generator; disjoint: the supports
    do not meet; both/neither accordingly."""
    if v.alphabet != w.alphabet:
        raise AlphabetMismatchError("pair over different alphabets")
    sv, sw = letter_support(v), letter_support(w)
    frugal = (sv | sw) != frozenset(range(v.alphabet.rank))
    disjoint = not (sv & sw)
    if frugal and disjoint:
        return PairClass.BOTH
    if frugal:
        return PairClass.FRUGAL
    if disjoint:
        return PairClass.DISJOINT
    return PairClass.NEITHER


# ---------------------------------------------------------------------------
# Nielsen transformations


@dataclass(frozen=True)
class NielsenTransformation(object):
    """An elementary move on an ordered tuple: invert entry `target`, or
    right-multiply entry `target` by entry `source`."""

    target: int
    source: int | None = None

    def __post_init__(self) -> None:
        entries = (self.target, 0 if self.source is None else self.source)
        if not all(isinstance(e, int) and e >= 0 for e in entries) or self.target == self.source:
            raise ValueError("a Nielsen move needs distinct non-negative integer entries")

    @classmethod
    def invert(cls, gen: int) -> "NielsenTransformation":
        return cls(gen)

    @classmethod
    def right_multiply(cls, gen: int, other: int) -> "NielsenTransformation":
        return cls(gen, other)

    def _check_within(self, count: int, what: str) -> None:
        if max(self.target, self.source or 0) >= count:
            raise ValueError("Nielsen move %r outside %s" % (self, what % count))

    def apply(self, words: Sequence[Word]) -> tuple[Word, ...]:
        self._check_within(len(words), "a tuple of %d words")
        out = list(words)
        if self.source is None:
            out[self.target] = ~out[self.target]
        else:
            out[self.target] = out[self.target] * out[self.source]
        return tuple(out)

    def describe(self, alphabet: Alphabet) -> str:
        self._check_within(alphabet.rank, "an alphabet of rank %d")
        if self.source is None:
            return "inv %s" % alphabet.symbols[self.target]
        return "rmul %s %s" % (alphabet.symbols[self.target], alphabet.symbols[self.source])


def standard_basis(alphabet: Alphabet) -> tuple[Word, ...]:
    return tuple(Word._of(alphabet, (2 * g,)) for g in range(alphabet.rank))


def apply_nielsen(
    moves: Sequence[NielsenTransformation], alphabet: Alphabet
) -> tuple[Word, ...]:
    """Run the moves, in order, from the standard basis by `_replay`."""
    return tuple([Word._of(alphabet, w) for w in _replay(moves, alphabet.rank)])


# A state of the Nielsen search: a basis, as a tuple of its words'
# vertex codes.  Each word is a `bytes` object, which hashes once and
# inverts in C: reversed, then translated by _FLIP (c -> c ^ 1).  bytes
# holds codes below 256, so ranks up to 128; above that each word is a
# tuple, inverted by `_inverse`.  `_packing` picks the container by the
# rank, and every loop serves both.  A state's words are reduced and
# nonempty, since it is a basis.
_State = tuple[Sequence[int], ...]

_FLIP = bytes([c ^ 1 for c in range(256)])


def _flip(w: bytes) -> bytes:
    return w[::-1].translate(_FLIP)


def _elementary_moves(rank: int) -> list[NielsenTransformation]:
    moves = [NielsenTransformation.invert(i) for i in range(rank)]
    moves.extend(
        NielsenTransformation.right_multiply(i, j)
        for i in range(rank)
        for j in range(rank)
        if i != j
    )
    return moves


# Each elementary move with its target and source entries.
_Moves = list[tuple[NielsenTransformation, int, "int | None"]]


def _packing(rank: int) -> tuple[type, Callable]:
    """The container of the words of a rank's states, and its inversion."""
    return (bytes, _flip) if rank <= 128 else (tuple, _inverse)


@lru_cache(maxsize=None)
def _rank_ops(rank: int) -> tuple[type, Callable, _Moves]:
    """_packing(rank) and the rank's elementary moves with their entries."""
    moves: _Moves = [(m, m.target, m.source) for m in _elementary_moves(rank)]
    return (*_packing(rank), moves)


def _successors(
    state: _State, moves: _Moves, inverses: "Sequence | dict", forward: bool
) -> list[tuple[_State, NielsenTransformation]]:
    """(new state, move) for each move in order: the move applied to the
    state, or, walking backward, the state the move carries to it.  The
    caller gives the inverses, by entry, that the moves read: an
    inversion takes one, and rmul(i, j) undone multiplies by entry j's.
    Both factors are reduced and nonempty, so a product is a plain
    concatenation unless its junction cancels."""
    tails = state if forward else inverses
    out = []
    for move, i, j in moves:
        if j is None:
            word = inverses[i]
        else:
            u, v = state[i], tails[j]
            word = u + v if u[-1] ^ v[0] != 1 else _join(u, v)
        out.append((state[:i] + (word,) + state[i + 1 :], move))
    return out


def _replay(moves: Sequence[NielsenTransformation], rank: int, forward: bool = True) -> _State:
    """The standard basis carried through the moves, one `_successors`
    step each: forward in order to the basis they build, the letters'
    images under the automorphism φ they present, or backward, each
    move undone in reverse order, to φ⁻¹'s images.  A step inverts the
    one entry its move may read: an inversion's target, an rmul's source."""
    pack, invert = _packing(rank)
    state = tuple([pack((2 * g,)) for g in range(rank)])
    for m in moves if forward else reversed(moves):
        m._check_within(rank, "a tuple of %d words")
        k = m.target if m.source is None else m.source
        state = _successors(state, [(m, m.target, m.source)], {k: invert(state[k])}, forward)[0][0]
    return state


# Parent links, of both search balls and of the reduction: state ->
# (next state toward the root, move).  The move carries the state to
# its parent walking backward, and the parent to the state forward.
_Links = dict[_State, tuple["_State | None", "NielsenTransformation | None"]]


def _path(links: _Links, state: _State) -> list[NielsenTransformation]:
    """The moves on the links from the state to the root, in the order
    the links are followed."""
    path: list[NielsenTransformation] = []
    parent, move = links[state]
    while parent is not None:
        path.append(move)  # type: ignore[arg-type]
        parent, move = links[parent]
    return path


class _Ball(object):
    """The breadth-first layers of one rank's states around a root,
    grown one at a time: forward by the elementary moves, or backward by
    the moves undone.

    `links` holds each state's parent link.  The shared ball counts in
    `spent` the backward states made since it last deepened; a search
    holds its `lock`."""

    def __init__(self, rank: int, root: _State | None = None, forward: bool = True) -> None:
        pack, self.invert, self.moves = _rank_ops(rank)
        self.forward = forward
        self.root: _State = _replay((), rank) if root is None else tuple([pack(w) for w in root])
        self.links: _Links = {self.root: (None, None)}
        self.layers: list[list[_State]] = [[self.root]]
        self.spent = 0
        self.lock = threading.Lock()

    def grow(self, limit: float = math.inf) -> list[_State] | None:
        """Grow the ball by one layer and return its states, or drop the
        layer and return None once an expanded state passes `limit` states."""
        links, fresh = self.links, []
        try:
            for state in self.layers[-1]:
                inverses = [self.invert(w) for w in state]
                for new, move in _successors(state, self.moves, inverses, self.forward):
                    if new not in links:
                        links[new] = (state, move)
                        fresh.append(new)
                if len(links) > limit:
                    return None
            self.layers.append(fresh)
            return fresh
        finally:
            # A stopped or interrupted layer would be taken as complete later.
            if self.layers[-1] is not fresh:
                for state in fresh:
                    del links[state]

    def settle(self, depth: int, spent: int) -> None:
        """Cut the ball back to `depth`, or one layer deeper once the
        backward states spent since it last deepened reach n^2 times the
        last layer, a bound on the new one that must fit BALL_STATES."""
        self.spent += spent
        bound = len(self.moves) * len(self.layers[depth])
        kept = len(self.links) - sum(map(len, self.layers[depth + 1 :]))
        if 0 < bound <= min(self.spent, BALL_STATES - kept):
            depth, self.spent = depth + 1, 0
        while len(self.layers) > depth + 1:
            for state in self.layers.pop():
                del self.links[state]
        if len(self.layers) == depth:
            self.grow()


# The shared forward ball of each rank, made on first use.
_ball = lru_cache(maxsize=None)(_Ball)


def _bidirectional_search(target: _State, rank: int) -> list[NielsenTransformation] | None:
    """Shortest elementary move sequence from the standard basis to the
    target, by bidirectional breadth-first search.  None past
    NIELSEN_BUDGET states (the caller falls back to `_reduction_moves`),
    checked after each expanded state: a layer may be n^2 times its last.

    The forward side starts as all layers of the rank's shared `_Ball`,
    and the target is looked up in them.  Then each step grows the side
    with the smaller last layer and looks for the new states among the
    other side's; all meets share their depths, so the first in layer
    order wins.  Only the root and the states past the shared layers
    count against NIELSEN_BUDGET, so a fresh ball runs the plain search;
    a deeper one may meet another shortest move list.  The shared ball
    then drops the layers grown past it and may deepen by one.
    """
    forward = _ball(rank)
    backward = _Ball(rank, target, forward=False)
    with forward.lock:
        resident = len(forward.layers) - 1
        try:
            if backward.root in forward.links:
                return _path(forward.links, backward.root)[::-1]
            balls, cap = (forward, backward), NIELSEN_BUDGET + len(forward.links) - 1
            while True:
                last = [ball.layers[-1] for ball in balls]
                side = len(last[0]) > len(last[1])
                fresh = balls[side].grow(cap - len(balls[not side].links)) if all(last) else None
                if fresh is None:
                    return None
                links = balls[not side].links
                if links.keys().isdisjoint(fresh):
                    continue
                best = next(s for s in fresh if s in links)
                return _path(forward.links, best)[::-1] + _path(backward.links, best)
        finally:
            forward.settle(resident, len(backward.links))


def _reduction_moves(target: Sequence[Sequence[int]]) -> list[NielsenTransformation]:
    """Elementary moves carrying the standard basis to a basis, by
    Nielsen reduction walking back from it (Lyndon-Schupp, Combinatorial
    Group Theory, I.2): complete, but not always shortest.

    A breadth-first search of predecessors through tuples of the current
    total length restarts from the first shorter one.  A basis that is
    not Nielsen-reduced has a move, one right-multiplication between
    inversions, that shortens it or keeps its length and lowers the N2
    order; so a shorter tuple is met until every word is a letter, and
    explicit swaps and inversions undo the signed permutation left.
    Read backwards, the moves recorded run forward from the standard
    basis.  Raises NielsenBudgetError past NIELSEN_BUDGET tuples of one
    total length, and CertificateError when no shorter tuple is met or a
    shorter one holds the trivial word, which a basis never allows.
    """
    rank = len(target)
    pack, invert, moves = _rank_ops(rank)
    back: list[NielsenTransformation] = []
    state, length = tuple([pack(w) for w in target]), sum(map(len, target))
    links: _Links = {state: (None, None)}
    queue = deque([state])
    while length > rank:
        if not queue:
            raise CertificateError("Nielsen reduction met no tuple shorter than %d" % length)
        current = queue.popleft()
        for new, move in _successors(current, moves, [invert(w) for w in current], False):
            size = sum(map(len, new))
            if size > length or new in links:
                continue
            links[new] = (current, move)
            if size < length:
                if not all(new):
                    raise CertificateError("Nielsen reduction met the trivial word")
                back.extend(reversed(_path(links, new)))
                state, length = new, size
                links, queue = {new: (None, None)}, deque([new])
                break
            if len(links) > NIELSEN_BUDGET:
                raise NielsenBudgetError(
                    "Nielsen reduction over the budget of %d tuples of one length" % NIELSEN_BUDGET
                )
            queue.append(new)
    inv, rmul = NielsenTransformation.invert, NielsenTransformation.right_multiply
    letters = [w[0] for w in state]
    for i in range(rank):
        j = next(k for k in range(i, rank) if letters[k] >> 1 == i)
        if j != i:
            # Read backwards, these six moves swap entries i and j of any tuple.
            back += [inv(i), rmul(i, j), inv(j), rmul(j, i), inv(i), rmul(i, j)]
            letters[i], letters[j] = letters[j], letters[i]
        if letters[i] & 1:
            back.append(inv(i))
    return back[::-1]


def nielsen_decompose(target: Sequence[Word], alphabet: Alphabet) -> list[NielsenTransformation]:
    """An elementary move sequence carrying the standard basis to the
    target tuple, exactly and in order: the shortest one when the
    bidirectional search finds it within NIELSEN_BUDGET states, else a
    complete Nielsen reduction whose move list may be longer.  Which
    shortest list comes back depends on the depth of the shared ball.

    Raises NotABasisError when the words do not form a basis, and
    NielsenBudgetError when the reduction passes NIELSEN_BUDGET.
    """
    words = tuple(target)
    if len(words) != alphabet.rank:
        raise NotABasisError(
            "expected %d words, got %d" % (alphabet.rank, len(words))
        )
    for w in words:
        if w.alphabet != alphabet:
            raise AlphabetMismatchError("basis word over a different alphabet")
        if w.is_trivial:
            raise NotABasisError("a basis cannot contain the trivial word")
    target = tuple([w.codes for w in words])
    # n words that generate F form a basis: free groups are Hopfian.
    if not _generates(target, alphabet.rank):
        raise NotABasisError("words do not generate the whole group")
    return _decompose_basis(target, alphabet.rank)


def _decompose_basis(target: tuple[tuple[int, ...], ...], rank: int) -> list[NielsenTransformation]:
    """nielsen_decompose for code words already certified to form a basis
    of the rank, such as a splitting's basis carried over another by
    `nielsen_bound`: no fold re-checks them, but the moves must `_replay`
    to them.  The rebase needs no shortest list: it replays the
    reduction's moves backward to φ⁻¹ and checks that instead."""
    moves = _bidirectional_search(target, rank)
    if moves is None:
        moves = _reduction_moves(target)
    if tuple(map(tuple, _replay(moves, rank))) != target:
        raise CertificateError("the move list does not replay to the target")
    return moves
