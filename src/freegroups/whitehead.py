"""Whitehead automorphisms, length minimization, and Nielsen moves.

Two kinds of Whitehead automorphism act on cyclic words: relabelings
(signed permutations of the generators) and multiplier automorphisms,
which fix a multiplier letter m and send every other generator x to one
of x, xm, m^-1 x, or m^-1 x m.  Relabelings never change length, and if
a tuple of cyclic words is not of minimal total length in its
automorphism orbit then some multiplier automorphism strictly shortens
it, so first-improvement descent over the multiplier family reaches the
minimum.  Two minimal tuples lie in the same orbit exactly when they
are connected by length-preserving Whitehead automorphisms, which is
what the orbit closure computes.

Candidates are scored without rewriting any word.  The Whitehead graph
of a tuple has one vertex per letter and, for each cyclically adjacent
pair u v of an entry, one edge u - v^-1.  A multiplier automorphism
with multiplier m has the side A = {m} + {x : x acts right or conj} +
{x^-1 : x acts left or conj}, and it changes the total length by
cap(A) - deg(m), the number of edges leaving A minus the degree of m
(Whitehead 1936; Roig-Ventura-Weil 2007).  Descent scores the
multipliers in enumeration order, takes the first that shortens, and
applies only that one; the orbit closure applies only the multipliers
that score zero, then every relabeling to what they reach.  Each applied
move is checked against its predicted length.

Nielsen transformations are the elementary moves on ordered bases:
invert one entry, or right-multiply one entry by another.  A basis
tuple is decomposed into the shortest such move sequence.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from operator import neg
from typing import Iterable, Iterator, Sequence

from .stallings import _is_rose, build_subgroup
from .words import (
    Alphabet,
    AlphabetMismatchError,
    CyclicWord,
    Letter,
    TrivialWordError,
    Word,
    cyclic_reduce,
    free_reduce,
    letter_support,
)

ORBIT_RANK_WARNING = 5


class NotABasisError(ValueError):
    """The given tuple does not freely generate the whole group."""


class CertificateError(AssertionError):
    """A computed answer failed its own re-check.  This signals a defect
    in the library, never bad input, so it is not a ValueError; unlike a
    bare assert, the check still runs under `python -O`."""


class Action(IntEnum):
    """How a multiplier automorphism treats one generator."""

    KEEP = 0
    RIGHT = 1
    LEFT = 2
    CONJ = 3


ACTION_NAMES = {
    Action.KEEP: "keep",
    Action.RIGHT: "right",
    Action.LEFT: "left",
    Action.CONJ: "conj",
}


@dataclass(frozen=True)
class WhiteheadAut(object):
    """Either a relabeling (signed generator permutation) or a multiplier
    automorphism, determined by which of `images` / `mult` is set."""

    rank: int
    mult: Letter | None = None
    actions: tuple[int, ...] | None = None
    images: tuple[Letter, ...] | None = None

    @classmethod
    def relabeling(cls, images: Sequence[Letter]) -> "WhiteheadAut":
        images = tuple(images)
        if sorted(l.gen for l in images) != list(range(len(images))):
            raise ValueError("images must hit every generator exactly once")
        return cls(rank=len(images), images=images)

    @classmethod
    def multiplier(
        cls, rank: int, mult: Letter, actions: Sequence[int]
    ) -> "WhiteheadAut":
        actions = tuple(int(a) for a in actions)
        if len(actions) != rank:
            raise ValueError("need one action per generator")
        if actions[mult.gen] != Action.KEEP:
            raise ValueError("the multiplier's own generator must be kept")
        if any(a not in (0, 1, 2, 3) for a in actions):
            raise ValueError("unknown action in %r" % (actions,))
        return cls(rank=rank, mult=mult, actions=actions)

    @property
    def is_relabeling(self) -> bool:
        return self.images is not None

    def inverse(self) -> "WhiteheadAut":
        if self.images is not None:
            inv = [Letter(0, 1)] * self.rank
            for g, image in enumerate(self.images):
                inv[image.gen] = Letter(g, image.sign)
            return WhiteheadAut.relabeling(inv)
        # Flipping the multiplier's sign undoes every action kind.
        assert self.mult is not None and self.actions is not None
        return WhiteheadAut.multiplier(self.rank, self.mult.inverse(), self.actions)

    def _positive_image(self, gen: int) -> tuple[Letter, ...]:
        if self.images is not None:
            return (self.images[gen],)
        assert self.mult is not None and self.actions is not None
        m = self.mult
        x = Letter(gen, 1)
        if gen == m.gen:
            return (x,)
        act = self.actions[gen]
        if act == Action.KEEP:
            return (x,)
        if act == Action.RIGHT:
            return (x, m)
        if act == Action.LEFT:
            return (m.inverse(), x)
        return (m.inverse(), x, m)

    def apply_to_letters(self, letters: Iterable[Letter]) -> list[Letter]:
        out: list[Letter] = []
        for l in letters:
            image = self._positive_image(l.gen)
            if l.sign > 0:
                out.extend(image)
            else:
                out.extend(x.inverse() for x in reversed(image))
        return out

    def apply_to_word(self, w: Word) -> Word:
        self._check_rank(w.alphabet)
        return free_reduce(self.apply_to_letters(w.letters), w.alphabet)

    def apply_to_cyclic(self, w: CyclicWord) -> CyclicWord:
        self._check_rank(w.alphabet)
        linear = free_reduce(self.apply_to_letters(w.letters), w.alphabet)
        return cyclic_reduce(linear)[0]

    def _check_rank(self, alphabet: Alphabet) -> None:
        if alphabet.rank != self.rank:
            raise AlphabetMismatchError(
                "automorphism of rank %d applied over rank %d"
                % (self.rank, alphabet.rank)
            )

    def describe(self, alphabet: Alphabet) -> str:
        """External text form: 'perm a->b ...' or 'mult a b:right ...'."""

        def letter_text(l: Letter) -> str:
            s = alphabet.symbols[l.gen]
            return s if l.sign > 0 else s.upper()

        if self.images is not None:
            parts = [
                "%s->%s" % (alphabet.symbols[g], letter_text(img))
                for g, img in enumerate(self.images)
            ]
            return "perm " + " ".join(parts)
        assert self.mult is not None and self.actions is not None
        parts = [
            "%s:%s" % (alphabet.symbols[g], ACTION_NAMES[Action(a)])
            for g, a in enumerate(self.actions)
            if g != self.mult.gen
        ]
        return "mult %s %s" % (letter_text(self.mult), " ".join(parts))


def apply_whitehead(t: WhiteheadAut, w: CyclicWord) -> CyclicWord:
    return t.apply_to_cyclic(w)


@lru_cache(maxsize=None)
def enumerate_whitehead(rank: int) -> tuple[WhiteheadAut, ...]:
    """All non-identity multiplier automorphisms, in a fixed order:
    multipliers by letter order, then action tables in base-4 counting
    order over the other generators (least significant digit first).
    There are 2n * (4^(n-1) - 1) of them."""
    out = []
    for gen in range(rank):
        for sign in (1, -1):
            m = Letter(gen, sign)
            others = [g for g in range(rank) if g != gen]
            for code in range(1, 4 ** len(others)):
                actions = [int(Action.KEEP)] * rank
                c = code
                for g in others:
                    actions[g] = c % 4
                    c //= 4
                out.append(WhiteheadAut.multiplier(rank, m, actions))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_relabelings(rank: int) -> tuple[WhiteheadAut, ...]:
    """All n! * 2^n signed permutations of the generators."""
    out = []
    for perm in itertools.permutations(range(rank)):
        for signs in itertools.product((1, -1), repeat=rank):
            out.append(
                WhiteheadAut.relabeling(
                    tuple(Letter(perm[g], signs[g]) for g in range(rank))
                )
            )
    return tuple(out)


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


def _vertex(l: Letter) -> int:
    return 2 * l.gen + (l.sign < 0)


def _whitehead_graph(
    ws: Sequence[CyclicWord], rank: int
) -> tuple[list[int], list[int]]:
    """The Whitehead graph of the tuple as a flat 2n x 2n matrix of edge
    counts, with the vertex degrees.  Letter g is vertex 2g and its
    inverse 2g + 1; each cyclically adjacent pair u v adds an edge
    u - v^-1."""
    size = 2 * rank
    graph = [0] * (size * size)
    for w in ws:
        if not w.letters:
            continue
        vertices = [_vertex(l) for l in w.letters]
        u = vertices[-1]
        for v in vertices:
            graph[u * size + (v ^ 1)] += 1
            graph[(v ^ 1) * size + u] += 1
            u = v
    degrees = [sum(graph[v * size : (v + 1) * size]) for v in range(size)]
    return graph, degrees


@lru_cache(maxsize=None)
def _multiplier_cuts(rank: int) -> tuple[tuple[int, ...], tuple[array, ...]]:
    """Aligned with enumerate_whitehead(rank): the multiplier vertex of
    each automorphism, and the matrix cells that join its side A to the
    complement of A, so that the length change is the sum over those
    cells minus the multiplier's degree.  Compact arrays keep the table
    at half the size of int tuples."""
    size = 2 * rank
    mults, cuts = [], []
    for t in enumerate_whitehead(rank):
        assert t.mult is not None and t.actions is not None
        m = _vertex(t.mult)
        side = {m}
        for g, act in enumerate(t.actions):
            if act in (Action.RIGHT, Action.CONJ):
                side.add(2 * g)
            if act in (Action.LEFT, Action.CONJ):
                side.add(2 * g + 1)
        rest = [v for v in range(size) if v not in side]
        mults.append(m)
        cuts.append(array("H", (a * size + b for a in sorted(side) for b in rest)))
    return tuple(mults), tuple(cuts)


def _length_changes(
    ws: tuple[CyclicWord, ...], rank: int
) -> Iterator[tuple[WhiteheadAut, int]]:
    """Each multiplier automorphism in enumeration order, with the change
    in total length it would make to the tuple, read off the tuple's
    Whitehead graph without applying it."""
    graph, degrees = _whitehead_graph(ws, rank)
    cell = graph.__getitem__
    mults, cuts = _multiplier_cuts(rank)
    for t, m, cut in zip(enumerate_whitehead(rank), mults, cuts):
        yield t, sum(map(cell, cut)) - degrees[m]


def _relabel(images: Sequence[Letter], w: CyclicWord) -> CyclicWord:
    """The image of w under the relabeling with these generator images.
    A signed permutation cancels no letter, so the mapped letters are
    cyclically reduced already and only need their least rotation."""
    return CyclicWord(
        w.alphabet,
        tuple(Letter(images[l.gen].gen, images[l.gen].sign * l.sign) for l in w.letters),
    )


def _apply_scored(
    t: WhiteheadAut, ws: tuple[CyclicWord, ...], predicted: int
) -> tuple[CyclicWord, ...]:
    if t.images is not None:
        images = tuple(_relabel(t.images, w) for w in ws)
    else:
        images = tuple(t.apply_to_cyclic(w) for w in ws)
    if total_length(images) != predicted:
        raise CertificateError(
            "Whitehead move predicted total length %d, applying gave %d"
            % (predicted, total_length(images))
        )
    return images


def minimize_tuple(
    ws: Sequence[CyclicWord],
) -> tuple[tuple[CyclicWord, ...], list[WhiteheadAut]]:
    """First-improvement descent to the minimal total length in the orbit.

    Each step scores the multiplier automorphisms in enumeration order on
    the Whitehead graph and applies the first that shortens the tuple.
    Returns the minimal tuple and the automorphisms applied, in order.
    Entry order is preserved throughout.
    """
    current = tuple(ws)
    alphabet = _common_alphabet(current)
    descent: list[WhiteheadAut] = []
    length = total_length(current)
    while True:
        for t, change in _length_changes(current, alphabet.rank):
            if change < 0:
                break
        else:
            return current, descent
        length += change
        current = _apply_scored(t, current, length)
        descent.append(t)


def equal_length_orbit(
    ws: Sequence[CyclicWord],
) -> set[tuple[CyclicWord, ...]]:
    """Closure of a minimal tuple under length-preserving Whitehead
    automorphisms of both kinds.  Contains the tuple itself.

    Conjugating a multiplier automorphism by a relabeling gives another
    multiplier automorphism with the same length change, so the orbit is
    every relabeling of the closure under length-preserving multipliers.
    Relabelings map letters one to one and skip free and cyclic
    reduction.
    """
    start = tuple(ws)
    alphabet = _common_alphabet(start)
    if alphabet.rank > ORBIT_RANK_WARNING:
        warnings.warn(
            "equal-length orbit over rank %d may be very large" % alphabet.rank,
            stacklevel=2,
        )
    target = total_length(start)
    level = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for t, change in _length_changes(current, alphabet.rank):
            if change != 0:
                continue
            images = _apply_scored(t, current, target)
            if images not in level:
                level.add(images)
                queue.append(images)
    relabelings = enumerate_relabelings(alphabet.rank)
    return {_apply_scored(t, member, target) for member in level for t in relabelings}


def same_orbit(us: Sequence[CyclicWord], vs: Sequence[CyclicWord]) -> bool:
    """Are the two tuples related by an automorphism (entrywise, in order)?"""
    us, vs = tuple(us), tuple(vs)
    if len(us) != len(vs):
        raise ValueError("tuple lengths differ: %d vs %d" % (len(us), len(vs)))
    if _common_alphabet(us) != _common_alphabet(vs):
        raise AlphabetMismatchError("tuples over different alphabets")
    mu, _ = minimize_tuple(us)
    mv, _ = minimize_tuple(vs)
    if total_length(mu) != total_length(mv):
        return False
    return mv in equal_length_orbit(mu)


def is_primitive(w: Word) -> bool:
    """Is w an entry of some free basis?  True exactly when the minimal
    cyclic length in its orbit is one."""
    if w.is_trivial:
        raise TrivialWordError("the trivial word is not primitive")
    cyc = CyclicWord.from_word(w)
    if cyc.is_trivial:
        raise TrivialWordError("w is conjugate to the trivial word")
    minimal, _ = minimize_tuple((cyc,))
    return total_length(minimal) == 1


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

    @classmethod
    def invert(cls, gen: int) -> "NielsenTransformation":
        return cls(gen)

    @classmethod
    def right_multiply(cls, gen: int, other: int) -> "NielsenTransformation":
        if gen == other:
            raise ValueError("right_multiply needs two distinct entries")
        return cls(gen, other)

    @property
    def is_inversion(self) -> bool:
        return self.source is None

    def apply(self, words: Sequence[Word]) -> tuple[Word, ...]:
        out = list(words)
        if self.source is None:
            out[self.target] = ~out[self.target]
        else:
            out[self.target] = out[self.target] * out[self.source]
        return tuple(out)

    def substitute(self, w: Word, inverse: bool = False) -> Word:
        """Apply as an automorphism (or its inverse) by letter substitution."""
        out: list[Letter] = []
        for l in w.letters:
            if l.gen != self.target:
                out.append(l)
            elif self.source is None:
                out.append(l.inverse())
            else:
                tail = Letter(self.source, -1 if inverse else 1)
                if l.sign > 0:
                    out.extend((l, tail))
                else:
                    out.extend((tail.inverse(), l))
        return free_reduce(out, w.alphabet)

    def describe(self, alphabet: Alphabet) -> str:
        if self.source is None:
            return "inv %s" % alphabet.symbols[self.target]
        return "rmul %s %s" % (alphabet.symbols[self.target], alphabet.symbols[self.source])


def standard_basis(alphabet: Alphabet) -> tuple[Word, ...]:
    return tuple(Word(alphabet, (Letter(g, 1),)) for g in range(alphabet.rank))


def apply_nielsen(
    moves: Sequence[NielsenTransformation], alphabet: Alphabet
) -> tuple[Word, ...]:
    """Run the moves, in order, starting from the standard basis."""
    words = standard_basis(alphabet)
    for m in moves:
        words = m.apply(words)
    return words


def moves_apply_word(
    moves: Sequence[NielsenTransformation], w: Word
) -> Word:
    """Apply the automorphism the move list presents (the one sending the
    standard basis to apply_nielsen(moves)) to a word."""
    for m in reversed(moves):
        w = m.substitute(w)
    return w


def moves_apply_word_inverse(
    moves: Sequence[NielsenTransformation], w: Word
) -> Word:
    """Apply the inverse of the automorphism the move list presents."""
    for m in moves:
        w = m.substitute(w, inverse=True)
    return w


def _is_basis(target: Sequence[Word], alphabet: Alphabet) -> bool:
    # n words generate F(X) iff their Stallings graph is the full rose;
    # since free groups are Hopfian, generation by n words makes a basis.
    return _is_rose(build_subgroup(list(target), alphabet))


# A reduced word of the Nielsen search as integer codes: g + 1 for the
# generator g and -(g + 1) for its inverse, so a letter's inverse is its
# negation.
_Code = tuple[int, ...]
_State = tuple[_Code, ...]


def _code(w: Word) -> _Code:
    return tuple(l.gen + 1 if l.sign > 0 else -(l.gen + 1) for l in w.letters)


def _join(u: _Code, v: _Code) -> _Code:
    """The free reduction of u v for reduced u and v: letters cancel only
    at the junction, so pop the cancelling pairs there and slice."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == -v[k]:
        k += 1
    return u[: len(u) - k] + v[k:]


def _elementary_moves(rank: int) -> list[NielsenTransformation]:
    moves = [NielsenTransformation.invert(i) for i in range(rank)]
    moves.extend(
        NielsenTransformation.right_multiply(i, j)
        for i in range(rank)
        for j in range(rank)
        if i != j
    )
    return moves


def _bidirectional_search(
    target: _State, rank: int, node_budget: int
) -> list[NielsenTransformation] | None:
    """Shortest elementary move sequence from the standard basis to the
    target, by bidirectional breadth-first search.  None if the budget
    runs out (the caller falls back to greedy reduction).

    States are tuples of reduced integer-coded words (see `_Code`).
    Both factors of a right-multiplication are reduced, so its product
    is a junction join.  Each expansion inverts the state's words once
    and shares them among its moves: an inversion move takes the
    inverse, and the backward side, which walks moves in reverse,
    multiplies by it.  The codes are a bijection with the words, so the
    search visits the states of a letter-keyed search in the same order.
    """
    std: _State = tuple((g + 1,) for g in range(rank))
    if target == std:
        return []
    moves = [(m, m.target, m.source) for m in _elementary_moves(rank)]
    # parents map a state to (previous state, move); move direction is
    # forward (toward the target) on both sides.
    parents_f: dict[_State, tuple[_State, NielsenTransformation] | None] = {std: None}
    parents_b: dict[_State, tuple[_State, NielsenTransformation] | None] = {target: None}
    frontier_f, frontier_b = [std], [target]

    def rebuild(meet: _State) -> list[NielsenTransformation]:
        head: list[NielsenTransformation] = []
        state = meet
        while parents_f[state] is not None:
            state, move = parents_f[state]  # type: ignore[misc]
            head.append(move)
        head.reverse()
        state = meet
        while parents_b[state] is not None:
            state, move = parents_b[state]  # type: ignore[misc]
            head.append(move)
        return head

    def depth(parents: dict, state: _State) -> int:
        d = 0
        while parents[state] is not None:
            state = parents[state][0]
            d += 1
        return d

    while frontier_f and frontier_b:
        if len(parents_f) + len(parents_b) > node_budget:
            return None
        forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        parents = parents_f if forward else parents_b
        other = parents_b if forward else parents_f
        fresh: list[_State] = []
        meets: list[_State] = []
        for state in frontier:
            inverses = tuple(tuple(map(neg, reversed(w))) for w in state)
            tails = state if forward else inverses
            for move, i, j in moves:
                word = inverses[i] if j is None else _join(state[i], tails[j])
                new = state[:i] + (word,) + state[i + 1 :]
                if new in parents:
                    continue
                parents[new] = (state, move)
                fresh.append(new)
                if new in other:
                    meets.append(new)
        if meets:
            # Meets in one batch share their depth on the expanded side but
            # not on the other; the shortest total wins.
            best = min(meets, key=lambda m: depth(other, m))
            return rebuild(best)
        if forward:
            frontier_f = fresh
        else:
            frontier_b = fresh
    return None


def _greedy_moves(words: tuple[Word, ...]) -> list[NielsenTransformation]:
    """Length-monotone Nielsen reduction of a certified basis, recording
    the elementary moves that carry the target back to the standard
    basis.  May emit more moves than the shortest sequence."""
    rank = len(words)
    inv = NielsenTransformation.invert
    rmul = NielsenTransformation.right_multiply
    applied: list[NielsenTransformation] = []

    def do(seq: list[NielsenTransformation], current: tuple[Word, ...]) -> tuple[Word, ...]:
        for m in seq:
            current = m.apply(current)
        applied.extend(seq)
        return current

    improved = True
    while improved:
        improved = False
        for i in range(rank):
            for j in range(rank):
                if i == j:
                    continue
                u, v = words[i], words[j]
                candidates = (
                    (u * v, [rmul(i, j)]),
                    (u * ~v, [inv(j), rmul(i, j), inv(j)]),
                    (v * u, [inv(j), inv(i), rmul(i, j), inv(i), inv(j)]),
                    (~v * u, [inv(i), rmul(i, j), inv(i)]),
                )
                for result, seq in candidates:
                    if len(result) < len(u):
                        words = do(seq, words)
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    if any(len(w) != 1 for w in words):
        raise NotABasisError("Nielsen reduction stalled off the standard basis")
    # Signed permutation cleanup: selection sort with explicit moves.
    swap_template = lambda i, j: [rmul(i, j), inv(i), rmul(j, i), inv(j), rmul(i, j), inv(i)]
    for pos in range(rank):
        where = next(i for i in range(pos, rank) if words[i].letters[0].gen == pos)
        if where != pos:
            words = do(swap_template(pos, where), words)
        if words[pos].letters[0].sign < 0:
            words = do([inv(pos)], words)
    return applied


def _invert_move_list(
    applied: Sequence[NielsenTransformation],
) -> list[NielsenTransformation]:
    # Reverse and invert; the inverse of rmul(i, j) is inv(j) rmul(i, j) inv(j).
    out: list[NielsenTransformation] = []
    for m in reversed(applied):
        if m.is_inversion:
            out.append(m)
        else:
            assert m.source is not None
            out.extend(
                (
                    NielsenTransformation.invert(m.source),
                    m,
                    NielsenTransformation.invert(m.source),
                )
            )
    # Peephole: adjacent double inversions cancel.
    cleaned: list[NielsenTransformation] = []
    for m in out:
        if cleaned and m.is_inversion and cleaned[-1] == m:
            cleaned.pop()
        else:
            cleaned.append(m)
    return cleaned


def nielsen_decompose(
    target: Sequence[Word], alphabet: Alphabet, node_budget: int = 300_000
) -> list[NielsenTransformation]:
    """The shortest elementary move sequence carrying the standard basis
    to the target tuple, exactly and in order.

    Raises NotABasisError when the words do not form a basis.  Very long
    bases can exhaust the search budget; the fallback is a greedy
    Nielsen reduction whose move list may not be shortest.
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
    if not _is_basis(words, alphabet):
        raise NotABasisError("words do not generate the whole group")
    moves = _bidirectional_search(tuple(map(_code, words)), alphabet.rank, node_budget)
    if moves is None:
        moves = _invert_move_list(_greedy_moves(words))
    if apply_nielsen(moves, alphabet) != words:
        raise CertificateError("the move list does not replay to the target")
    return moves
