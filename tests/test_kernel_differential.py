"""Each fast path of the Stallings kernel, the conjugacy search, the least
rotation, the code kernel that applies Whitehead automorphisms, the
Nielsen search, the Whitehead descent on code words and its cut table,
the replay of a move list on code words, the rebase by image tuples, the
parser and the code-backed words returns exactly what the code it
replaced returns (the oracles in `kernel_oracles.py`)."""

import random
import sys
import threading

import kernel_oracles as oracle
import pytest
from hypothesis import assume, given, settings, strategies as st

from freegroups import ellipticity, whitehead
from freegroups.cli import run
from freegroups.stallings import (
    NotFoldedError,
    XDigraph,
    _generates,
    build_subgroup,
    conjugator_into,
    contains,
    contains_conjugate,
    core,
    find_cycle,
    fold,
    has_cycle,
    intersect,
    path_word,
    product,
    type_graph,
)
from freegroups.whitehead import (
    NielsenTransformation,
    _ball,
    _bidirectional_search,
    _elementary_moves,
    _actions,
    _cyclic_image,
    _free_image,
    _images,
    _multiplier,
    _multiplier_images,
    _rank_ops,
    _replay,
    _word_image,
    Action,
    WhiteheadAut,
    apply_nielsen,
    enumerate_relabelings,
    enumerate_whitehead,
    is_primitive,
    minimize_tuple,
    standard_basis,
    total_length,
)
from freegroups.words import (
    Alphabet,
    CyclicWord,
    Letter,
    Word,
    WordFormatError,
    _arc_letters,
    _join,
    _least_rotation_start,
    _parse_codes,
    _reduce,
    _rotated,
    concat,
    cyclic_reduce,
    format_letters,
    free_reduce,
    invert,
    letter_support,
    parse_word,
    signed_support,
)

FAMILIES = ("random", "powers", "conjugator", "prefix", "periodic", "tiny")


def letters(rank):
    return st.builds(Letter, st.integers(0, rank - 1), st.sampled_from((1, -1)))


@st.composite
def generators(draw, alphabet, max_len=8):
    """Generator lists from the families that stress folding: random words
    of up to `max_len` letters, the heavy x^n x^(n+1), long conjugators
    around such words, a long shared prefix, periodic words (ab)^k, and
    one-letter or empty words."""
    rank = alphabet.rank
    word = st.lists(letters(rank), max_size=max_len)
    family = draw(st.sampled_from(FAMILIES))
    if family == "random":
        gens = draw(st.lists(word, min_size=1, max_size=3))
    elif family == "powers":
        x = [draw(letters(rank))]
        n = draw(st.integers(1, 40))
        gens = [x * n, x * (n + 1)] + draw(st.lists(word, max_size=1))
    elif family == "conjugator":
        c = draw(st.lists(letters(rank), min_size=5, max_size=30))
        inverse = [l.inverse() for l in reversed(c)]
        gens = [c + w + inverse for w in draw(st.lists(word, min_size=1, max_size=3))]
    elif family == "prefix":
        p = draw(st.lists(letters(rank), min_size=5, max_size=30))
        gens = [p + w for w in draw(st.lists(word, min_size=1, max_size=3))]
    elif family == "periodic":
        u = draw(st.lists(letters(rank), min_size=1, max_size=3))
        gens = [u * draw(st.integers(1, 12)) for _ in range(draw(st.integers(1, 2)))]
    else:
        gens = draw(st.lists(st.lists(letters(rank), max_size=1), min_size=1, max_size=3))
    return [free_reduce(g, alphabet) for g in gens]


@st.composite
def subgroups(draw):
    alphabet = Alphabet.of_rank(draw(st.sampled_from((1, 2, 3))))
    return build_subgroup(draw(generators(alphabet)), alphabet)


@st.composite
def subgroup_pairs(draw):
    alphabet = Alphabet.of_rank(draw(st.sampled_from((1, 2, 3))))
    return tuple(build_subgroup(draw(generators(alphabet)), alphabet) for _ in range(2))


@st.composite
def digraphs(draw):
    """Arbitrary labeled digraphs: loops, parallel edges, isolated vertices
    and several components, with or without a base."""
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, rank - 1)), max_size=20))
    return XDigraph(rank, n, tuple(edges), draw(st.none() | vertex))


def wedge(gens, alphabet):
    """The bouquet of subdivided generator loops that build_subgroup folds."""
    edges, n = [], 1
    for w in gens:
        prev = 0
        for i, l in enumerate(w.letters):
            nxt = 0 if i == len(w) - 1 else n
            n += nxt != 0
            edges.append((prev, nxt, l.gen) if l.sign > 0 else (nxt, prev, l.gen))
            prev = nxt
    return XDigraph(alphabet.rank, n, tuple(edges), 0)


class TestArcTable:
    """Degrees, the folding test, reachability, cycles and tree paths all
    read the one arc table; the oracles read the edges."""

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_degrees_and_folding(self, g):
        assert g.degrees == oracle.degrees(g)
        assert g.is_folded == oracle.is_folded(g)
        if not g.is_folded:
            with pytest.raises(NotFoldedError):
                g.step(0, Letter(0, 1))

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_reach_is_a_component(self, g):
        for comp in oracle.components(g):
            assert g._reach(comp[-1]) == set(comp)

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_cycles(self, g):
        assert has_cycle(g) == oracle.has_cycle(g) == (find_cycle(g) is not None)
        assert find_cycle(g) == oracle.find_cycle(g)

    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_path_word_walks_a_shortest_path(self, g):
        g = fold(g)
        alphabet = Alphabet.of_rank(g.rank)
        distance, queue = {0: 0}, [0]
        for v in queue:
            for _, w, _ in oracle.arcs_from(g, v):
                if w not in distance:
                    distance[w] = distance[v] + 1
                    queue.append(w)
        for v in range(g.vertex_count):
            if v not in distance:
                with pytest.raises(ValueError):
                    path_word(g, 0, v, alphabet)
                continue
            word = path_word(g, 0, v, alphabet)
            assert len(word) == distance[v]
            assert g._walk(0, word.codes) == v


@st.composite
def absorbed_bases(draw):
    """Arbitrary digraphs whose base is not the least vertex of its fold
    class: two more edges with one origin and label end at the base and
    at a smaller vertex."""
    g = draw(digraphs().filter(lambda g: g.vertex_count > 1))
    base = draw(st.integers(1, g.vertex_count - 1))
    other, origin = draw(st.integers(0, base - 1)), draw(st.integers(0, g.vertex_count - 1))
    label = draw(st.integers(0, g.rank - 1))
    extra = ((origin, base, label), (origin, other, label))
    return XDigraph(g.rank, g.vertex_count, g.edges + extra, base)


def long_word(rng, rank, length):
    """A random freely reduced code word of the given length."""
    codes = [rng.randrange(2 * rank)]
    while len(codes) < length:
        c = rng.randrange(2 * rank)
        if c != codes[-1] ^ 1:
            codes.append(c)
    return codes


@st.composite
def heavy_generators(draw, alphabet):
    """Long heavy-folding generator lists: x^n x^(n+1) with n in the
    hundreds, short words under a conjugator of hundreds of letters, and
    words behind a shared prefix of hundreds of letters."""
    rank = alphabet.rank
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(100, 400))
    short = [long_word(rng, rank, rng.randrange(1, 9)) for _ in range(draw(st.integers(1, 3)))]
    family = draw(st.sampled_from(("powers", "conjugator", "prefix")))
    if family == "powers":
        x = [rng.randrange(2 * rank)]
        codes = [x * n, x * (n + 1)]
    elif family == "conjugator":
        c = long_word(rng, rank, n)
        codes = [c + w + [k ^ 1 for k in reversed(c)] for w in short]
    else:
        p = long_word(rng, rank, n)
        codes = [p + w for w in short]
    return [Word._of(alphabet, _reduce(w)) for w in codes]


def rank_and(strategy):
    """(alphabet, a draw of strategy(alphabet)) at ranks 1-3."""
    return st.sampled_from((1, 2, 3)).flatmap(
        lambda r: st.tuples(st.just(Alphabet.of_rank(r)), strategy(Alphabet.of_rank(r))))


class TestFold:
    """Reading words into a folded graph, and pushing a graph's edges
    into it, give what the union-find fold of the wedge or of the edge
    list gave, vertex numbers included."""

    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_arbitrary_digraphs(self, g):
        assert fold(g) == oracle.fold(g) == oracle.union_find_fold(g)

    @settings(max_examples=200, deadline=None)
    @given(absorbed_bases())
    def test_absorbed_base(self, g):
        assert fold(g) == oracle.fold(g) == oracle.union_find_fold(g)

    @settings(max_examples=300, deadline=None)
    @given(rank_and(lambda a: generators(a, 60)))
    def test_generator_wedges(self, case):
        alphabet, gens = case
        g = wedge(gens, alphabet)
        assert fold(g) == oracle.fold(g) == oracle.union_find_fold(g)
        folded = oracle.fold(g)
        # The folded wedge of reduced words is its own core at the base.
        assert folded == oracle.core(folded, folded.base)
        assert build_subgroup(gens, alphabet).graph == folded
        assert oracle.wedge_subgroup(gens, alphabet).graph == folded

    @settings(max_examples=60, deadline=None)
    @given(rank_and(heavy_generators))
    def test_heavy_words(self, case):
        alphabet, gens = case
        expected = oracle.wedge_subgroup(gens, alphabet).graph
        assert build_subgroup(gens, alphabet).graph == expected
        assert fold(wedge(gens, alphabet)) == expected
        codes = [w.codes for w in gens]
        assert _generates(codes, alphabet.rank) == oracle.wedge_generates(codes, alphabet.rank)


@st.composite
def generation_cases(draw):
    """(alphabet, words, known answer or None) at ranks 1-4: random tuples
    of up to rank + 1 words, few of which generate, and bases reached from
    the standard basis by random Nielsen moves, kept whole, with one entry
    squared (a proper subgroup of index two) or with one entry dropped
    (too few words to generate)."""
    rank = draw(st.integers(1, 4))
    alphabet = Alphabet.of_rank(rank)
    if draw(st.booleans()):
        words = draw(st.lists(st.lists(letters(rank), max_size=8), max_size=rank + 1))
        return alphabet, [free_reduce(w, alphabet) for w in words], None
    moves = draw(st.lists(st.sampled_from(_elementary_moves(rank)), max_size=12))
    basis = list(apply_nielsen(moves, alphabet))
    spoil = draw(st.sampled_from(("none", "square", "drop")))
    i = draw(st.integers(0, rank - 1))
    if spoil == "square":
        basis[i] = basis[i] * basis[i]
    elif spoil == "drop":
        del basis[i]
    return alphabet, basis, spoil == "none"


class TestGeneration:
    @settings(max_examples=400, deadline=None)
    @given(generation_cases())
    def test_generation_stops_at_the_fold(self, case):
        alphabet, words, known = case
        expected = oracle.is_rose(build_subgroup(words, alphabet))
        assert known is None or expected == known
        codes = [w.codes for w in words]
        assert _generates(codes, alphabet.rank) == expected
        assert oracle.wedge_generates(codes, alphabet.rank) == expected


class TestPeeling:
    @settings(max_examples=200, deadline=None)
    @given(digraphs(), st.integers(0, 9))
    def test_core_of_arbitrary_digraphs(self, g, v):
        v %= g.vertex_count
        assert core(g, v) == oracle.core(g, v)

    @settings(max_examples=150, deadline=None)
    @given(subgroups())
    def test_type_graph(self, h):
        assert type_graph(h) == oracle.type_graph(h)


class TestProduct:
    @settings(max_examples=150, deadline=None)
    @given(subgroup_pairs())
    def test_intersect_is_core_of_full_product(self, pair):
        h, k = pair
        assert intersect(h, k).graph == oracle.intersect(h, k).graph

    @settings(max_examples=100, deadline=None)
    @given(subgroup_pairs())
    def test_product(self, pair):
        g, h = (x.graph for x in pair)
        assert product(g, h) == oracle.product(g, h)


class TestArcs:
    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_arcs_from(self, g):
        for v in range(g.vertex_count):
            assert g.arcs_from(v) == tuple(oracle.arcs_from(g, v))

    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_bucketed_arc_table(self, g):
        assert g._arcs == oracle.flat_sorted_arcs(g)


@st.composite
def conjugacy_cases(draw):
    """(h, w): a subgroup from the folding families and a word that is
    random, or a conjugate of a rotated generator of h."""
    alphabet = Alphabet.of_rank(draw(st.sampled_from((1, 2, 3))))
    gens = draw(generators(alphabet))
    h = build_subgroup(gens, alphabet)
    seq = draw(st.lists(letters(alphabet.rank), max_size=10))
    if draw(st.booleans()):
        # A conjugate of a rotated generator: the answer is yes, and the
        # conjugator has to undo both.
        g = draw(st.sampled_from(gens)).letters
        r = draw(st.integers(0, len(g)))
        seq = seq + list(g[r:] + g[:r]) + [l.inverse() for l in reversed(seq)]
    return h, free_reduce(seq, alphabet)


class TestConjugacySearch:
    @settings(max_examples=150, deadline=None)
    @given(conjugacy_cases())
    def test_conjugator_into(self, case):
        h, w = case
        expected = oracle.conjugator_into(h, w)
        assert conjugator_into(h, w) == expected
        assert contains_conjugate(h, w) == (expected is not None)

    @settings(max_examples=300, deadline=None)
    @given(conjugacy_cases())
    def test_contains_conjugate_is_a_conjugator_found(self, case):
        # The yes/no test stops at the vertex walk that the conjugator
        # extends into a word.
        h, w = case
        x = conjugator_into(h, w)
        assert contains_conjugate(h, w) == (x is not None)
        assert x is None or contains(h, x * w * ~x)


def least_rotation(seq):
    """The library's rotation on the letters' codes, read back as letters."""
    rotated = _rotated(tuple([l.code for l in seq]))
    return tuple([Letter(c >> 1, -1 if c & 1 else 1) for c in rotated])


@st.composite
def symbol_sequences(draw):
    """Sequences of 0-40 symbols from an alphabet of 1-4: arbitrary ones,
    and rotations of a repeated unit of 1-4 symbols."""
    symbols = st.integers(0, draw(st.integers(1, 4)) - 1)
    if draw(st.booleans()):
        return tuple(draw(st.lists(symbols, max_size=40)))
    unit = draw(st.lists(symbols, min_size=1, max_size=4))
    seq = unit * draw(st.integers(1, 40 // len(unit)))
    shift = draw(st.integers(0, len(seq) - 1))
    return tuple(seq[shift:] + seq[:shift])


class TestLeastRotation:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda r: st.lists(letters(r), max_size=30)))
    def test_arbitrary_sequences(self, seq):
        assert least_rotation(tuple(seq)) == oracle.least_rotation(tuple(seq))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda r: st.lists(letters(r), min_size=1, max_size=4)),
        st.integers(1, 10),
        st.integers(0, 40),
    )
    def test_periodic_sequences(self, unit, k, shift):
        seq = tuple(unit * k)
        seq = seq[shift % len(seq):] + seq[: shift % len(seq)]
        assert least_rotation(seq) == oracle.least_rotation(seq)

    @settings(max_examples=500, deadline=None)
    @given(symbol_sequences())
    def test_scan_starts_where_booth_does(self, keys):
        assert _least_rotation_start(keys) == oracle.booth_least_rotation_start(keys)

    @pytest.mark.parametrize(
        "keys,start",
        [
            ((0,) * 4095 + (2,), 0),
            ((2,) + (0,) * 4095, 1),
            ((0, 2) * 2048, 0),
            ((0, 0, 2) * 1365, 0),
            ((0,) * 4096, 0),
        ],
        ids=["a^4095 b", "b a^4095", "(ab)^2048", "(aab)^1365", "a^4096"],
    )
    def test_scan_starts_where_booth_does_on_long_words(self, keys, start):
        # One letter runs, periods of two and three letters, and the
        # all-equal word, where every start ties and the first is returned.
        assert _least_rotation_start(keys) == oracle.booth_least_rotation_start(keys) == start


def check_kernel(t, w):
    """t applied to the reduced word w and to its cyclic word, by the code
    kernel, equals the letter-by-letter oracle."""
    assert t.apply_to_word(w).letters == oracle.whitehead_word(t, w)
    c = CyclicWord.from_word(w)
    expected = oracle.whitehead_cyclic(t, c)
    # _cyclic_image leaves the rotation to its caller: canonically
    # rotated, and so checked cyclically reduced, it is the oracle's.
    image = _cyclic_image(t._code_images, c.codes)
    assert CyclicWord._of(c.alphabet, image).codes == tuple(l.code for l in expected)
    assert t.apply_to_cyclic(c).letters == expected


def reduced_words(alphabet, max_len):
    out, layer = [Word(alphabet)], [()]
    for _ in range(max_len):
        layer = [
            seq + (l,)
            for seq in layer
            for l in (Letter(g, s) for g in range(alphabet.rank) for s in (1, -1))
            if not (seq and seq[-1] == l.inverse())
        ]
        out.extend(Word(alphabet, seq) for seq in layer)
    return out


kernel_cases = st.sampled_from((2, 3)).flatmap(
    lambda r: st.lists(letters(r), max_size=12).map(lambda s: (r, s)))


class TestRelabeling:
    @settings(max_examples=60, deadline=None)
    @given(kernel_cases)
    def test_matches_apply_to_cyclic(self, case):
        rank, seq = case
        w = free_reduce(seq, Alphabet.of_rank(rank))
        for t in enumerate_relabelings(rank):
            check_kernel(t, w)


class TestMultiplierKernel:
    @settings(max_examples=60, deadline=None)
    @given(kernel_cases)
    def test_every_multiplier(self, case):
        rank, seq = case
        w = free_reduce(seq, Alphabet.of_rank(rank))
        for t in enumerate_whitehead(rank):
            check_kernel(t, w)

    def test_every_short_word(self):
        # Every reduced word of length <= 4 at rank 2, and single letters
        # and the empty word at rank 3, under every automorphism.
        for rank, max_len in ((2, 4), (3, 1)):
            alphabet = Alphabet.of_rank(rank)
            autos = enumerate_whitehead(rank) + enumerate_relabelings(rank)
            for w in reduced_words(alphabet, max_len):
                for t in autos:
                    check_kernel(t, w)

    def test_whole_images_cancel_at_junctions(self):
        a2, a3 = Alphabet.of_rank(2), Alphabet.of_rank(3)
        keep, right, conj = Action.KEEP, Action.RIGHT, Action.CONJ
        # b -> ba, so the image A of the second letter cancels in full.
        t = WhiteheadAut.multiplier(2, Letter(0, 1), (keep, right))
        assert str(t.apply_to_word(parse_word("bA", a2))) == "b"
        # b -> Aba and c -> Aca: a whole conjugator cancels between them.
        t = WhiteheadAut.multiplier(3, Letter(0, 1), (keep, conj, conj))
        assert str(t.apply_to_word(parse_word("bC", a3))) == "AbCa"
        assert str(t.apply_to_cyclic(CyclicWord.from_word(parse_word("bC", a3)))) == "bC"
        for text, alphabet in (("bA", a2), ("bC", a3), ("bCbC", a3), ("aBAb", a3)):
            w = parse_word(text, alphabet)
            for t in enumerate_whitehead(alphabet.rank):
                check_kernel(t, w)


@st.composite
def descent_tuples(draw):
    """One to three cyclic words of up to 20 letters at ranks 2-5."""
    rank = draw(st.sampled_from((2, 3, 4, 5)))
    alphabet = Alphabet.of_rank(rank)
    words = draw(st.lists(st.lists(letters(rank), min_size=1, max_size=20), min_size=1, max_size=3))
    return tuple(CyclicWord.from_word(free_reduce(w, alphabet)) for w in words)


@st.composite
def words_and_letter_images(draw):
    """A random cyclic word at ranks 1-5, or the image of a letter under
    1-12 random multiplier automorphisms, which is primitive."""
    rank = draw(st.integers(1, 5))
    alphabet = Alphabet.of_rank(rank)
    if draw(st.booleans()):
        word = free_reduce(draw(st.lists(letters(rank), min_size=1, max_size=20)), alphabet)
    else:
        codes = [draw(st.integers(0, 2 * rank - 1))]
        for _ in range(draw(st.integers(1, 12))):
            m = draw(st.integers(0, 2 * rank - 1))
            actions = draw(st.lists(st.sampled_from(Action), min_size=rank, max_size=rank))
            actions[m >> 1] = Action.KEEP
            codes = _free_image(_multiplier_images(m, actions), codes)
        word = Word._of(alphabet, codes)
    return CyclicWord.from_word(word)


class TestDescent:
    @settings(max_examples=200, deadline=None)
    @given(words_and_letter_images())
    def test_cut_descent_reaches_the_scans_minimal_length(self, w):
        # Both descents shorten strictly, so both stop at the orbit's
        # minimum, though not always at the same tuple.
        assume(len(w) > 0)
        cut = whitehead._cut_descent([w.codes], w.alphabet.rank)
        length = total_length(minimize_tuple((w,))[0])
        assert sum(map(len, cut)) == length
        assert is_primitive(w.as_word()) == (length == 1)

    @settings(max_examples=80, deadline=None)
    @given(descent_tuples())
    def test_cut_descent_on_tuples(self, ws):
        cut = whitehead._cut_descent([w.codes for w in ws], ws[0].alphabet.rank)
        assert sum(map(len, cut)) == total_length(minimize_tuple(ws)[0])

    @settings(max_examples=80, deadline=None)
    @given(descent_tuples(), st.integers(-3, 0))
    def test_scan_matches_the_offsets_layout(self, ws, bound):
        # One `bytes` of cells per candidate scores, and prunes, exactly
        # as the concatenated cells sliced by an offsets array did.
        words, rank = [w.codes for w in ws], ws[0].alphabet.rank
        assert list(whitehead._length_changes(words, rank, bound)) == list(
            oracle.length_changes(words, rank, bound)
        )

    @settings(max_examples=80, deadline=None)
    @given(descent_tuples())
    def test_matches_the_automorphism_descent(self, ws):
        # Both the minimal tuple and the automorphisms taken, in order.
        assert minimize_tuple(ws) == oracle.whitehead_descent(ws)

    def test_flipped_multiplier_inverts(self):
        # Every multiplier automorphism at ranks 2-4: the images with the
        # multiplier's sign flipped are the public inverse's, and they
        # send each letter's forward image back to the letter.
        for rank in (2, 3, 4):
            for m in range(2 * rank):
                for code in range(1, 4 ** (rank - 1)):
                    actions = _actions(rank, m >> 1, code)
                    forward = _multiplier_images(m, actions)
                    back = _multiplier_images(m ^ 1, actions)
                    assert back == _multiplier(rank, m, code).inverse()._code_images
                    for c in range(2 * rank):
                        assert _free_image(back, forward[c]) == [c]


@st.composite
def nielsen_targets(draw):
    """A basis reached from the standard one by 0-10 random moves."""
    rank = draw(st.sampled_from((1, 2, 3, 4)))
    alphabet = Alphabet.of_rank(rank)
    moves = draw(st.lists(st.sampled_from(_elementary_moves(rank)), max_size=10))
    return rank, apply_nielsen(moves, alphabet)


def pair_key(words):
    return tuple(tuple((l.gen, l.sign) for l in w.letters) for w in words)


def resident(rank, depth):
    """Cut the rank's shared ball back, or grow it, to `depth` layers
    past its root, with no backward work counted toward deepening it."""
    ball = _ball(rank)
    ball.spent = 0
    ball.settle(min(depth, len(ball.layers) - 1), 0)
    while len(ball.layers) <= depth:
        ball.grow()
    return ball


def search(target, rank, budget, depth=0):
    """_bidirectional_search under a NIELSEN_BUDGET of `budget`, on a
    shared ball holding `depth` layers past its root."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(whitehead, "NIELSEN_BUDGET", budget)
        resident(rank, depth)
        return _bidirectional_search(target, rank)


# The most layers a rank's shared ball holds within BALL_STATES (the
# rank-1 ball ends in an empty layer).
DEEPEST = {1: 2, 2: 6, 3: 4, 4: 3}


class TestNielsenSearch:
    # Large enough that most targets are found, small enough that the
    # oracle stays fast on the ones that are not.
    BUDGET = 30_000

    def check_depths(self, rank, words, budget):
        """The path at resident depths 0, 2 and 4 (the deepest, where a
        rank's ball stops short of 4) is the oracle's at that depth; at
        every depth a ball of the rank can hold, the search finds one of
        the same length, and it finds one whenever a fresh ball does."""
        target = tuple(w.codes for w in words)
        found = {d: search(target, rank, budget, d) for d in range(DEEPEST[rank] + 1)}
        for d in {0, 2, min(4, DEEPEST[rank])}:
            assert found[d] == oracle.bidirectional_search(pair_key(words), rank, budget, d)
        lengths = {None if m is None else len(m) for m in found.values()}
        assert len(lengths - {None}) <= 1
        if found[0] is not None:
            assert lengths == {len(found[0])}
        for moves in found.values():
            assert moves is None or apply_nielsen(moves, words[0].alphabet) == words

    @settings(max_examples=60, deadline=None)
    @given(nielsen_targets())
    def test_matches_pair_keyed_search(self, case):
        rank, words = case
        self.check_depths(rank, words, self.BUDGET)

    @settings(max_examples=80, deadline=None)
    @given(nielsen_targets(), st.integers(0, 300))
    def test_small_budgets_run_out_together(self, case, budget):
        rank, words = case
        self.check_depths(rank, words, budget)

    # A rank-3 basis whose search runs out of a budget of 100,000 states.
    DEEP = ("abcabcbAc", "bcaBc", "cAbbc")

    @staticmethod
    def random_targets(seed, count):
        """(rank, basis) pairs at ranks 2-4, each 0-12 random moves out."""
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            rank = rng.choice((2, 3, 4))
            moves = _elementary_moves(rank)
            out.append((rank, apply_nielsen(rng.choices(moves, k=rng.randint(0, 12)), Alphabet.of_rank(rank))))
        return out

    @staticmethod
    def check_consistent(ball):
        assert len(ball.links) == sum(map(len, ball.layers))

    def test_a_warm_or_trimmed_ball_changes_nothing(self):
        # The deep search runs out of budget on a fresh ball and on one
        # at its deepest, and leaves no layer it grew past them.  Then
        # each batch searches on the ball the searches before it left,
        # which deepens as they spend backward work, and each path is
        # the oracle's at the depth the ball held at the call.
        _ball.cache_clear()
        deep = tuple(parse_word(t, Alphabet.of_rank(3)).codes for t in self.DEEP)
        for depth in (0, 4):
            assert search(deep, 3, 100_000, depth) is None
            ball = _ball(3)
            assert len(ball.layers) - 1 in (depth, depth + 1)
            self.check_consistent(ball)
        _ball.cache_clear()
        seen = set()
        for budget in (self.BUDGET, 300, 7, 0):
            for rank, words in self.random_targets(budget, 12):
                depth = len(_ball(rank).layers) - 1
                seen.add((rank, depth))
                expected = oracle.bidirectional_search(pair_key(words), rank, budget, depth)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(whitehead, "NIELSEN_BUDGET", budget)
                    assert _bidirectional_search(tuple(w.codes for w in words), rank) == expected
                self.check_consistent(_ball(rank))
        assert max(depth for _, depth in seen) >= 2

    def test_an_interrupted_layer_is_dropped(self, monkeypatch):
        # Growing layer 2 of the rank-3 ball fails after three of the
        # nine states of layer 1 have been expanded.  The search's
        # backward work deepens the ball to layer 1, which was complete.
        _ball.cache_clear()
        cases = self.random_targets(4, 8)
        real, grown = whitehead._successors, []

        def failing(state, moves, invert, forward):
            if forward:
                grown.append(state)
            if len(grown) > 1 + 3:
                raise RuntimeError("interrupted")
            return real(state, moves, invert, forward)

        monkeypatch.setattr(whitehead, "_successors", failing)
        deep = tuple(parse_word(t, Alphabet.of_rank(3)).codes for t in self.DEEP)
        with pytest.raises(RuntimeError, match="interrupted"):
            search(deep, 3, self.BUDGET)
        monkeypatch.setattr(whitehead, "_successors", real)
        assert len(_ball(3).links) == sum(map(len, _ball(3).layers)) == 10
        self.check_consistent(_ball(3))
        for rank, words in cases:
            depth = len(_ball(rank).layers) - 1
            expected = oracle.bidirectional_search(pair_key(words), rank, self.BUDGET, depth)
            assert search(tuple(w.codes for w in words), rank, self.BUDGET, depth) == expected

    def test_a_layer_stops_at_the_budget(self, monkeypatch):
        # On a fresh rank-5 ball the third layer would pass a budget of
        # 1,000 states about eightfold and meet the target inside it.
        # The search stops in that layer and drops it, so no state is
        # expanded while more than the budget is held.
        monkeypatch.setattr(whitehead, "NIELSEN_BUDGET", 1_000)
        _ball.cache_clear()
        forward, balls, held = _ball(5), [], []

        class Backward(whitehead._Ball):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                balls.append(self)

        real = whitehead._successors

        def counting(state, moves, inverses, go_forward):
            held.append(len(forward.links) - 1 + sum(len(b.links) for b in balls))
            return real(state, moves, inverses, go_forward)

        monkeypatch.setattr(whitehead, "_Ball", Backward)
        monkeypatch.setattr(whitehead, "_successors", counting)
        target = tuple(parse_word(t, Alphabet.of_rank(5)).codes for t in ("abc", "bcd", "cde", "d", "e"))
        try:
            assert _bidirectional_search(target, 5) is None
            assert 900 < max(held) <= 1_000
            self.check_consistent(balls[0])
        finally:
            _ball.cache_clear()

    @pytest.mark.parametrize("move", [
        NielsenTransformation.invert(128),
        NielsenTransformation.right_multiply(128, 0),
        NielsenTransformation.right_multiply(3, 128),
    ])
    def test_rank_129_states_hold_tuples(self, move):
        # Codes 256 and 257 do not fit a byte, so these states are tuples.
        alphabet = Alphabet.of_rank(129)
        words = apply_nielsen([move], alphabet)
        expected = oracle.bidirectional_search(pair_key(words), 129, self.BUDGET)
        try:
            assert search(tuple(w.codes for w in words), 129, self.BUDGET) == expected == [move]
            assert isinstance(_ball(129).root[0], tuple)
        finally:
            _ball.cache_clear()

    def test_concurrent_searches_share_the_ball(self, monkeypatch):
        # The searches deepen the shared ball while the others wait to
        # read or grow it, so each path is the oracle's at one of the
        # depths the ball passed through.
        monkeypatch.setattr(whitehead, "NIELSEN_BUDGET", 1_000)
        cases = [(rank, words, tuple(w.codes for w in words)) for rank, words in self.random_targets(3, 16)]
        _ball.cache_clear()
        found = {}

        def searches(k):
            for i in list(range(k, len(cases))) + list(range(k)):
                rank, _, target = cases[i]
                found[k, i] = _bidirectional_search(target, rank)

        threads = [threading.Thread(target=searches, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        reached = {rank: len(_ball(rank).layers) - 1 for rank, _, _ in cases}
        assert max(reached.values()) >= 2
        for (k, i), moves in found.items():
            rank, words, _ = cases[i]
            expected = [oracle.bidirectional_search(pair_key(words), rank, 1_000, d) for d in range(reached[rank] + 1)]
            assert moves in expected
            assert len({len(m) for m in expected if m is not None}) <= 1
        for rank in reached:
            self.check_consistent(_ball(rank))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_join_is_free_reduction(self, data):
        alphabet = Alphabet.of_rank(data.draw(st.sampled_from((1, 2, 3))))
        word = st.lists(letters(alphabet.rank), max_size=10)
        u = free_reduce(data.draw(word), alphabet)
        v = free_reduce(data.draw(word), alphabet)
        if data.draw(st.booleans()):
            # Cancel a suffix of u, or all of it, and maybe more.
            cut = data.draw(st.integers(0, len(u)))
            v = ~Word(alphabet, u.letters[cut:]) * v
        joined = Word._of(alphabet, _join(u.codes, v.codes)).letters
        expected = oracle.signed_join(oracle.signed_code(u.letters), oracle.signed_code(v.letters))
        assert oracle.signed_code(joined) == expected


class TestRebaseImages:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_image_tuples_match_the_move_replay(self, data):
        # The rebase sends the standard letters to apply_nielsen(moves).
        # Its inverse replays the moves of the basis's Nielsen reduction,
        # but the automorphism and its inverse are fixed by the basis, so
        # they agree with replaying the drawn moves one letter
        # substitution at a time, and at ranks 2-3 with the inverse
        # replayed from the shortest search's moves.
        rank = data.draw(st.integers(2, 6))
        alphabet = Alphabet.of_rank(rank)
        moves = data.draw(st.lists(st.sampled_from(_elementary_moves(rank)), max_size=16))
        basis = apply_nielsen(moves, alphabet)
        forward, back = ellipticity._rebase_moves(alphabet, basis)
        w = free_reduce(data.draw(st.lists(letters(rank), max_size=12)), alphabet)
        assert _word_image(forward, w) == oracle.moves_apply_word(moves, w)
        assert _word_image(back, w) == oracle.moves_apply_word_inverse(moves, w)
        if rank <= 3:
            searched = whitehead._decompose_basis(codes(basis), rank)
            assert back == _images(_replay(searched, rank, forward=False))


def replayed(moves, rank):
    """The replay both ways, as tuples of code tuples."""
    return [tuple(map(tuple, _replay(moves, rank, forward))) for forward in (True, False)]


def codes(words):
    return tuple(w.codes for w in words)


class TestReplay:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_word_products(self, data):
        # Forward, the replay builds the basis that one Word product per
        # move builds; backward, it gives the inverse automorphism's
        # images of the letters, which the per-move substitution and the
        # three-move expansion of each rmul give too.
        rank = data.draw(st.integers(1, 4))
        alphabet = Alphabet.of_rank(rank)
        moves = data.draw(st.lists(st.sampled_from(_elementary_moves(rank)), max_size=12))
        forward, backward = replayed(moves, rank)
        assert forward == codes(oracle.apply_moves(moves, alphabet))
        assert backward == codes(oracle.moves_apply_word_inverse(moves, x) for x in standard_basis(alphabet))
        assert backward == codes(oracle.apply_moves(oracle.undo_moves(moves), alphabet))
        assert apply_nielsen(moves, alphabet) == oracle.apply_moves(moves, alphabet)

    def test_rank_129_words_are_tuples(self):
        # Codes 256 and up do not fit a byte, so these words are tuples.
        alphabet = Alphabet.of_rank(129)
        rmul, inv = NielsenTransformation.right_multiply, NielsenTransformation.invert
        moves = [rmul(128, 0), inv(0), rmul(3, 128), rmul(0, 3), inv(128)]
        assert all(isinstance(w, tuple) for w in _replay(moves, 129))
        forward, backward = replayed(moves, 129)
        assert forward == codes(oracle.apply_moves(moves, alphabet))
        assert backward == codes(oracle.moves_apply_word_inverse(moves, x) for x in standard_basis(alphabet))

    @pytest.mark.parametrize("rank", [3, 600])
    def test_inverts_one_entry_per_move(self, monkeypatch, rank):
        # A move reads at most one inverse, so replaying m moves inverts
        # at most m words, not every entry at every move.
        alphabet = Alphabet.of_rank(rank)
        rmul, inv = NielsenTransformation.right_multiply, NielsenTransformation.invert
        moves = [rmul(rank - 1, 0), inv(0), rmul(rank // 2, rank - 1), rmul(0, rank // 2)]
        pack, invert = whitehead._packing(rank)
        calls = []

        def counting(w):
            calls.append(w)
            return invert(w)

        monkeypatch.setattr(whitehead, "_packing", lambda r: (pack, counting))
        for forward in (True, False):
            calls.clear()
            expected = oracle.apply_moves(moves, alphabet) if forward else tuple(
                oracle.moves_apply_word_inverse(moves, x) for x in standard_basis(alphabet))
            assert tuple(map(tuple, _replay(moves, rank, forward))) == codes(expected)
            assert len(calls) <= len(moves)

    def test_builds_no_move_table_or_ball(self):
        # At rank 600 the move table holds 360,000 moves, and a ball
        # around the standard basis would grow from it.
        alphabet = Alphabet.of_rank(600)
        rmul, inv = NielsenTransformation.right_multiply, NielsenTransformation.invert
        moves = [rmul(599, 0), inv(0), rmul(300, 599), rmul(0, 300)]
        tables, balls = _rank_ops.cache_info().currsize, _ball.cache_info().currsize
        assert apply_nielsen(moves, alphabet) == oracle.apply_moves(moves, alphabet)
        assert (_rank_ops.cache_info().currsize, _ball.cache_info().currsize) == (tables, balls)


def parsed(text, alphabet, parse):
    try:
        return parse(text, alphabet)
    except WordFormatError as e:
        return str(e)


def parse_letters(text, alphabet):
    letters = _arc_letters(alphabet.rank)
    return [letters[c] for c in _parse_codes(text, alphabet)]


class TestParse:
    # Names, their inverses, letters outside the alphabet and characters
    # whose case mapping is not ASCII: KELVIN SIGN lowercases to "k", the
    # dotted capital I to two characters, sharp s has no uppercase.
    CHARS = "abcdkABCDK1 -\u212a\u0130\u00df\u00e9\u0391"

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((1, 2, 4, 11)), st.text(CHARS, max_size=8) | st.just("1"))
    def test_matches_per_character_parse(self, rank, text):
        alphabet = Alphabet.of_rank(rank)
        assert parsed(text, alphabet, parse_letters) == parsed(
            text, alphabet, oracle.parse_letters
        )

    def test_kelvin_sign_is_an_inverse(self):
        assert parse_letters("a\u212a", Alphabet.of_rank(11)) == [Letter(0, 1), Letter(10, -1)]

    def test_named_alphabet_rejected(self):
        alphabet = Alphabet(("x0", "x1"))
        assert parsed("a", alphabet, parse_letters) == parsed("a", alphabet, oracle.parse_letters)


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


@st.composite
def raw_sequences(draw):
    """A rank and a letter sequence over it, unreduced, sometimes with one
    letter outside the alphabet: a generator past the rank, a negative
    one, or a sign other than +1 and -1."""
    rank = draw(st.sampled_from((1, 2, 3)))
    seq = draw(st.lists(letters(rank), max_size=12))
    if draw(st.integers(0, 4)) == 0:
        bad = Letter(draw(st.sampled_from((-1, rank))), 1)
        bad = draw(st.sampled_from((bad, Letter(0, 0), Letter(0, 2))))
        seq.insert(draw(st.integers(0, len(seq))), bad)
    return Alphabet.of_rank(rank), seq


class TestCodedWords:
    """Word and CyclicWord store vertex codes; the Letter-keyed oracles
    see the same letters, the same text and the same errors."""

    @settings(max_examples=300, deadline=None)
    @given(raw_sequences())
    def test_free_reduce(self, case):
        alphabet, seq = case
        assert outcome(lambda: free_reduce(seq, alphabet).letters) == outcome(
            lambda: tuple(oracle.reduce_letters(oracle.check_letters(seq, alphabet.rank)))
        )

    @settings(max_examples=300, deadline=None)
    @given(raw_sequences())
    def test_constructors(self, case):
        alphabet, seq = case
        rank = alphabet.rank
        assert outcome(lambda: Word(alphabet, seq).letters) == outcome(
            oracle.word_letters, seq, rank
        )
        assert outcome(lambda: CyclicWord(alphabet, seq).letters) == outcome(
            oracle.cyclic_letters, seq, rank
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_concat_invert_cyclic_reduce(self, data):
        alphabet = Alphabet.of_rank(data.draw(st.sampled_from((1, 2, 3))))
        word = st.lists(letters(alphabet.rank), max_size=10)
        u = free_reduce(data.draw(word), alphabet)
        v = free_reduce(data.draw(word), alphabet)
        assert concat(u, v).letters == tuple(oracle.reduce_letters(u.letters + v.letters))
        assert invert(u).letters == tuple(l.inverse() for l in reversed(u.letters))
        c, x = cyclic_reduce(u)
        assert (c.letters, x.letters) == oracle.cyclic_reduce(u.letters)
        assert CyclicWord.from_word(u) == c
        assert letter_support(u) == {l.gen for l in u.letters}
        assert signed_support(c) == set(c.letters)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((1, 2, 3)).flatmap(lambda r: st.lists(letters(r), max_size=10)))
    def test_format(self, seq):
        for alphabet in (Alphabet.of_rank(3), Alphabet(("x0", "x1", "x2"))):
            w = free_reduce(seq, alphabet)
            expected = oracle.format_letters(w.letters, alphabet)
            assert str(w) == format_letters(w.letters, alphabet) == expected
            c = CyclicWord.from_word(w)
            assert str(c) == oracle.format_letters(c.letters, alphabet)


def test_cli_usage_error_between_valid_calls():
    # The parser is built once per process, so one call must not leak
    # state into the next.
    valid = ["graph", "-n", "2", "aab bab"]
    first = run(valid)
    assert first[0] == 0 and first[1]
    code, out, err = run(["graph", "-n", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: fgt graph") and "error:" in err
    assert run(valid) == first
    assert run(["graph", "-n", "2"]) == (code, out, err)
    assert run(["--help"]) == run(["--help"])
