import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from freegroups.cli import run

from freegroups.stallings import (
    AlphabetMismatchError,
    GraphFormatError,
    NotFoldedError,
    Subgroup,
    XDigraph,
    build_subgroup,
    conjugate_subgroups,
    conjugator_into,
    contains,
    contains_conjugate,
    core,
    digraph_isomorphic,
    find_cycle,
    fold,
    graph_from_text,
    graph_to_dot,
    graph_to_text,
    has_cycle,
    intersect,
    path_word,
    product,
    spanning_tree_basis,
    type_graph,
)
from freegroups.words import Alphabet, Letter, Word, free_reduce, parse_word

A2 = Alphabet.of_rank(2)
A3 = Alphabet.of_rank(3)


def sub(text, alphabet=A2):
    return build_subgroup([parse_word(t, alphabet) for t in text.split()], alphabet)


def all_reduced_words(alphabet, max_len):
    # Every freely reduced word of length <= max_len, including the empty one.
    letters = [Letter(g, s) for g in range(alphabet.rank) for s in (1, -1)]
    words = [Word(alphabet)]
    layer = [()]
    for _ in range(max_len):
        nxt = []
        for seq in layer:
            for l in letters:
                if seq and seq[-1] == l.inverse():
                    continue
                nxt.append(seq + (l,))
        words.extend(Word(alphabet, seq) for seq in nxt)
        layer = nxt
    return words


def generated_elements(gens, alphabet, max_factors):
    # Oracle: all products of at most max_factors generators or inverses.
    factors = [g for g in gens] + [~g for g in gens]
    elems = {Word(alphabet)}
    layer = {Word(alphabet)}
    for _ in range(max_factors):
        nxt = set()
        for w in layer:
            for f in factors:
                nxt.add(w * f)
        layer = nxt - elems
        elems |= nxt
    return elems


def random_word(rng, alphabet, max_len):
    letters = [
        Letter(rng.randrange(alphabet.rank), rng.choice((1, -1)))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return free_reduce(letters, alphabet)


def random_subgroup(rng, alphabet, max_gens=3, max_len=5):
    gens = [random_word(rng, alphabet, max_len) for _ in range(1 + rng.randrange(max_gens))]
    return build_subgroup(gens, alphabet), gens


class TestBuild:
    def test_conjugate_loop(self):
        h = sub("baB")
        assert h.graph.vertex_count == 2
        assert h.graph.edges == ((0, 1, 1), (1, 1, 0))
        assert h.base == 0

    def test_powers_fold_together(self):
        h = sub("aa aaa")
        assert h.graph.vertex_count == 1
        assert h.graph.edges == ((0, 0, 0),)

    def test_trivial_subgroup(self):
        h = build_subgroup([], A2)
        assert h.is_trivial
        assert h.graph.vertex_count == 1
        trivial_gen = build_subgroup([parse_word("1", A2)], A2)
        assert trivial_gen.is_trivial

    def test_full_rose(self):
        h = sub("a b")
        assert h.graph.vertex_count == 1
        assert h.graph.edges == ((0, 0, 0), (0, 0, 1))

    @pytest.mark.parametrize("texts", ["baB", "aa aaa", "a b", "abA bab", "1"])
    def test_builds_one_graph(self, monkeypatch, texts):
        # The folded wedge is already the core, so the quotient is the
        # only graph made.
        built = []
        original = XDigraph.__post_init__
        monkeypatch.setattr(XDigraph, "__post_init__", lambda g: built.append(g) or original(g))
        h = sub(texts)
        assert len(built) == 1 and built[0] == h.graph

    def test_free_rank(self):
        assert sub("a b").free_rank == 2
        assert sub("baB").free_rank == 1
        assert build_subgroup([], A2).free_rank == 0
        assert sub("aa ab ba").free_rank == 3


class TestFold:
    def test_fold_idempotent_on_random_wedges(self):
        rng = random.Random(5)
        for _ in range(50):
            h, _ = random_subgroup(rng, A2)
            assert fold(h.graph) == h.graph

    def test_fold_result_independent_of_generator_order(self):
        rng = random.Random(9)
        for _ in range(50):
            gens = [random_word(rng, A2, 5) for _ in range(3)]
            h1 = build_subgroup(gens, A2)
            h2 = build_subgroup(gens[::-1], A2)
            assert digraph_isomorphic(h1.graph, h2.graph, bases=(h1.base, h2.base))

    def test_folded_flag(self):
        unfolded = XDigraph(2, 3, ((0, 1, 0), (0, 2, 0)))
        assert not unfolded.is_folded
        assert fold(unfolded).is_folded
        with pytest.raises(NotFoldedError):
            unfolded.step(0, Letter(0, 1))


class TestCore:
    def test_peels_dead_branch(self):
        # a-loop at base plus a dangling b-edge.
        g = XDigraph(2, 2, ((0, 0, 0), (0, 1, 1)), base=0)
        c = core(g, 0)
        assert c.vertex_count == 1
        assert c.edges == ((0, 0, 0),)

    def test_keeps_hanging_path_to_base(self):
        h = sub("baB")
        assert core(h.graph, h.base) == h.graph

    def test_restricts_to_base_component(self):
        g = XDigraph(2, 2, ((0, 0, 0), (1, 1, 1)), base=0)
        c = core(g, 0)
        assert c.vertex_count == 1 and c.edges == ((0, 0, 0),)


class TestMembership:
    def test_examples(self):
        h = sub("baB")
        assert contains(h, parse_word("baB", A2))
        assert contains(h, parse_word("baaB", A2))
        assert not contains(h, parse_word("a", A2))
        assert not contains(h, parse_word("ba", A2))
        assert contains(h, parse_word("1", A2))

    def test_even_powers(self):
        h = sub("aa")
        for k in range(-6, 7):
            w = parse_word("a" * k if k >= 0 else "A" * -k, A2)
            assert contains(h, w) == (k % 2 == 0)

    def test_subrose_membership_is_support(self):
        h = sub("a b", A3)
        for w in all_reduced_words(A3, 4):
            assert contains(h, w) == (2 not in {l.gen for l in w.letters})

    def test_generated_elements_are_members(self):
        rng = random.Random(21)
        for _ in range(30):
            h, gens = random_subgroup(rng, A2)
            for w in generated_elements(gens, A2, 3):
                assert contains(h, w)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            contains(sub("a"), parse_word("a", A3))


class TestConjugateMembership:
    def test_examples(self):
        h = sub("baB")
        assert contains_conjugate(h, parse_word("a", A2))
        assert contains_conjugate(h, parse_word("bbaBB", A2))
        assert not contains_conjugate(h, parse_word("b", A2))
        h2 = sub("aa")
        assert contains_conjugate(h2, parse_word("baaB", A2))
        assert not contains_conjugate(h2, parse_word("a", A2))

    def test_matches_explicit_conjugation(self):
        rng = random.Random(33)
        for _ in range(40):
            h, _ = random_subgroup(rng, A2, max_gens=2, max_len=4)
            w = random_word(rng, A2, 4)
            brute = any(
                contains(h, x * w * ~x) for x in all_reduced_words(A2, 3)
            )
            if brute:
                assert contains_conjugate(h, w)
            # the library answer may use a longer conjugator than the
            # brute-force bound, so only the positive direction is exact

    def test_conjugator_recovery(self):
        rng = random.Random(43)
        for _ in range(60):
            h, _ = random_subgroup(rng, A2, max_gens=2, max_len=4)
            w = random_word(rng, A2, 5)
            x = conjugator_into(h, w)
            if contains_conjugate(h, w):
                assert x is not None
                assert contains(h, x * w * ~x)
            else:
                assert x is None

    def test_conjugator_for_unreduced_word(self):
        h = sub("aab")
        w = parse_word("Baabb", A2)  # b^-1 (aab) b up to rotation
        x = conjugator_into(h, w)
        assert x is not None and contains(h, x * w * ~x)


class TestTypeGraph:
    def test_strips_hanging_path(self):
        t = type_graph(sub("baB"))
        assert t.vertex_count == 1
        assert t.edges == ((0, 0, 0),)
        assert t.base is None

    def test_identity_when_base_degree_not_one(self):
        h = sub("a b")
        assert type_graph(h) == h.graph.with_base(None)

    def test_trivial(self):
        t = type_graph(build_subgroup([], A2))
        assert t.vertex_count == 1 and not t.edges

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(40):
            h, _ = random_subgroup(rng, A2)
            t = type_graph(h)
            if t.vertex_count == 0:
                continue
            again = type_graph(Subgroup(t.with_base(0), A2))
            assert again == t


class TestWithBase:
    def test_copy_shares_tables_equal_to_fresh_ones(self):
        rng = random.Random(71)
        for _ in range(30):
            g = random_subgroup(rng, A3)[0].graph
            assert g._steps is not None  # build every table on g first
            copy = g.with_base(None)
            fresh = XDigraph(g.rank, g.vertex_count, g.edges, None)
            assert copy == fresh
            for name in ("_arcs", "degrees", "_steps", "is_folded"):
                assert copy.__dict__[name] is g.__dict__[name]
                assert getattr(copy, name) == getattr(fresh, name)

    def test_copy_of_an_unbuilt_graph_builds_its_own(self):
        g = XDigraph(2, 2, ((0, 1, 0), (1, 1, 1)), 0)
        copy = g.with_base(1)
        assert "_arcs" not in copy.__dict__
        assert copy.degrees == (1, 3) and "_arcs" not in g.__dict__

    def test_type_and_conjugate_output_unchanged(self, monkeypatch):
        rng = random.Random(73)
        requests = []
        for _ in range(20):
            gens = [random_word(rng, A2, 6) for _ in range(2)]
            x = random_word(rng, A2, 4)
            text = " ".join(map(str, gens))
            conjugated = " ".join(str(x * w * ~x) for w in gens)
            other = " ".join(str(random_word(rng, A2, 6)) for _ in range(2))
            requests.append(["type", "-n", "2", text])
            requests.append(["conjugate", "-n", "2", text, conjugated])
            requests.append(["conjugate", "-n", "2", text, other])
        shared = [run(argv) for argv in requests]

        def unshared(g, v):  # a copy that builds its own tables
            return XDigraph(g.rank, g.vertex_count, g.edges, v)

        monkeypatch.setattr(XDigraph, "with_base", unshared)
        assert [run(argv) for argv in requests] == shared


class TestProductIntersect:
    def test_power_product_is_six_cycle(self):
        g2 = sub("aa").graph
        g3 = sub("aaa").graph
        p = product(g2, g3)
        assert p.vertex_count == 6
        assert len(p.edges) == 6
        assert has_cycle(p)

    def test_intersection_of_powers(self):
        h = intersect(sub("aa"), sub("aaa"))
        assert h.graph.vertex_count == 6
        assert contains(h, parse_word("a" * 6, A2))
        assert not contains(h, parse_word("aa", A2))
        assert not contains(h, parse_word("aaa", A2))

    def test_subrose_intersection(self):
        h = intersect(sub("a b", A3), sub("b c", A3))
        assert h.graph.vertex_count == 1
        assert h.graph.edges == ((0, 0, 1),)

    def test_trivial_intersection(self):
        h = intersect(sub("a"), sub("b"))
        assert h.is_trivial

    def test_membership_agreement_random(self):
        rng = random.Random(17)
        words = all_reduced_words(A2, 4)
        for _ in range(25):
            h, _ = random_subgroup(rng, A2, max_gens=2, max_len=4)
            k, _ = random_subgroup(rng, A2, max_gens=2, max_len=4)
            m = intersect(h, k)
            for w in words:
                assert contains(m, w) == (contains(h, w) and contains(k, w))


class TestConjugacy:
    def test_conjugate_pairs(self):
        assert conjugate_subgroups(sub("baB"), sub("a"))
        assert conjugate_subgroups(sub("abaBA"), sub("a"))
        assert not conjugate_subgroups(sub("a"), sub("b"))
        assert not conjugate_subgroups(sub("a"), sub("aa"))

    def test_random_conjugation_invariance(self):
        rng = random.Random(29)
        for _ in range(30):
            h, gens = random_subgroup(rng, A2, max_gens=2, max_len=4)
            x = random_word(rng, A2, 3)
            conj = build_subgroup([x * g * ~x for g in gens], A2)
            assert conjugate_subgroups(h, conj)


class TestIsomorphism:
    def test_permuted_indices(self):
        g = XDigraph(2, 3, ((0, 1, 0), (1, 2, 1), (2, 0, 0)), base=0)
        h = XDigraph(2, 3, ((2, 0, 0), (0, 1, 1), (1, 2, 0)), base=2)
        assert digraph_isomorphic(g, h)
        assert digraph_isomorphic(g, h, bases=(0, 2))
        assert not digraph_isomorphic(g, h, bases=(0, 0))

    def test_label_mismatch(self):
        a_loop = XDigraph(2, 1, ((0, 0, 0),))
        b_loop = XDigraph(2, 1, ((0, 0, 1),))
        assert not digraph_isomorphic(a_loop, b_loop)

    def test_direction_mismatch(self):
        # labels alternate so both graphs stay folded after the reversal
        labels = [0, 1, 0, 1, 0, 1]
        cycle = [(i, (i + 1) % 6, labels[i]) for i in range(6)]
        reversed_one = [(1, 0, labels[0])] + cycle[1:]
        g = XDigraph(2, 6, tuple(cycle))
        h = XDigraph(2, 6, tuple(reversed_one))
        assert h.is_folded
        assert not digraph_isomorphic(g, h)

    def test_requires_folded(self):
        unfolded = XDigraph(2, 3, ((0, 1, 0), (0, 2, 0)))
        with pytest.raises(NotFoldedError):
            digraph_isomorphic(unfolded, unfolded)

    def test_requires_connected(self):
        two_loops = XDigraph(2, 2, ((0, 0, 0), (1, 1, 0)))
        with pytest.raises(ValueError, match="connected"):
            digraph_isomorphic(two_loops, two_loops)
        isolated = XDigraph(2, 2, ())
        with pytest.raises(ValueError, match="connected"):
            digraph_isomorphic(isolated, isolated)
        # Too few edges to connect: refused before any per-vertex table.
        bare = XDigraph(2, 10**5, ())
        with pytest.raises(ValueError, match="connected"):
            digraph_isomorphic(bare, bare)
        assert "_arcs" not in bare.__dict__


class TestSpanningTreeBasis:
    def test_rose(self):
        basis = spanning_tree_basis(sub("a b"))
        assert [str(w) for w in basis] == ["a", "b"]

    def test_conjugate_generator(self):
        basis = spanning_tree_basis(sub("baB"))
        assert [str(w) for w in basis] == ["baB"]

    def test_count_formula(self):
        rng = random.Random(41)
        for _ in range(40):
            h, _ = random_subgroup(rng, A3)
            basis = spanning_tree_basis(h)
            assert len(basis) == h.free_rank
            for w in basis:
                assert contains(h, w)

    def test_round_trip(self):
        rng = random.Random(43)
        for _ in range(40):
            h, _ = random_subgroup(rng, A2)
            rebuilt = build_subgroup(spanning_tree_basis(h), A2)
            assert digraph_isomorphic(
                h.graph, rebuilt.graph, bases=(h.base, rebuilt.base)
            )


@st.composite
def subgroup_pairs(draw):
    alphabet = Alphabet.of_rank(draw(st.sampled_from((2, 3))))
    letter = st.builds(
        Letter, st.integers(0, alphabet.rank - 1), st.sampled_from((1, -1))
    )
    gens = st.lists(st.lists(letter, min_size=1, max_size=6), min_size=1, max_size=3)
    return tuple(
        build_subgroup([free_reduce(w, alphabet) for w in draw(gens)], alphabet)
        for _ in range(2)
    )


class TestCycles:
    @settings(max_examples=80, deadline=None)
    @given(subgroup_pairs())
    def test_find_cycle_is_none_exactly_on_forests(self, pair):
        h, k = pair
        p = product(type_graph(h), type_graph(k))
        assert (find_cycle(p) is None) == (not has_cycle(p))

    def test_has_cycle(self):
        tree = XDigraph(2, 3, ((0, 1, 0), (1, 2, 1)))
        assert not has_cycle(tree)
        loop = XDigraph(2, 1, ((0, 0, 0),))
        assert has_cycle(loop)
        mixed = XDigraph(2, 3, ((0, 1, 0), (2, 2, 1)))
        assert has_cycle(mixed)

    def test_find_cycle_reads_reduced_word(self):
        rng = random.Random(47)
        found = 0
        for _ in range(60):
            h, _ = random_subgroup(rng, A2)
            got = find_cycle(h.graph)
            assert (got is not None) == has_cycle(h.graph)
            if got is None:
                continue
            found += 1
            letters, anchor = got
            assert letters
            # closed at the anchor
            v = anchor
            for letter in letters:
                v = h.graph.step(v, letter)
                assert v is not None
            assert v == anchor
            # cyclically reduced label
            for i in range(len(letters)):
                assert letters[i] != letters[i - 1].inverse() or len(letters) == 1
        assert found > 10

    def test_no_cycle_in_forest(self):
        tree = XDigraph(2, 3, ((0, 1, 0), (1, 2, 1)))
        assert find_cycle(tree) is None

    def test_unfolded_graph_may_get_an_unreduced_label(self):
        # Two parallel a-edges: the closed path 0 -a-> 1 -A-> 0 is not
        # cyclically reduced, and folding leaves no cycle at all.
        g = XDigraph(2, 2, ((0, 1, 0), (0, 1, 0)))
        assert find_cycle(g) == ((Letter(0, 1), Letter(0, -1)), 0)
        assert find_cycle(fold(g)) is None


class TestSerialization:
    def test_format(self):
        h = sub("baB")
        assert graph_to_text(h.graph, A2) == "v 2\nbase 0\ne 0 1 b\ne 1 1 a\n"

    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(30):
            h, _ = random_subgroup(rng, A3)
            text = graph_to_text(h.graph, A3)
            assert graph_from_text(text, A3) == h.graph

    def test_no_base(self):
        g = XDigraph(2, 1, ((0, 0, 0),))
        text = graph_to_text(g, A2)
        assert "base" not in text
        assert graph_from_text(text, A2) == g

    def test_bad_text(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("v x\n", A2)
        with pytest.raises(GraphFormatError):
            graph_from_text("e 0 0 a\n", A2)
        with pytest.raises(GraphFormatError):
            graph_from_text("v 1\ne 0 2 a\n", A2)

    @pytest.mark.parametrize("text", ["v 1\nv 2\ne 0 1 a\n", "v 2\nbase 0\nbase 1\ne 0 1 a\n"])
    def test_repeated_header_lines(self, text):
        # A second 'v' or 'base' line is an error, not a silent override.
        with pytest.raises(GraphFormatError, match="repeated"):
            graph_from_text(text, A2)

    def test_dot_mentions_every_edge(self):
        h = sub("baB")
        dot = graph_to_dot(h.graph, A2)
        assert dot.count("->") == 2
        assert "doublecircle" in dot


class TestBaseDegreeInvariant:
    def test_cyclically_reduced_member_forces_base_degree_two(self):
        rng = random.Random(59)
        checked = 0
        for _ in range(200):
            h, _ = random_subgroup(rng, A2, max_gens=2, max_len=4)
            w = random_word(rng, A2, 5)
            if w.is_trivial or not contains(h, w):
                continue
            first, last = w.letters[0], w.letters[-1]
            if first == last.inverse():
                continue
            checked += 1
            assert h.graph.degrees[h.base] >= 2
        assert checked > 20


class TestVertexRange:
    # Negative vertices must not wrap around to the last ones.
    @pytest.mark.parametrize(
        "call",
        [
            lambda g: g.arcs_from(-1),
            lambda g: g.arcs_from(2),
            lambda g: path_word(g, -1, 0, A2),
            lambda g: path_word(g, 0, -1, A2),
            lambda g: digraph_isomorphic(g, g, (-1, -1)),
            lambda g: digraph_isomorphic(g, g, (0, 2)),
            lambda g: core(g, -1),
            lambda g: XDigraph(2, 2, g.edges, 2),
            lambda g: XDigraph(2, 2, ((0, 1, 2),)),
            lambda g: g.step(-1, Letter(0, 1)),
            lambda g: g.step(2, Letter(0, 1)),
        ],
    )
    def test_rejects_vertices_out_of_range(self, call):
        g = sub("baB").graph
        assert g.vertex_count == 2
        with pytest.raises(ValueError, match="out of range"):
            call(g)

    # A letter past the rank must not fall off, nor a zero sign read as `a`.
    @pytest.mark.parametrize("letter", [Letter(7, 1), Letter(2, -1), Letter(0, 0)])
    def test_step_rejects_letters_outside_the_alphabet(self, letter):
        g = sub("baB").graph
        with pytest.raises(ValueError, match="outside alphabet of rank 2"):
            g.step(0, letter)


class TestRankMismatch:
    # A graph meets another graph, or an alphabet, only at its own rank.
    G2, G3 = XDigraph(2, 1, ((0, 0, 0),), 0), XDigraph(3, 1, ((0, 0, 2),), 0)

    @pytest.mark.parametrize("rank", [0, -2])
    def test_rank_below_one(self, rank):
        with pytest.raises(ValueError, match="below 1"):
            XDigraph(rank, 3, ())

    @pytest.mark.parametrize(
        "call",
        [
            lambda g2, g3: digraph_isomorphic(g2, g3),
            lambda g2, g3: digraph_isomorphic(g2, g3, bases=(0, 0)),
            lambda g2, g3: product(g2, g3),
        ],
    )
    def test_graphs_over_different_ranks(self, call):
        with pytest.raises(ValueError, match="different ranks"):
            call(self.G2, self.G3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: graph_to_text(g, A2),
            lambda g: graph_to_dot(g, A2),
            lambda g: path_word(g, 0, 0, A2),
        ],
    )
    def test_alphabet_of_another_rank(self, call):
        with pytest.raises(ValueError, match="alphabet rank does not match graph"):
            call(self.G3)

    @pytest.mark.parametrize(
        "graph, alphabet, error, message",
        [
            (XDigraph(2, 1, ((0, 0, 0),)), A2, ValueError, "needs a base vertex"),
            (XDigraph(3, 1, ((0, 0, 0),), 0), A2, ValueError, "does not match alphabet"),
            (XDigraph(2, 3, ((0, 1, 0), (0, 2, 0)), 0), A2, NotFoldedError, "must be folded"),
            (XDigraph(2, 2, ((0, 1, 0),), 0), A2, ValueError, "must be a core graph"),
            (XDigraph(2, 2, ((0, 0, 0), (1, 1, 1)), 0), A2, ValueError, "must be a core graph"),
        ],
    )
    def test_subgroup_refuses(self, graph, alphabet, error, message):
        with pytest.raises(error, match=message):
            Subgroup(graph, alphabet)


class TestPathWord:
    def test_path_label_traces(self):
        h = sub("baB")
        w = path_word(h.graph, h.base, 1, A2)
        assert str(w) == "b"
        assert path_word(h.graph, 1, 1, A2).is_trivial

    def test_unfolded_graph_gets_the_reduced_label(self):
        # 0 -a-> 1 <-a- 2: the path from 0 to 2 reads a A, reduced to the
        # trivial word, which does not lead from 0 to 2.
        g = XDigraph(2, 3, ((0, 1, 0), (2, 1, 0)))
        assert path_word(g, 0, 2, A2).is_trivial
        folded = fold(g)
        assert folded.vertex_count == 2
        assert str(path_word(folded, 0, 1, A2)) == "a"
