import copy
import dataclasses
import itertools
import pickle
import random

import kernel_oracles as oracle
import pytest
from hypothesis import given, settings, strategies as st

from freegroups.ellipticity import (
    DoesNotGenerateError,
    EllipticityAnswer,
    FreeSplitting,
    RankMismatchError,
    SplittingError,
    TrivialIntersectionError,
    nielsen_bound,
    primitive_in_intersection,
    splittings_distance_two,
    verify_splitting,
    word_elliptic,
    words_distance_two,
)
from freegroups import ellipticity, stallings, whitehead
from freegroups.stallings import (
    XDigraph,
    build_subgroup,
    conjugator_into,
    contains,
    contains_conjugate,
)
from freegroups.whitehead import (
    NielsenTransformation,
    _elementary_moves,
    apply_nielsen,
    enumerate_relabelings,
    enumerate_whitehead,
    is_primitive,
    nielsen_decompose,
)
from freegroups.words import (
    Alphabet,
    AlphabetMismatchError,
    CyclicWord,
    Letter,
    TrivialWordError,
    Word,
    free_reduce,
    parse_cyclic,
    parse_word,
)

A2 = Alphabet.of_rank(2)
A3 = Alphabet.of_rank(3)

inv = NielsenTransformation.invert
rmul = NielsenTransformation.right_multiply


def split(text, alphabet=A2):
    a, b = text.split("|")
    return verify_splitting(
        [parse_word(t, alphabet) for t in a.split()],
        [parse_word(t, alphabet) for t in b.split()],
        alphabet,
    )


def transform_splitting(moves, s):
    return verify_splitting(
        [oracle.moves_apply_word(moves, w) for w in s.basis_a],
        [oracle.moves_apply_word(moves, w) for w in s.basis_b],
        s.alphabet,
    )


def transform_cyclic(moves, w):
    return CyclicWord.from_word(oracle.moves_apply_word(moves, w.as_word()))


def random_moves(rng, rank, count):
    pool = [inv(i) for i in range(rank)] + [
        rmul(i, j) for i in range(rank) for j in range(rank) if i != j
    ]
    return [rng.choice(pool) for _ in range(count)]


class TestVerify:
    def test_examples(self):
        s = split("a | b")
        listed = FreeSplitting(A2, [parse_word("a", A2)], [parse_word("b", A2)])
        assert s == listed and hash(s) == hash(listed) and listed.combined == s.combined
        assert str(s) == "split a | b"
        assert str(split("ab | b")) == "split ab | b"

    def test_does_not_generate(self):
        with pytest.raises(DoesNotGenerateError):
            split("a | a")
        with pytest.raises(DoesNotGenerateError):
            split("ab | ba")

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            split("a | b", A3)

    def test_empty_factor(self):
        with pytest.raises(SplittingError):
            verify_splitting([parse_word("a", A2)], [], A2)

    def test_trivial_basis_word(self):
        with pytest.raises(SplittingError):
            split("a | 1")

    def test_unverified_rejected(self):
        # Construction is the certification: building a non-splitting
        # directly raises what verify_splitting raises, with its message.
        a, b, ab = (parse_word(t, A2) for t in ("a", "b", "ab"))
        c = parse_word("c", A3)
        cases = [
            (((a,), ()), SplittingError, "both factors must be proper: empty basis list"),
            (((a,), (c,)), AlphabetMismatchError, "basis word over a different alphabet"),
            (((a,), (parse_word("1", A2),)), SplittingError, "basis words must be nontrivial"),
            (((a, b), (ab,)), RankMismatchError, "basis sizes 2 + 1 do not sum to the rank 2"),
            (((ab,), (ab,)), DoesNotGenerateError, "combined basis words do not generate F"),
        ]
        for (basis_a, basis_b), error, message in cases:
            for make in (FreeSplitting, lambda al, x, y: verify_splitting(x, y, al)):
                with pytest.raises(error) as caught:
                    make(A2, basis_a, basis_b)
                assert type(caught.value) is error and str(caught.value) == message

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            splittings_distance_two(split("a | b"), split("a b | c", A3))
        with pytest.raises(AlphabetMismatchError):
            word_elliptic(parse_cyclic("c", A3), split("a | b"))
        with pytest.raises(AlphabetMismatchError):
            words_distance_two(parse_cyclic("a", A2), parse_cyclic("c", A3))

    def test_verification_builds_no_graph(self, monkeypatch):
        # The generation test stops at the fold's vertex classes.
        built = []
        original = XDigraph.__post_init__
        monkeypatch.setattr(XDigraph, "__post_init__", lambda g: built.append(g) or original(g))
        split("ab | b")
        split("ac b | Cb", A3)
        with pytest.raises(DoesNotGenerateError):
            split("ab | ba")
        assert built == []

    def test_factor_subgroups(self):
        s = split("ab | b")
        assert contains(s.factor(0), parse_word("ab", A2))
        assert contains(s.factor(1), parse_word("bb", A2))
        assert not contains(s.factor(0), parse_word("b", A2))


@st.composite
def verified_splittings(draw):
    """A splitting of a basis reached by random Nielsen moves at rank 2-4."""
    rank = draw(st.integers(2, 4))
    alphabet = Alphabet.of_rank(rank)
    moves = draw(st.lists(st.sampled_from(_elementary_moves(rank)), max_size=8))
    basis = apply_nielsen(moves, alphabet)
    cut = draw(st.integers(1, rank - 1))
    return verify_splitting(basis[:cut], basis[cut:], alphabet)


class TestSplittingCaches:
    def test_factor_built_once(self):
        s = split("ab | b")
        for i in (0, 1):
            assert s.factor(i) is s.factor(i)
            assert s.factor(i) == build_subgroup(list(s.basis(i)), A2)

    def test_selectors_name_one_factor(self):
        # Every selector that primitive_in_intersection accepts picks the
        # same factor, and shares its cache entry; any other is refused.
        s = split("ab | b")
        assert s.factor("A") is s.factor(0) is s.factor("a")
        assert s.factor("B") is s.factor(1) is s.factor("b")
        assert s._type_graph("A") is s._type_graph(0)
        assert s.basis("A") == s.basis(0) == s.basis_a
        assert s.basis("b") == s.basis(1) == s.basis_b
        assert set(s._factors) == {0, 1} and set(s._type_graphs) == {0}
        for bad in (2, 7, "C", -1):
            with pytest.raises(ValueError, match="factor selector"):
                s.factor(bad)
            with pytest.raises(ValueError, match="factor selector"):
                s.basis(bad)

    @settings(max_examples=100, deadline=None)
    @given(verified_splittings())
    def test_factor_ranks_match_basis_sizes(self, s):
        # verify_splitting builds no factor graph: generating F by rank(F)
        # words makes each factor's basis free.
        for i in (0, 1):
            assert s.factor(i).free_rank == len(s.basis(i))

    @settings(max_examples=50, deadline=None)
    @given(verified_splittings())
    def test_equality_ignores_caches(self, s):
        fresh = verify_splitting(s.basis_a, s.basis_b, s.alphabet)
        before = dataclasses.asdict(s), dataclasses.astuple(s)
        assert splittings_distance_two(s, s)
        assert word_elliptic(s.basis_b[0], s)
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh)
        assert (dataclasses.asdict(s), dataclasses.astuple(s)) == before
        assert [f.name for f in dataclasses.fields(s)] == ["alphabet", "basis_a", "basis_b"]


class TestSplittingsDistanceTwo:
    def test_shared_factor(self):
        ans = splittings_distance_two(split("a | b"), split("ab | b"))
        assert ans.decision and str(ans.witness) == "b"

    def test_rank_three_overlap(self):
        ans = splittings_distance_two(split("a b | c", A3), split("b c | a", A3))
        assert ans.decision and str(ans.witness) == "b"

    def test_no_common_elliptic(self):
        ans = splittings_distance_two(split("a | b"), split("aab | ab"))
        assert not ans.decision and ans.witness is None

    def test_witness_reverifies(self):
        cases = [
            ("a | b", "ab | b", A2),
            ("a b | c", "b c | a", A3),
            ("ab | b", "a | ab", A2),
            ("a c | b", "c | a b", A3),
        ]
        for t1, t2, alphabet in cases:
            s1, s2 = split(t1, alphabet), split(t2, alphabet)
            ans = splittings_distance_two(s1, s2)
            if not ans.decision:
                continue
            g = ans.witness.as_word()
            for s in (s1, s2):
                hit = [
                    f
                    for f in (s.factor(0), s.factor(1))
                    if contains_conjugate(f, g)
                ]
                assert hit
                x = conjugator_into(hit[0], g)
                assert x is not None
                assert contains(hit[0], x * g * ~x)

    def test_brute_force_confirms_no(self):
        # every element elliptic for a|b is x a^n x^-1 or x b^n x^-1;
        # none of their conjugates may land in <aab> or <ab>
        s2 = split("aab | ab")
        factors = (s2.factor(0), s2.factor(1))
        letters = [Letter(g, s) for g in range(2) for s in (1, -1)]
        xs = [Word(A2, ())]
        layer = [()]
        for _ in range(3):
            layer = [
                seq + (l,)
                for seq in layer
                for l in letters
                if not (seq and seq[-1] == l.inverse())
            ]
            xs.extend(Word(A2, seq) for seq in layer)
        for u, n, x in itertools.product("ab", range(1, 4), xs):
            power = parse_word(u * n, A2)
            g = x * power * ~x
            assert not contains_conjugate(factors[0], g)
            assert not contains_conjugate(factors[1], g)

    def test_symmetric_decision(self):
        pairs = [
            ("a | b", "ab | b"),
            ("a | b", "aab | ab"),
            ("ab | b", "a | ab"),
        ]
        for t1, t2 in pairs:
            s1, s2 = split(t1), split(t2)
            assert splittings_distance_two(s1, s2).decision == splittings_distance_two(
                s2, s1
            ).decision

    def test_automorphism_invariance(self):
        rng = random.Random(83)
        pairs = [("a | b", "ab | b"), ("a | b", "aab | ab")]
        for t1, t2 in pairs:
            s1, s2 = split(t1), split(t2)
            before = splittings_distance_two(s1, s2).decision
            for _ in range(5):
                moves = random_moves(rng, 2, rng.randrange(1, 4))
                after = splittings_distance_two(
                    transform_splitting(moves, s1), transform_splitting(moves, s2)
                ).decision
                assert after == before


class TestWordElliptic:
    def test_basic(self):
        s = split("a | b")
        assert word_elliptic(parse_cyclic("a", A2), s)
        assert word_elliptic(parse_cyclic("aa", A2), s)
        assert word_elliptic(parse_word("baB", A2), s)  # conjugate of a
        assert not word_elliptic(parse_cyclic("ab", A2), s)
        assert not word_elliptic(parse_word("bab", A2), s)
        assert not word_elliptic(parse_word("abAB", A2), s)

    def test_conjugates(self):
        s = split("ab | b")
        assert word_elliptic(parse_word("Babb", A2), s)  # b^-1 (ab) b
        assert not word_elliptic(parse_word("a", A2), s)
        assert not word_elliptic(parse_word("Babab", A2), s)  # core aab

    def test_trivial_raises(self):
        s = split("a | b")
        for w in (parse_word("1", A2), parse_word("aA", A2), CyclicWord(A2)):
            with pytest.raises(TrivialWordError, match="ellipticity is defined for nontrivial words"):
                word_elliptic(w, s)


class TestWordsDistanceTwo:
    def test_disjoint_pair(self):
        ans = words_distance_two(parse_cyclic("a", A2), parse_cyclic("b", A2))
        assert ans.decision
        assert str(ans.witness) == "split a | b"

    def test_descent_pair(self):
        ans = words_distance_two(parse_cyclic("ab", A2), parse_cyclic("a", A2))
        assert ans.decision
        assert str(ans.witness) == "split ab | a"

    def test_commutator_blocks(self):
        ans = words_distance_two(parse_cyclic("abAB", A2), parse_cyclic("a", A2))
        assert not ans.decision

    def test_trivial_raises(self):
        with pytest.raises(TrivialWordError):
            words_distance_two(CyclicWord(A2), parse_cyclic("a", A2))

    def test_witness_sound(self):
        rng = random.Random(89)
        for _ in range(40):
            letters = lambda: [
                Letter(rng.randrange(2), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 6))
            ]
            v = CyclicWord.from_word(free_reduce(letters(), A2))
            w = CyclicWord.from_word(free_reduce(letters(), A2))
            if v.is_trivial or w.is_trivial:
                continue
            ans = words_distance_two(v, w)
            if ans.decision:
                assert word_elliptic(v, ans.witness)
                assert word_elliptic(w, ans.witness)

    def test_symmetric_decision(self):
        cases = [("ab", "a"), ("abAB", "a"), ("aab", "b"), ("ab", "ba")]
        for tv, tw in cases:
            v, w = parse_cyclic(tv, A2), parse_cyclic(tw, A2)
            assert words_distance_two(v, w).decision == words_distance_two(w, v).decision

    def test_automorphism_invariance(self):
        rng = random.Random(97)
        cases = [("a", "b"), ("ab", "a"), ("abAB", "a"), ("aabb", "ab")]
        for tv, tw in cases:
            v, w = parse_cyclic(tv, A2), parse_cyclic(tw, A2)
            before = words_distance_two(v, w).decision
            for _ in range(5):
                moves = random_moves(rng, 2, rng.randrange(1, 4))
                after = words_distance_two(
                    transform_cyclic(moves, v), transform_cyclic(moves, w)
                ).decision
                assert after == before

    def test_matches_orbit_search_oracle(self):
        # reachability oracle: breadth-first search over Whitehead images
        # of the pair, total length capped at the starting total
        autos = enumerate_whitehead(2) + enumerate_relabelings(2)

        def oracle(v, w):
            from freegroups.whitehead import classify_pair

            cap = len(v) + len(w)
            seen = {(v, w)}
            queue = [(v, w)]
            while queue:
                pair = queue.pop()
                if classify_pair(*pair).is_good:
                    return True
                for t in autos:
                    image = (t.apply_to_cyclic(pair[0]), t.apply_to_cyclic(pair[1]))
                    if len(image[0]) + len(image[1]) <= cap and image not in seen:
                        seen.add(image)
                        queue.append(image)
            return False

        words = []
        letters = [Letter(g, s) for g in range(2) for s in (1, -1)]
        layer = [()]
        for _ in range(2):
            layer = [
                seq + (l,)
                for seq in layer
                for l in letters
                if not (seq and seq[-1] == l.inverse())
            ]
            words.extend(
                CyclicWord(A2, seq)
                for seq in layer
                if seq[0] != seq[-1].inverse()
            )
        words = sorted(set(words), key=lambda w: (len(w), [l.key for l in w.letters]))
        for v, w in itertools.product(words, words):
            assert words_distance_two(v, w).decision == oracle(v, w)


class TestPrimitiveInIntersection:
    def test_rank_three_overlap(self):
        got = primitive_in_intersection(
            split("a b | c", A3), "A", split("b c | a", A3), "A"
        )
        assert str(got) == "b"

    def test_same_splitting(self):
        s = split("a | b")
        got = primitive_in_intersection(s, "A", split("b | a"), "B")
        assert str(got) == "a"

    def test_trivial_intersection(self):
        with pytest.raises(TrivialIntersectionError):
            primitive_in_intersection(split("a | b"), "A", split("b | a"), "A")

    def test_rebased_first_splitting(self):
        s1, s2 = split("ab | b"), split("ab | a")
        got = primitive_in_intersection(s1, "A", s2, "A")
        assert is_primitive(got)
        assert contains_conjugate(s1.factor(0), got)
        assert contains(s1.factor(0), got)
        assert contains(s2.factor(0), got)

    def test_post_verification_sweep(self):
        cases = [
            ("a b | c", "A", "b c | a", "A", A3),
            ("a b | c", "A", "a c | b", "A", A3),
            ("ab c | b", "A", "ab | b c", "A", A3),
            ("a | b c", "B", "b | a c", "B", A3),
            ("ab | b", "A", "a | ab", "B", A2),
        ]
        for t1, f1, t2, f2, alphabet in cases:
            s1, s2 = split(t1, alphabet), split(t2, alphabet)
            got = primitive_in_intersection(s1, f1, s2, f2)
            assert is_primitive(got)
            assert contains(s1.factor(0 if f1 == "A" else 1), got)
            assert contains(s2.factor(0 if f2 == "A" else 1), got)

    def test_factor_selector_validation(self):
        with pytest.raises(ValueError):
            primitive_in_intersection(split("a | b"), "C", split("a | b"), "A")

    def test_rebase_runs_no_search(self, monkeypatch):
        # The basis fixes φ⁻¹, so the rebase replays the Nielsen
        # reduction's moves and never runs the shortest search, which on
        # this rank-20 pair ran to its budget first.
        a20 = Alphabet.of_rank(20)
        s1 = split("abc | bcd cde def efg fgh ghi hij ijk jkl klm lmn mno nop opq pqr qrs rst s t", a20)
        s2 = split("s | a b c d e f g h i j k l m n o p q r t", a20)
        basis = tuple(parse_word(t, A3) for t in ("abCab", "bcabCab", "Cab"))
        codes = tuple(w.codes for w in basis)
        searched = whitehead._images(
            whitehead._replay(whitehead._decompose_basis(codes, 3), 3, forward=False)
        )

        def search(*args):
            raise AssertionError("the rebase ran the shortest search")

        monkeypatch.setattr(whitehead, "_bidirectional_search", search)
        ellipticity._rebase_moves.cache_clear()
        assert str(primitive_in_intersection(s1, "B", s2, "A")) == "s"
        assert ellipticity._rebase_moves(A3, basis) == (whitehead._images(codes), searched)


class TestNielsenBound:
    def test_one_move_apart(self):
        assert nielsen_bound(split("a | b"), split("ab | b")) == 2

    def test_identical_bases(self):
        assert nielsen_bound(split("a | b"), split("a | b")) == 0
        s = split("ab | b")
        assert nielsen_bound(s, split("ab | b")) == 0

    def test_zero_only_for_identical(self):
        assert nielsen_bound(split("a | b"), split("b | a")) > 0
        assert nielsen_bound(split("ab | b"), split("a | b")) > 0

    def test_different_cuts_of_one_basis(self):
        # The bases agree, but a is elliptic in both splittings and they
        # differ, so they lie at distance two.
        s1, s2 = split("a | b c", A3), split("a b | c", A3)
        assert splittings_distance_two(s1, s2).decision
        assert nielsen_bound(s1, s2) == nielsen_bound(s2, s1) == 2

    def test_even_and_bounded(self):
        rng = random.Random(101)
        base = split("a | b")
        for _ in range(15):
            k = rng.randrange(1, 5)
            moves = random_moves(rng, 2, k)
            words = apply_nielsen(moves, A2)
            other = verify_splitting([words[0]], [words[1]], A2)
            bound = nielsen_bound(base, other)
            assert bound % 2 == 0
            assert bound <= 2 * k

    def test_nonstandard_reference(self):
        # rebasing works but is not symmetric: expressing a|b over the
        # basis (ab, b) needs a -> ab^-1, and undoing a right
        # multiplication costs three elementary moves (inv rmul inv)
        assert nielsen_bound(split("ab | b"), split("a | b")) == 6

    def test_no_second_fold(self, monkeypatch):
        # Both certificates already prove that s2's combined basis,
        # carried over s1, is a basis, so the bound folds it no more.
        pairs = [
            (split("ab | b"), split("a | b")),
            (split("a | b"), split("ab | b")),
            (split("a b | c", A3), split("ac b | Cb", A3)),
        ]
        expected = [nielsen_bound(s1, s2) for s1, s2 in pairs]

        def refold(*args):
            raise AssertionError("nielsen_bound folded a certified basis again")

        # Every fold, and so every generation test, runs the one kernel.
        monkeypatch.setattr(whitehead, "_generates", refold)
        monkeypatch.setattr(stallings, "_add_arcs", refold)
        assert [nielsen_bound(s1, s2) for s1, s2 in pairs] == expected
        # Both hooks are live: a decomposition and a verification do fold.
        with pytest.raises(AssertionError, match="folded"):
            nielsen_decompose(list(pairs[0][0].combined), A2)
        with pytest.raises(AssertionError, match="folded"):
            split("ab | b")

    def test_rank_one_rejected(self):
        # Two proper factors need rank two, so no rank-one splitting is
        # ever certified.
        a1 = Alphabet.of_rank(1)
        w = parse_word("a", a1)
        with pytest.raises(RankMismatchError):
            verify_splitting([w], [w], a1)


class TestForgedSplittings:
    def test_forged_splittings_cannot_be_built(self):
        real = split("ab | b")
        a, b = parse_word("a", A2), parse_word("b", A2)
        # No field but the alphabet and the two bases can be passed.
        with pytest.raises(TypeError):
            FreeSplitting(A2, (a,), (b,), verified=True)
        # dataclasses.replace constructs, so it certifies again.
        with pytest.raises(DoesNotGenerateError):
            dataclasses.replace(real, basis_a=(b,))
        with pytest.raises(RankMismatchError):
            dataclasses.replace(real, basis_a=(a, b))
        assert dataclasses.replace(real, basis_a=(a,)) == split("a | b")
        assert dataclasses.replace(real) == real

    def test_copies_stay_certified(self):
        # A copy or a pickle round trip of a certified splitting equals
        # it and is accepted by every decider.
        real, other = split("ab | b"), split("a | b")
        real._type_graph(0)  # copies carry the factor caches along
        expected = [
            (splittings_distance_two(s1, s2), primitive_in_intersection(s1, "B", s2, "B"),
             nielsen_bound(s1, s2))
            for s1, s2 in ((real, other), (other, real))
        ]
        for twin in (copy.copy(real), copy.deepcopy(real), pickle.loads(pickle.dumps(real))):
            assert twin == real and hash(twin) == hash(real)
            assert word_elliptic(parse_word("ab", A2), twin)
            got = [
                (splittings_distance_two(s1, s2), primitive_in_intersection(s1, "B", s2, "B"),
                 nielsen_bound(s1, s2))
                for s1, s2 in ((twin, other), (other, twin))
            ]
            assert got == expected


class TestAnswerType:
    def test_truthiness(self):
        assert bool(EllipticityAnswer(True, parse_cyclic("a", A2)))
        assert not bool(EllipticityAnswer(False))
        assert str(EllipticityAnswer(False)) == "no"
