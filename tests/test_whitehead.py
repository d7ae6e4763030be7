import itertools
import math
import random
import warnings

import kernel_oracles as oracle
import pytest
from hypothesis import assume, given, settings, strategies as st

from freegroups import whitehead
from freegroups.cli import run
from freegroups.stallings import CertificateError
from freegroups.whitehead import (
    WHITEHEAD_BUDGET,
    Action,
    NielsenTransformation,
    NotABasisError,
    PairClass,
    WhiteheadAut,
    apply_nielsen,
    apply_whitehead,
    classify_pair,
    enumerate_relabelings,
    enumerate_whitehead,
    equal_length_orbit,
    is_primitive,
    minimize_tuple,
    nielsen_decompose,
    same_orbit,
    standard_basis,
    total_length,
    WhiteheadBudgetError,
    _elementary_moves,
    _flow_reaches,
    _length_changes,
    _multiplier,
    _multiplier_cuts,
    _reduction_moves,
    _whitehead_graph,
)
from freegroups.words import (
    Alphabet,
    AlphabetMismatchError,
    CyclicWord,
    Letter,
    TrivialWordError,
    Word,
    _least_rotation_start,
    free_reduce,
    letter_support,
    parse_cyclic,
    parse_word,
)

A2 = Alphabet.of_rank(2)
A3 = Alphabet.of_rank(3)

inv = NielsenTransformation.invert
rmul = NielsenTransformation.right_multiply


def cyc(text, alphabet=A2):
    return parse_cyclic(text, alphabet)


def all_cyclic_words(alphabet, max_len, include_trivial=False):
    # Every canonical cyclic word of length 1..max_len (deduplicated).
    letters = [Letter(g, s) for g in range(alphabet.rank) for s in (1, -1)]
    seen = set()
    out = []
    if include_trivial:
        out.append(CyclicWord(alphabet))
    layer = [()]
    for _ in range(max_len):
        nxt = []
        for seq in layer:
            for l in letters:
                if seq and seq[-1] == l.inverse():
                    continue
                nxt.append(seq + (l,))
        layer = nxt
        for seq in nxt:
            if seq[0] == seq[-1].inverse():
                continue
            w = CyclicWord(alphabet, seq)
            if w.letters not in seen:
                seen.add(w.letters)
                out.append(w)
    return out


def exhaustive_min_length(w, cap=None):
    # Oracle: breadth-first search over all Whitehead images for the
    # smallest cyclic length reachable from w.
    autos = enumerate_whitehead(w.alphabet.rank) + enumerate_relabelings(w.alphabet.rank)
    cap = len(w) if cap is None else cap
    seen = {w}
    queue = [w]
    best = len(w)
    while queue:
        current = queue.pop()
        for t in autos:
            image = t.apply_to_cyclic(current)
            if len(image) <= cap and image not in seen:
                seen.add(image)
                queue.append(image)
                best = min(best, len(image))
    return best


@st.composite
def cyclic_tuples(draw, ranks=(2, 3, 4), max_words=3, max_len=8):
    rank = draw(st.sampled_from(ranks))
    alphabet = Alphabet.of_rank(rank)
    letter = st.builds(Letter, st.integers(0, rank - 1), st.sampled_from((1, -1)))
    words = draw(
        st.lists(st.lists(letter, min_size=1, max_size=max_len), min_size=1, max_size=max_words)
    )
    return tuple(CyclicWord.from_word(free_reduce(w, alphabet)) for w in words)


def brute_force_minimize(ws):
    # Reference descent: rewrite the whole tuple under each multiplier in
    # enumeration order and take the first that shortens it.
    current = tuple(ws)
    autos = enumerate_whitehead(current[0].alphabet.rank)
    descent = []
    improved = True
    while improved:
        improved = False
        for t in autos:
            images = tuple(t.apply_to_cyclic(w) for w in current)
            if total_length(images) < total_length(current):
                current = images
                descent.append(t)
                improved = True
                break
    return current, descent


def brute_force_orbit(ws):
    # Reference closure: every multiplier and relabeling, kept when the
    # total length is unchanged.
    start = tuple(ws)
    rank = start[0].alphabet.rank
    autos = enumerate_whitehead(rank) + enumerate_relabelings(rank)
    target = total_length(start)
    seen = {start}
    queue = [start]
    while queue:
        current = queue.pop()
        for t in autos:
            images = tuple(t.apply_to_cyclic(w) for w in current)
            if total_length(images) == target and images not in seen:
                seen.add(images)
                queue.append(images)
    return seen


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_whitehead(1)) == 0
        assert len(enumerate_whitehead(2)) == 12
        assert len(enumerate_whitehead(3)) == 90
        assert len(enumerate_relabelings(1)) == 2
        assert len(enumerate_relabelings(2)) == 8
        assert len(enumerate_relabelings(3)) == 48

    def test_no_duplicates(self):
        for rank in (2, 3):
            autos = enumerate_whitehead(rank)
            assert len(set(autos)) == len(autos)

    def test_multiplier_identity_excluded(self):
        for t in enumerate_whitehead(2):
            assert any(a != Action.KEEP for a in t.actions)


class TestApplication:
    def test_multiplier_forms(self):
        # multiplier a acting on b in all four ways
        base = cyc("b")
        images = []
        for act in (Action.KEEP, Action.RIGHT, Action.LEFT, Action.CONJ):
            t = WhiteheadAut.multiplier(2, Letter(0, 1), (Action.KEEP, act))
            images.append(str(t.apply_to_cyclic(base)))
            assert apply_whitehead(t, base) == t.apply_to_cyclic(base)
        assert images == ["b", "ab", "Ab", "b"]  # conjugate collapses cyclically

    def test_conj_on_linear_word(self):
        t = WhiteheadAut.multiplier(2, Letter(0, 1), (Action.KEEP, Action.CONJ))
        assert str(t.apply_to_word(parse_word("b", A2))) == "Aba"

    def test_multiplier_fixes_own_generator(self):
        t = WhiteheadAut.multiplier(2, Letter(0, -1), (Action.KEEP, Action.RIGHT))
        assert str(t.apply_to_word(parse_word("aA", A2))) == "1"
        assert str(t.apply_to_word(parse_word("a", A2))) == "a"

    def test_relabeling(self):
        t = WhiteheadAut.relabeling((Letter(1, 1), Letter(0, -1)))  # a->b, b->A
        assert str(t.apply_to_word(parse_word("ab", A2))) == "bA"

    def test_describe_spells_letters_as_words_do(self):
        named = Alphabet(("x0", "x1"))
        t = WhiteheadAut.multiplier(2, Letter(0, -1), (Action.KEEP, Action.CONJ))
        assert t.describe(named) == "mult x0^-1 x1:conj"
        assert t.describe(A2) == "mult A b:conj"
        r = WhiteheadAut.relabeling((Letter(1, -1), Letter(0, 1)))
        assert r.describe(named) == "perm x0->x1^-1 x1->x0"
        assert r.describe(A2) == "perm a->B b->a"

    @pytest.mark.parametrize("mult", [Letter(-1, 1), Letter(2, 1), Letter(0, 2), Letter(1, 0)])
    def test_multiplier_rejects_bad_letters(self, mult):
        with pytest.raises(ValueError, match="outside alphabet"):
            WhiteheadAut.multiplier(2, mult, (Action.KEEP, Action.KEEP))

    @pytest.mark.parametrize("action", [2.7, "3", None, -1, 4, 1.0])
    def test_multiplier_rejects_bad_actions(self, action):
        # Each entry is checked before it is converted: int() would turn
        # 2.7 into left and '3' into conj.
        with pytest.raises(ValueError, match="unknown action"):
            WhiteheadAut.multiplier(2, Letter(0, 1), [0, action])

    def test_multiplier_takes_ints_and_actions(self):
        for action in range(4):
            t = WhiteheadAut.multiplier(2, Letter(0, 1), [0, action])
            assert t == WhiteheadAut.multiplier(2, Letter(0, 1), [Action.KEEP, Action(action)])
            assert type(t.actions[1]) is int

    @pytest.mark.parametrize(
        "images",
        [(Letter(0, 2), Letter(1, 1)), (Letter(1, 1), Letter(0, 0)), (Letter(-1, 1), Letter(0, 1))],
    )
    def test_relabeling_rejects_bad_letters(self, images):
        with pytest.raises(ValueError, match="outside alphabet"):
            WhiteheadAut.relabeling(images)

    def test_inverse_round_trip_everywhere(self):
        autos = enumerate_whitehead(2) + enumerate_relabelings(2)
        words = all_cyclic_words(A2, 3, include_trivial=True)
        for t in autos:
            back = t.inverse()
            for w in words:
                assert back.apply_to_cyclic(t.apply_to_cyclic(w)) == w

    def test_injective_on_short_words(self):
        # Automorphisms are injective; check on the ball of radius 3.
        ball = []
        letters = [Letter(g, s) for g in range(2) for s in (1, -1)]
        layer = [()]
        for _ in range(3):
            layer = [
                seq + (l,)
                for seq in layer
                for l in letters
                if not (seq and seq[-1] == l.inverse())
            ]
            ball.extend(Word(A2, seq) for seq in layer)
        for t in enumerate_whitehead(2)[:6]:
            images = [t.apply_to_word(w) for w in ball]
            assert len(set(images)) == len(ball)


class TestBadMultiplier:
    def test_dichotomy_rank2(self):
        # multiplier outside the support: the image is unchanged or longer
        for w in all_cyclic_words(A2, 4):
            support = letter_support(w)
            for t in enumerate_whitehead(2):
                if t.mult.gen in support:
                    continue
                image = t.apply_to_cyclic(w)
                assert image == w or len(image) > len(w)

    def test_support_shrinks_when_not_longer(self):
        for w in all_cyclic_words(A2, 4):
            support = letter_support(w)
            for t in enumerate_whitehead(2):
                if t.mult.gen in support:
                    continue
                image = t.apply_to_cyclic(w)
                if len(image) <= len(w):
                    assert letter_support(image) <= support


class TestMinimize:
    def test_primitive_descends_to_length_one(self):
        minimal, descent = minimize_tuple((cyc("ab"),))
        assert total_length(minimal) == 1
        assert descent

    def test_commutator_already_minimal(self):
        w = cyc("abAB")
        minimal, descent = minimize_tuple((w,))
        assert minimal == (w,)
        assert descent == []
        for t in enumerate_whitehead(2):
            assert len(t.apply_to_cyclic(w)) >= 4

    def test_descent_replay(self):
        rng = random.Random(61)
        for _ in range(30):
            letters = [
                Letter(rng.randrange(2), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 7))
            ]
            w = CyclicWord.from_word(free_reduce(letters, A2))
            minimal, descent = minimize_tuple((w,))
            replay = (w,)
            for t in descent:
                replay = tuple(t.apply_to_cyclic(x) for x in replay)
            assert replay == minimal

    def test_matches_exhaustive_oracle(self):
        for w in all_cyclic_words(A2, 4):
            minimal, _ = minimize_tuple((w,))
            assert total_length(minimal) == exhaustive_min_length(w)

    def test_pairs_share_one_automorphism(self):
        # the diagonal action: both entries move together
        minimal, descent = minimize_tuple((cyc("ab"), cyc("a")))
        assert total_length(minimal) == 2
        replay = (cyc("ab"), cyc("a"))
        for t in descent:
            replay = tuple(t.apply_to_cyclic(x) for x in replay)
        assert replay == minimal


class TestWhiteheadGraph:
    @settings(max_examples=40, deadline=None)
    @given(cyclic_tuples())
    def test_predicted_change_matches_application(self, ws):
        # A bound of 0 prunes nothing, so every candidate is scored.
        rank = ws[0].alphabet.rank
        before = total_length(ws)
        changes = list(_length_changes(codes_of(ws), rank, 0))
        autos = enumerate_whitehead(rank)
        assert [_multiplier(rank, m, code) for m, code, _ in changes] == list(autos)
        for t, (_, _, change) in zip(autos, changes):
            assert total_length([t.apply_to_cyclic(w) for w in ws]) - before == change

    @settings(max_examples=80, deadline=None)
    @given(cyclic_tuples(ranks=(2, 3, 4, 5)), st.integers(-3, 0))
    def test_pruned_scan_keeps_the_blocks_that_reach_the_bound(self, ws, bound):
        assert_pruned_scan(ws, bound)

    # An absent generator (degree 0), a minimal word (every cut equals
    # the degree), multi-word tuples and a 17-step descent.
    PRUNE_CASES = [(3, "ab"), (4, "abAB"), (4, "abcABC aab"), (5, "abcABC deDE abd"),
                   (5, "aeDEbcdcdEbcdcedcdB"), (2, "aab a")]

    @pytest.mark.parametrize("rank,texts", PRUNE_CASES)
    def test_pruned_scan_examples(self, rank, texts):
        ws = tuple(parse_cyclic(t, Alphabet.of_rank(rank)) for t in texts.split())
        for bound in (-3, -2, -1, 0):
            assert_pruned_scan(ws, bound)

    def test_pruning_cases_cover_zero_degree_and_full_cuts(self):
        graph, degrees = _whitehead_graph(codes_of((cyc("ab", A3),)), 3)
        assert degrees[4] == 0 and _flow_reaches(graph, 6, 4, 0)
        graph, degrees = _whitehead_graph(codes_of((cyc("abAB", Alphabet.of_rank(4)),)), 4)
        assert degrees[0] == 2 and _flow_reaches(graph, 8, 0, 2)

    @settings(max_examples=60, deadline=None)
    @given(cyclic_tuples(ranks=(2, 3, 4)))
    def test_flow_matches_brute_force_min_cut(self, ws):
        rank = ws[0].alphabet.rank
        size = 2 * rank
        graph, degrees = _whitehead_graph(codes_of(ws), rank)
        for x in range(size):
            others = [v for v in range(size) if v not in (x, x ^ 1)]
            cut = min(
                sum(graph[a * size + b] for a in side for b in range(size) if b not in side)
                for k in range(len(others) + 1)
                for extra in itertools.combinations(others, k)
                for side in [{x, *extra}]
            )
            for target in range(degrees[x] + 2):
                assert _flow_reaches(graph, size, x, target) == (cut >= target)

    @settings(max_examples=60, deadline=None)
    @given(cyclic_tuples())
    def test_descent_matches_brute_force(self, ws):
        assert minimize_tuple(ws) == brute_force_minimize(ws)

    @settings(max_examples=10, deadline=None)
    @given(cyclic_tuples(ranks=(5,), max_words=2, max_len=5))
    def test_rank5_descent_matches_brute_force(self, ws):
        assert minimize_tuple(ws) == brute_force_minimize(ws)

    @settings(max_examples=25, deadline=None)
    @given(cyclic_tuples(ranks=(2, 3), max_words=2, max_len=3))
    def test_orbit_matches_brute_force(self, ws):
        minimal, _ = minimize_tuple(ws)
        # The oracle costs seconds on rank-3 orbits of longer tuples.
        assume(minimal[0].alphabet.rank == 2 or total_length(minimal) <= 4)
        assert equal_length_orbit(minimal) == brute_force_orbit(minimal)


def codes_of(ws):
    return [w.codes for w in ws]


def assert_pruned_scan(ws, bound):
    """The pruned scan yields, in order, exactly the candidates of the full
    scan whose generator has a candidate with change <= bound in either
    of its two blocks; a bound of 0 prunes nothing."""
    rank = ws[0].alphabet.rank
    full = list(_length_changes(codes_of(ws), rank, 0))
    assert len(full) == len(enumerate_whitehead(rank))
    if bound < 0:
        kept = {m >> 1 for m, _, change in full if change <= bound}
    else:
        kept = set(range(rank))
    pruned = list(_length_changes(codes_of(ws), rank, bound))
    assert pruned == [c for c in full if c[0] >> 1 in kept]


class TestDescentWork:
    # (rank, tuple, descent length); the last is a generator image.
    CASES = [
        (3, "abAB", 0),
        (4, "abcdABCD", 0),
        (4, "abcABC aab", 3),
        (3, "abcab bc", 4),
        (5, "abcABC deDE abd", 2),
        (5, "aeDEbcdcdEbcdcedcdB", 17),
    ]

    @pytest.mark.parametrize("rank,texts,steps", CASES)
    def test_applies_only_the_moves_taken(self, monkeypatch, rank, texts, steps):
        # Each step images every word once, on its code word.
        calls = []
        original = whitehead._cyclic_image

        def counting(images, word):
            calls.append(word)
            return original(images, word)

        monkeypatch.setattr(whitehead, "_cyclic_image", counting)
        ws = tuple(parse_cyclic(t, Alphabet.of_rank(rank)) for t in texts.split())
        _, descent = minimize_tuple(ws)
        assert len(descent) == steps
        assert len(calls) == len(ws) * len(descent)

    @pytest.mark.parametrize("rank,texts,steps", CASES)
    def test_one_least_rotation_per_moved_word(self, monkeypatch, rank, texts, steps):
        ws = tuple(parse_cyclic(t, Alphabet.of_rank(rank)) for t in texts.split())
        calls = []

        def counting(keys):
            calls.append(len(keys))
            return _least_rotation_start(keys)

        monkeypatch.setattr("freegroups.words._least_rotation_start", counting)
        monkeypatch.setattr(whitehead, "_least_rotation_start", counting)
        _, descent = minimize_tuple(ws)
        # The words are rotated once, at the end, and only if they moved.
        assert len(calls) == (len(ws) if descent else 0)


    @pytest.mark.parametrize("rank,texts", [(2, "abAB"), (3, "abc"), (3, "abAB c"), (3, "aab bc")])
    def test_orbit_rotates_each_image_once(self, monkeypatch, rank, texts):
        # Each image, a multiplier's from _cyclic_image or a relabeling's
        # from one pass over the rank's relabelings, is rotated once, so
        # the members are built without a second rotation.
        ws = tuple(parse_cyclic(t, Alphabet.of_rank(rank)) for t in texts.split())
        rotations, images, passes = [], [], []
        original = whitehead._cyclic_image
        relabelings = whitehead._relabelings

        class Counting(tuple):
            def __iter__(self):
                passes.append(len(self))
                return super().__iter__()

        def counting(keys):
            rotations.append(len(keys))
            return _least_rotation_start(keys)

        def imaging(images_, word):
            images.append(word)
            return original(images_, word)

        monkeypatch.setattr("freegroups.words._least_rotation_start", counting)
        monkeypatch.setattr(whitehead, "_least_rotation_start", counting)
        monkeypatch.setattr(whitehead, "_cyclic_image", imaging)
        monkeypatch.setattr(whitehead, "_relabelings", lambda rank: Counting(relabelings(rank)))
        orbit = equal_length_orbit(ws)
        assert passes
        assert len(rotations) == len(images) + len(ws) * sum(passes)
        monkeypatch.undo()
        for member in orbit:
            assert member == tuple(CyclicWord._of(w.alphabet, w.codes) for w in member)


class TestNoAutomorphismTable:
    def test_requests_build_no_automorphism_objects(self):
        enumerate_whitehead.cache_clear()
        enumerate_relabelings.cache_clear()
        for argv in (
            ["wmin", "-n", "5", "--steps", "aeDEbcdcdEbcdcedcdB"],
            ["wmin", "-n", "5", "abcABC deDE abd"],
            ["primitive", "-n", "5", "abcdeab"],
            ["dist2-word", "-n", "4", "abcab", "bcd"],
            ["orbit", "-n", "3", "Acb"],
        ):
            assert run(argv)[0] in (0, 1)
        assert enumerate_whitehead.cache_info().currsize == 0
        assert enumerate_relabelings.cache_info().currsize == 0


class TestBudgets:
    def test_default_admits_rank_six(self):
        assert 2 * 6 * (4**5 - 1) <= WHITEHEAD_BUDGET
        assert math.factorial(6) * 2**6 <= WHITEHEAD_BUDGET

    def test_enumerations_check_the_budget(self, monkeypatch):
        # Rank 2 has 12 multipliers and 8 relabelings.
        enumerate_whitehead.cache_clear()
        enumerate_relabelings.cache_clear()
        _multiplier_cuts.cache_clear()
        monkeypatch.setattr(whitehead, "WHITEHEAD_BUDGET", 11)
        with pytest.raises(WhiteheadBudgetError):
            enumerate_whitehead(2)
        with pytest.raises(WhiteheadBudgetError):
            minimize_tuple((cyc("ab"),))
        assert len(enumerate_relabelings(2)) == 8
        monkeypatch.setattr(whitehead, "WHITEHEAD_BUDGET", 7)
        enumerate_relabelings.cache_clear()
        with pytest.raises(WhiteheadBudgetError):
            enumerate_relabelings(2)
        with pytest.raises(WhiteheadBudgetError):
            equal_length_orbit((cyc("a"),))
        # The orbit refused before it built the cut table.
        assert _multiplier_cuts.cache_info().currsize == 0

    def test_cli_exits_2_over_budget(self, monkeypatch):
        _multiplier_cuts.cache_clear()
        monkeypatch.setattr(whitehead, "WHITEHEAD_BUDGET", 11)
        message = "error: rank 2 has 12 multiplier automorphisms, over the budget of 11\n"
        assert run(["wmin", "-n", "2", "ab"]) == (2, "", message)
        assert run(["primitive", "-n", "2", "ab"]) == (2, "", message)
        assert run(["orbit", "-n", "2", "ab"]) == (2, "", message)

    def test_orbit_closure_checks_the_budget(self, monkeypatch):
        # aabbcc's closure holds 9 relabeling classes of 3!·2³ = 48 images.
        assert run(["orbit", "-n", "3", "aabbcc"])[0] == 0
        monkeypatch.setattr(whitehead, "WHITEHEAD_BUDGET", 431)
        message = (
            "error: the orbit closure needs at least 432 relabeling images,"
            " over the budget of 431\n"
        )
        assert run(["orbit", "-n", "3", "aabbcc"]) == (2, "", message)
        # aaabbb is minimal and outside the orbit, so same_orbit needs
        # the whole closure; aacbbc is in one of its first eight classes.
        with pytest.raises(WhiteheadBudgetError, match="orbit closure"):
            same_orbit((cyc("aabbcc", A3),), (cyc("aaabbb", A3),))
        assert same_orbit((cyc("aabbcc", A3),), (cyc("aacbbc", A3),))

    def test_orbit_builds_the_relabelings_once_per_rank(self, monkeypatch):
        # The orbit keeps each rank's relabelings, and checks the budget
        # before it builds them.
        walks = []
        original = whitehead._signed_permutations

        def counting(rank):
            walks.append(rank)
            return original(rank)

        monkeypatch.setattr(whitehead, "_signed_permutations", counting)
        whitehead._relabelings.cache_clear()
        a4 = Alphabet.of_rank(4)
        assert len(equal_length_orbit((cyc("a", a4),))) == 8
        assert len(equal_length_orbit((cyc("aa", a4),))) == 8
        assert walks == [4]
        message = "error: rank 7 has 645120 relabelings, over the budget of 50000\n"
        assert run(["orbit", "-n", "7", "ab"]) == (2, "", message)
        assert walks == [4]

    def test_same_orbit_stops_at_a_match(self):
        # bbaaccddee relabels aabbccddee, so the closure's first class
        # holds it; the whole closure passes the budget in its 14th.
        a5 = Alphabet.of_rank(5)
        assert same_orbit((cyc("aabbccddee", a5),), (cyc("bbaaccddee", a5),))
        assert same_orbit((cyc("aabbccddee", a5),), (cyc("eeDDccbbaa", a5),))

    def test_orbit_closure_stops_at_the_default_budget(self):
        # Each rank-5 class costs 5!·2⁵ = 3,840 images; the fourteenth
        # passes 50,000, long before the closure would fill memory.
        message = (
            "error: the orbit closure needs at least 53760 relabeling images,"
            " over the budget of 50000\n"
        )
        assert run(["orbit", "-n", "5", "aabbccddee"]) == (2, "", message)
        code, out, _ = run(["orbit", "-n", "4", "aabbccdd"])
        assert code == 0 and len(out.splitlines()) == 23_424


class TestOrbits:
    def test_large_rank_writes_no_warning(self):
        # cli.run writes to no shared stream; the relabeling budget bounds
        # the orbit.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(["orbit", "-n", "6", "a"])
        assert (code, err) == (0, "")
        assert caught == []

    def test_singleton_orbit(self):
        orbit = equal_length_orbit((cyc("a"),))
        texts = sorted(str(t[0]) for t in orbit)
        assert texts == ["A", "B", "a", "b"]

    def test_same_orbit_examples(self):
        assert same_orbit((cyc("ab"),), (cyc("a"),))
        assert same_orbit((cyc("abAB"),), (cyc("baBA"),))
        assert not same_orbit((cyc("abAB"),), (cyc("aabb"),))
        assert not same_orbit((cyc("a"),), (cyc("aa"),))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            same_orbit((cyc("a"),), (cyc("a"), cyc("b")))
        with pytest.raises(AlphabetMismatchError):
            same_orbit((cyc("a"),), (cyc("a", A3),))

    def test_orbit_closed_under_inverse_moves(self):
        orbit = equal_length_orbit((cyc("abAB"),))
        for t in enumerate_relabelings(2):
            for member in orbit:
                image = tuple(t.apply_to_cyclic(w) for w in member)
                assert image in orbit


class TestPrimitive:
    def test_examples(self):
        assert is_primitive(parse_word("a", A2))
        assert is_primitive(parse_word("ab", A2))
        assert is_primitive(parse_word("aab", A2))
        assert is_primitive(parse_word("abA", A2))  # conjugate of b
        assert not is_primitive(parse_word("aa", A2))
        assert not is_primitive(parse_word("abAB", A2))
        assert not is_primitive(parse_word("abab", A2))

    def test_trivial_raises(self):
        for text in ("1", "aA"):
            with pytest.raises(TrivialWordError, match="the trivial word is not primitive"):
                is_primitive(parse_word(text, A2))

    def test_matches_oracle_exhaustively(self):
        for w in all_cyclic_words(A2, 4):
            assert is_primitive(w.as_word()) == (exhaustive_min_length(w) == 1)

    def test_rank3(self):
        assert is_primitive(parse_word("abc", A3))
        assert not is_primitive(parse_word("aabb", A3))


class TestClassifyPair:
    def test_examples(self):
        assert classify_pair(cyc("a"), cyc("b")) == PairClass.DISJOINT
        assert classify_pair(cyc("a"), cyc("a")) == PairClass.FRUGAL
        assert classify_pair(cyc("ab"), cyc("a")) == PairClass.NEITHER
        assert classify_pair(cyc("a", A3), cyc("b", A3)) == PairClass.BOTH

    def test_good_flag(self):
        assert classify_pair(cyc("a"), cyc("b")).is_good
        assert not classify_pair(cyc("ab"), cyc("ba")).is_good

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            classify_pair(cyc("a"), cyc("b", A3))


class TestGoodPairInvariants:
    def test_equal_length_images_of_good_minimal_pairs_stay_good(self):
        words = all_cyclic_words(A2, 3)
        autos = enumerate_whitehead(2) + enumerate_relabelings(2)
        for v, w in itertools.product(words, words):
            if len(v) + len(w) > 4:
                continue
            minimal, _ = minimize_tuple((v, w))
            if total_length(minimal) != len(v) + len(w):
                continue  # not minimal
            if not classify_pair(v, w).is_good:
                continue
            for t in autos:
                iv, iw = t.apply_to_cyclic(v), t.apply_to_cyclic(w)
                if len(iv) + len(iw) == len(v) + len(w):
                    assert classify_pair(iv, iw).is_good

    def test_goodness_constant_on_minimal_level(self):
        words = all_cyclic_words(A2, 3)
        for v, w in itertools.product(words, words):
            if len(v) + len(w) > 4:
                continue
            minimal, _ = minimize_tuple((v, w))
            level = equal_length_orbit(minimal)
            flags = {classify_pair(p[0], p[1]).is_good for p in level}
            assert len(flags) == 1


class TestNielsen:
    def test_apply_examples(self):
        words = apply_nielsen([rmul(0, 1)], A2)
        assert [str(w) for w in words] == ["ab", "b"]
        words = apply_nielsen([inv(0), rmul(1, 0)], A2)
        assert [str(w) for w in words] == ["A", "bA"]

    def test_decompose_examples(self):
        assert nielsen_decompose(
            [parse_word("ab", A2), parse_word("b", A2)], A2
        ) == [rmul(0, 1)]
        assert nielsen_decompose(standard_basis(A2), A2) == []
        with pytest.raises(NotABasisError):
            nielsen_decompose([parse_word("a", A2), parse_word("a", A2)], A2)
        with pytest.raises(NotABasisError):
            nielsen_decompose([parse_word("ab", A2), parse_word("ba", A2)], A2)
        with pytest.raises(NotABasisError):
            nielsen_decompose([parse_word("a", A2)], A2)

    def test_round_trip_random_builds(self):
        rng = random.Random(67)
        for alphabet in (A2, A3):
            n = alphabet.rank
            all_moves = [inv(i) for i in range(n)] + [
                rmul(i, j) for i in range(n) for j in range(n) if i != j
            ]
            for _ in range(40):
                k = rng.randrange(5)
                build = [rng.choice(all_moves) for _ in range(k)]
                target = apply_nielsen(build, alphabet)
                moves = nielsen_decompose(list(target), alphabet)
                assert apply_nielsen(moves, alphabet) == target
                assert len(moves) <= k

    def test_decomposition_of_longer_basis(self):
        target = [parse_word("aab", A2), parse_word("ab", A2)]
        moves = nielsen_decompose(target, A2)
        assert apply_nielsen(moves, A2) == tuple(target)
        # shortest elementary sequence; verified against a full search below
        assert len(moves) == iddfs_min_moves(tuple(target), A2)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reduction_round_trips(self, data):
        # Starve the search so the Nielsen reduction does all the work.
        rank = data.draw(st.sampled_from((2, 3, 4)))
        alphabet = Alphabet.of_rank(rank)
        build = data.draw(st.lists(st.sampled_from(_elementary_moves(rank)), max_size=25))
        target = apply_nielsen(build, alphabet)
        moves = _reduction_moves(tuple(w.codes for w in target))
        assert apply_nielsen(moves, alphabet) == target

    def test_reduction_crosses_equal_length_plateaus(self):
        # No entry gets shorter by multiplying it by another on either
        # side, so only length-preserving moves lead on.
        target = tuple(parse_word(t, A3) for t in ("BA", "Acb", "cA"))
        moves = _reduction_moves(tuple(w.codes for w in target))
        assert apply_nielsen(moves, A3) == target

    def test_reduction_refuses_a_tuple_that_reaches_the_trivial_word(self):
        # ab * (ab)^-1 is trivial: the last tuple with a letter left over,
        # and the first with a word still to reduce.
        for texts, alphabet in ((("ab", "ab"), A2), (("abc", "abc", "c"), A3)):
            target = tuple(parse_word(t, alphabet).codes for t in texts)
            with pytest.raises(CertificateError, match="trivial word"):
                _reduction_moves(target)

    def test_moves_reject_bad_entries(self):
        for make in (lambda: rmul(1, -1), lambda: rmul(-1, 0), lambda: rmul(1, 1), lambda: inv(-1)):
            with pytest.raises(ValueError):
                make()
        # Entries index the replay's tuples, so only ints pass.
        for entries in ((1.5,), (0, "1"), ("0",), (0, 1.0), (0, "")):
            with pytest.raises(ValueError, match="integer entries"):
                NielsenTransformation(*entries)
        for move in (inv(2), rmul(0, 2), rmul(2, 0)):
            with pytest.raises(ValueError, match="outside a tuple"):
                move.apply(standard_basis(A2))
            with pytest.raises(ValueError, match="outside a tuple of 2 words"):
                apply_nielsen([inv(0), move], A2)

    def test_moves_outside_the_alphabet_are_rejected(self):
        # Over rank 2 there is no third generator to substitute or name.
        ab = parse_word("ab", A2)
        for move in (rmul(5, 0), inv(2), rmul(0, 2)):
            for call in (
                lambda: oracle.substitute(move, ab),
                lambda: oracle.substitute(move, ab, inverse=True),
                lambda: oracle.moves_apply_word([move], ab),
                lambda: oracle.moves_apply_word_inverse([move], ab),
                lambda: move.describe(A2),
            ):
                with pytest.raises(ValueError, match="outside an alphabet of rank 2"):
                    call()
        assert rmul(2, 0).describe(A3) == "rmul c a"
        assert inv(1).describe(A3) == "inv b"

    def test_substitution_matches_tuple_action(self):
        rng = random.Random(71)
        n = 2
        all_moves = [inv(i) for i in range(n)] + [
            rmul(i, j) for i in range(n) for j in range(n) if i != j
        ]
        for _ in range(40):
            build = [rng.choice(all_moves) for _ in range(rng.randrange(5))]
            target = apply_nielsen(build, A2)
            for g in range(n):
                x = Word(A2, (Letter(g, 1),))
                assert oracle.moves_apply_word(build, x) == target[g]

    def test_inverse_substitution(self):
        rng = random.Random(73)
        all_moves = [inv(0), inv(1), rmul(0, 1), rmul(1, 0)]
        for _ in range(40):
            build = [rng.choice(all_moves) for _ in range(rng.randrange(5))]
            letters = [
                Letter(rng.randrange(2), rng.choice((1, -1)))
                for _ in range(rng.randrange(7))
            ]
            w = free_reduce(letters, A2)
            there = oracle.moves_apply_word(build, w)
            back = oracle.moves_apply_word_inverse(build, w)
            assert oracle.moves_apply_word_inverse(build, there) == w
            assert oracle.moves_apply_word(build, back) == w


def iddfs_min_moves(target, alphabet, cap=8):
    # Independent oracle: iterative deepening over elementary moves.
    n = alphabet.rank
    all_moves = [inv(i) for i in range(n)] + [
        rmul(i, j) for i in range(n) for j in range(n) if i != j
    ]
    start = standard_basis(alphabet)
    for depth in range(cap + 1):
        stack = [(start, 0)]
        while stack:
            words, used = stack.pop()
            if words == target:
                return used
            if used == depth:
                continue
            for m in all_moves:
                stack.append((m.apply(words), used + 1))
        # no sequence of length <= depth found; deepen
    raise AssertionError("no decomposition within %d moves" % cap)
