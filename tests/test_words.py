import random

import pytest
from hypothesis import given, settings, strategies as st

from freegroups.words import (
    Alphabet,
    AlphabetMismatchError,
    CyclicWord,
    Letter,
    Word,
    WordFormatError,
    concat,
    cyclic_reduce,
    free_reduce,
    invert,
    letter_support,
    parse_cyclic,
    parse_word,
)

A2 = Alphabet.of_rank(2)
A3 = Alphabet.of_rank(3)


def letters_of(text, alphabet=A2):
    # Raw letters without reduction, for feeding free_reduce.
    out = []
    for ch in text:
        out.append(Letter(alphabet.index(ch.lower()), 1 if ch.islower() else -1))
    return out


def reduce_random_order(seq, rng):
    # Oracle: cancel adjacent inverse pairs in a random order.
    seq = list(seq)
    while True:
        sites = [
            i
            for i in range(len(seq) - 1)
            if seq[i].gen == seq[i + 1].gen and seq[i].sign == -seq[i + 1].sign
        ]
        if not sites:
            return tuple(seq)
        i = rng.choice(sites)
        del seq[i : i + 2]


def random_letters(rng, alphabet, n):
    return [
        Letter(rng.randrange(alphabet.rank), rng.choice((1, -1))) for _ in range(n)
    ]


class TestAlphabet:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Alphabet(()), "at least one generator"),
            (lambda: Alphabet(("a", "b", "a")), "duplicate generator names"),
            (lambda: Alphabet.of_rank(0), "rank must be at least 1"),
            (lambda: Alphabet.of_rank(-3), "rank must be at least 1"),
            (lambda: A2.letter(2), "generator index 2 out of range"),
            (lambda: A2.letter(-1), "generator index -1 out of range"),
            (lambda: A2.letter(0, 0), "sign must be"),
            (lambda: A2.letter(1, 2), "sign must be"),
        ],
    )
    def test_rejects(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_letter_and_index(self):
        assert A2.letter(1) == Letter(1, 1)
        assert A2.letter(0, -1) == Letter(0, -1)
        assert A2.index("b") == 1
        with pytest.raises(WordFormatError, match="unknown generator 'c'"):
            A2.index("c")


class TestReduction:
    def test_parse_examples(self):
        assert str(parse_word("abA", A2)) == "abA"
        assert str(parse_word("aA", A2)) == "1"
        assert str(parse_word("1", A2)) == "1"
        assert str(parse_word("abBA", A2)) == "1"

    def test_parse_rejects_garbage(self):
        with pytest.raises(WordFormatError):
            parse_word("a b", A2)
        with pytest.raises(WordFormatError):
            parse_word("c", A2)
        with pytest.raises(WordFormatError):
            parse_word("a1", A2)

    def test_word_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            Word(A2, (Letter(0, 1), Letter(0, -1)))

    def test_reduction_matches_random_order_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            seq = random_letters(rng, A3, rng.randrange(13))
            expect = reduce_random_order(seq, rng)
            assert free_reduce(seq, A3).letters == expect

    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=12))
    def test_reduce_idempotent(self, pairs):
        seq = [Letter(g, s) for g, s in pairs]
        once = free_reduce(seq, A3)
        assert free_reduce(once.letters, A3) == once


class TestConcatInvert:
    def test_concat_cancels(self):
        u = parse_word("ab", A2)
        v = parse_word("BA", A2)
        assert (u * v).is_trivial
        assert str(u * parse_word("Ba", A2)) == "aa"

    def test_concat_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            concat(parse_word("a", A2), parse_word("a", A3))

    def test_invert_examples(self):
        assert str(invert(parse_word("abA", A2))) == "aBA"
        assert str(~parse_word("ab", A2)) == "BA"

    @given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=10))
    def test_word_times_inverse_is_trivial(self, pairs):
        w = free_reduce([Letter(g, s) for g, s in pairs], A3)
        assert (w * ~w).is_trivial
        assert (~w * w).is_trivial

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=8),
        st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=8),
    )
    def test_concat_length_bound(self, p1, p2):
        u = free_reduce([Letter(g, s) for g, s in p1], A3)
        v = free_reduce([Letter(g, s) for g, s in p2], A3)
        assert len(u * v) <= len(u) + len(v)


class TestCyclic:
    def test_cyclic_reduce_example(self):
        core, conj = cyclic_reduce(parse_word("Babab", A2))
        assert str(core) == "aab"  # canonical rotation of bab -> a first
        assert str(conj) == "B"

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            w = free_reduce(random_letters(rng, A2, rng.randrange(11)), A2)
            core, conj = cyclic_reduce(w)
            # conj * (some rotation of core) * conj^-1 == w
            back = [
                concat(concat(conj, Word(A2, rot)), invert(conj))
                for rot in (core.rotations() if len(core) else [()])
            ]
            assert w in back

    def test_rotation_invariance(self):
        w = parse_cyclic("abb", A2)
        for text in ("bba", "bab"):
            assert parse_cyclic(text, A2) == w

    def test_canonical_rotation_is_least(self):
        # letter order: a < A < b < B
        assert str(parse_cyclic("ba", A2)) == "ab"
        assert str(CyclicWord(A2, (Letter(1, 1), Letter(0, -1)))) == "Ab"

    def test_constructor_rejects_cyclically_unreduced(self):
        with pytest.raises(ValueError):
            CyclicWord(A2, (Letter(0, 1), Letter(1, 1), Letter(0, -1)))

    def test_trivial_cyclic(self):
        core, conj = cyclic_reduce(parse_word("abBA", A2))
        assert core.is_trivial and conj.is_trivial
        assert str(core) == "1"

    def test_length_at_most_word(self):
        rng = random.Random(3)
        for _ in range(200):
            w = free_reduce(random_letters(rng, A3, rng.randrange(11)), A3)
            core, _ = cyclic_reduce(w)
            assert len(core) <= len(w)


class TestSupport:
    def test_support(self):
        assert letter_support(parse_word("aBa", A2)) == {0, 1}
        assert letter_support(parse_word("aa", A2)) == {0}
        assert letter_support(parse_cyclic("c", A3)) == {2}
        assert letter_support(parse_word("1", A2)) == frozenset()
