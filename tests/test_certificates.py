"""The library re-checks its own answers with explicit raises, so the
checks hold under `python -O`, which strips assert statements.  Each
check is forced to fail in a fresh optimized interpreter, and no module
of the library holds an assert statement."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import sys

from freegroups import ellipticity, stallings, whitehead
from freegroups.whitehead import CertificateError
from freegroups.words import Alphabet, parse_cyclic, parse_word

if not sys.flags.optimize:
    sys.exit("not running under -O")
A2 = Alphabet.of_rank(2)


def expect_certificate_error(name, call):
    try:
        call()
    except CertificateError:
        print(name, "raised")
    else:
        print(name, "passed silently")


# Splitting witness: the pulled-back splitting must make both words elliptic.
real_elliptic = ellipticity.word_elliptic
ellipticity.word_elliptic = lambda w, s: False
expect_certificate_error(
    "words_distance_two",
    lambda: ellipticity.words_distance_two(parse_cyclic("ab", A2), parse_cyclic("a", A2)),
)
ellipticity.word_elliptic = real_elliptic

# Nielsen replay: the move list must rebuild the target basis.
real_replay = whitehead._replay
whitehead._replay = lambda moves, rank, forward=True: real_replay((), rank)
expect_certificate_error(
    "nielsen_decompose",
    lambda: whitehead.nielsen_decompose([parse_word("ab", A2), parse_word("b", A2)], A2),
)
whitehead._replay = real_replay

# Nielsen reduction: every plateau of a certified basis has a way down,
# so a non-basis passed as certified must not be reduced silently.
expect_certificate_error(
    "nielsen_reduction",
    lambda: whitehead._reduction_moves((parse_word("aa", A2).codes, parse_word("b", A2).codes)),
)

# Whitehead-graph scoring: every applied move must give the predicted length.
# Both descents and the orbit take each multiplier image from _cyclic_image.
whitehead._cyclic_image = lambda images, word: (0, 2, 2)
expect_certificate_error(
    "minimize_tuple", lambda: whitehead.minimize_tuple((parse_cyclic("ab", A2),))
)
expect_certificate_error(
    "equal_length_orbit", lambda: whitehead.equal_length_orbit((parse_cyclic("a", A2),))
)
expect_certificate_error("is_primitive", lambda: whitehead.is_primitive(parse_word("ab", A2)))

# build_subgroup takes the graph its words fold to as the core without
# peeling it, and the graph it makes must be a core: a folded graph with
# a pendant b-edge added has a hanging vertex.
real_read = stallings._read


def pendant_read(code_words):
    adj, alias = real_read(code_words)
    adj[1][2] = len(adj)
    adj.append({3: 1})
    return adj, alias


stallings._read = pendant_read
expect_certificate_error(
    "build_subgroup", lambda: stallings.build_subgroup([parse_word("aab", A2)], A2)
)
stallings._read = real_read

# A "no" from the cycle search is re-checked by a union-find: the two
# splittings are equal, so every product of type graphs has a cycle.
real_find_cycle = ellipticity._find_cycle
ellipticity._find_cycle = lambda g: None
split = ellipticity.FreeSplitting(A2, (parse_word("a", A2),), (parse_word("b", A2),))
expect_certificate_error(
    "splittings_distance_two", lambda: ellipticity.splittings_distance_two(split, split)
)

# A "yes" witness must be conjugate into the two factors that gave it:
# ab lies in no conjugate of <a> or <b>.
ellipticity._find_cycle = lambda g: ((0, 2), 0)
expect_certificate_error(
    "splittings_distance_two witness",
    lambda: ellipticity.splittings_distance_two(split, split),
)
ellipticity._find_cycle = real_find_cycle

# The rebase's inverse images must send the combined basis back to the
# standard letters: identity images do not undo ab -> a.
ab_b = ellipticity.FreeSplitting(A2, (parse_word("ab", A2),), (parse_word("b", A2),))
ellipticity._replay = lambda moves, rank, forward=True: real_replay((), rank)
ellipticity._rebase_moves.cache_clear()
expect_certificate_error("_rebase_moves", lambda: ellipticity.nielsen_bound(ab_b, split))
ellipticity._replay = real_replay
ellipticity._rebase_moves.cache_clear()

# The primitive element must lie in both rebased factors: b is not in <a>.
real_basis = ellipticity.spanning_tree_basis
ellipticity.spanning_tree_basis = lambda h: (parse_word("b", A2),)
expect_certificate_error(
    "primitive_in_intersection",
    lambda: ellipticity.primitive_in_intersection(split, "A", split, "A"),
)
ellipticity.spanning_tree_basis = real_basis

# A splitting certifies itself at construction.
try:
    ellipticity.FreeSplitting(A2, (parse_word("ab", A2),), (parse_word("ab", A2),))
except ellipticity.DoesNotGenerateError as e:
    print("FreeSplitting raised:", e)
else:
    print("FreeSplitting passed silently")
"""


def run_optimized(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_certificate_checks_survive_optimized_mode():
    done = run_optimized(SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "words_distance_two raised",
        "nielsen_decompose raised",
        "nielsen_reduction raised",
        "minimize_tuple raised",
        "equal_length_orbit raised",
        "is_primitive raised",
        "build_subgroup raised",
        "splittings_distance_two raised",
        "splittings_distance_two witness raised",
        "_rebase_moves raised",
        "primitive_in_intersection raised",
        "FreeSplitting raised: combined basis words do not generate F",
    ]


def test_automorphism_fields_are_checked_in_optimized_mode():
    # With neither images nor a multiplier, describe and apply_to_cyclic
    # once failed on a bare assert, or under -O on a None field.
    done = run_optimized(
        "import sys\n"
        "from freegroups.whitehead import WhiteheadAut\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    WhiteheadAut(2)\n"
        "except ValueError as e:\n"
        "    print('WhiteheadAut raised:', e)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "WhiteheadAut raised: a Whitehead automorphism has images alone, or mult with actions\n"
    )


def test_library_has_no_assert_statements():
    # A check made by assert vanishes under -O, so every check raises.
    paths = sorted((SRC / "freegroups").glob("*.py"))
    assert len(paths) > 1
    asserts = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
