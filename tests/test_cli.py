import io
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from freegroups import cli, ellipticity, whitehead
from freegroups.cli import main, run
from freegroups.stallings import CertificateError
from freegroups.whitehead import _elementary_moves, apply_nielsen
from freegroups.words import Alphabet

GRAPH_BAB = "v 2\nbase 0\ne 0 1 b\ne 1 1 a\n"


class TestHeadlineExamples:
    def test_reduce(self):
        assert run(["reduce", "-n", "2", "aA"]) == (0, "1\n", "")

    def test_member(self):
        code, out, err = run(["member", "-n", "2", "baB", "-w", "baaB"])
        assert (code, out) == (0, "true\n")

    def test_dist2_word(self):
        code, out, err = run(["dist2-word", "-n", "2", "ab", "a"])
        assert (code, out) == (0, "yes witness=split ab | a\n")


class TestExitContract:
    def test_boolean_no_is_one(self):
        assert run(["member", "-n", "2", "baB", "-w", "b"])[0] == 1
        assert run(["primitive", "-n", "2", "abAB"])[0] == 1
        assert run(["conjugate", "-n", "2", "a", "b"])[0] == 1
        assert run(["good", "-n", "2", "ab", "ba"])[0] == 1
        assert run(["dist2-split", "-n", "2", "split a | b", "split aab | ab"])[0] == 1

    def test_boolean_yes_is_zero(self):
        assert run(["primitive", "-n", "2", "aab"])[0] == 0
        assert run(["conjugate", "-n", "2", "a", "bab"])[0] == 1
        assert run(["conjugate", "-n", "2", "a", "baB"])[0] == 0

    def test_usage_errors_are_two(self):
        for argv in (
            ["bogus", "-n", "2"],
            ["reduce", "-n", "2"],  # missing word
            ["reduce", "-n", "two", "a"],
            ["reduce", "a"],  # missing alphabet
            ["reduce", "-n", "0", "a"],
            ["reduce", "-n", "-3", "a"],
            ["reduce", "--alphabet", "aB", "a"],
            ["prim-intersect", "-n", "2", "split a | b", "C", "split a | b", "A"],
        ):
            code, out, err = run(argv)
            assert code == 2, argv
            assert err

    def test_semantic_errors_are_two(self):
        for argv in (
            ["reduce", "-n", "2", "xq"],
            ["reduce", "-n", "2", "a^"],
            ["member", "-n", "1", "a", "-w", "b"],
            ["dist2-split", "-n", "2", "split a | a", "split a | b"],
            ["dist2-split", "-n", "2", "a | b", "split a | b"],
            ["dist2-split", "-n", "2", "split a | b | a", "split a | b"],
            ["dist2-word", "-n", "2", "1", "a"],
            ["prim-intersect", "-n", "2", "split a | b", "A", "split b | a", "A"],
            ["wmin", "-n", "2", ""],
        ):
            code, out, err = run(argv)
            assert code == 2, argv
            assert err.startswith("error:") or err.startswith("usage"), argv

    def test_rank_below_one(self):
        # Alphabet.of_rank refuses the rank; the message names no option.
        for rank in ("0", "-3"):
            assert run(["reduce", "-n", rank, "a"]) == (2, "", "error: rank must be at least 1\n")

    def test_help_is_zero(self):
        for argv in (["--help"], ["member", "--help"]):
            code, out, err = run(argv)
            assert code == 0
            assert "usage" in out


class TestGraphCommands:
    def test_graph_serialization(self):
        assert run(["graph", "-n", "2", "baB"]) == (0, GRAPH_BAB, "")

    def test_graph_dot_appends(self):
        code, out, err = run(["graph", "-n", "2", "baB", "--dot"])
        assert code == 0
        assert out.startswith(GRAPH_BAB)
        assert "digraph" in out and "doublecircle" in out

    def test_type_has_no_base(self):
        code, out, err = run(["type", "-n", "2", "baB"])
        assert (code, out) == (0, "v 1\ne 0 0 a\n")

    def test_intersect_six_cycle(self):
        code, out, err = run(["intersect", "-n", "2", "aa", "aaa"])
        assert code == 0
        assert out.count("\ne ") + out.startswith("e ") == 6
        assert "base 0" in out

    def test_basis_lines(self):
        code, out, err = run(["basis", "-n", "2", "aa ab ba"])
        assert code == 0
        assert out == "bA\naa\nab\n"

    def test_basis_trivial_subgroup(self):
        assert run(["basis", "-n", "2", ""]) == (0, "", "")

    def test_alphabet_flag(self):
        assert run(["graph", "--alphabet", "ab", "baB"])[1] == GRAPH_BAB
        code, out, err = run(["reduce", "--alphabet", "xy", "xyYX"])
        assert (code, out) == (0, "1\n")


class TestIso:
    def test_same_graph(self):
        assert run(["iso", "-n", "2"], GRAPH_BAB + "\n" + GRAPH_BAB) == (
            0,
            "true\n",
            "",
        )

    def test_permuted_vertices(self):
        moved = "v 2\nbase 1\ne 0 0 a\ne 1 0 b\n"
        assert run(["iso", "-n", "2"], GRAPH_BAB + "\n" + moved)[0] == 0
        assert run(["iso", "-n", "2", "--based"], GRAPH_BAB + "\n" + moved)[0] == 0

    def test_different_graphs(self):
        other = run(["graph", "-n", "2", "ab"])[1]
        code, out, err = run(["iso", "-n", "2"], GRAPH_BAB + "\n" + other)
        assert (code, out) == (1, "false\n")

    def test_based_can_differ_from_unbased(self):
        # same underlying graph, base on the other vertex of an a-path
        g = "v 2\nbase 0\ne 0 1 a\n"
        h = "v 2\nbase 1\ne 0 1 a\n"
        assert run(["iso", "-n", "2"], g + "\n" + h)[0] == 0
        assert run(["iso", "-n", "2", "--based"], g + "\n" + h)[0] == 1

    def test_empty_graphs(self):
        # A graph with no vertices counts as connected.
        assert run(["iso", "-n", "2"], "v 0\n\nv 0\n") == (0, "true\n", "")

    def test_bad_stdin(self):
        assert run(["iso", "-n", "2"], "v 1\n")[0] == 2
        assert run(["iso", "-n", "2", "--based"], "v 1\n\nv 1\nbase 0\n") == (
            2, "", "error: --based needs a base line in both graphs\n"
        )
        assert run(["iso", "-n", "2"], "")[0] == 2
        assert run(["iso", "-n", "2"], GRAPH_BAB + "\nnot a graph\n")[0] == 2

    def test_repeated_header_line(self):
        # The second 'v' line is refused, not taken in place of the first.
        graph = "v 1\nv 2\ne 0 1 a\n"
        code, out, err = run(["iso", "-n", "2"], graph + "\n" + graph)
        assert (code, out) == (2, "") and "repeated 'v' line" in err

    def test_rank_above_26(self):
        # -n names the generators a..z, so a larger rank is refused before
        # any alphabet is built.
        graphs = "v 1\nbase 0\n\nv 1\nbase 0\n"
        assert run(["iso", "-n", "27"], graphs) == (2, "", "error: rank must be at most 26\n")
        assert run(["iso", "-n", "26"], graphs) == (0, "true\n", "")
        assert run(["reduce", "-n", "26", "zaAZz"]) == (0, "z\n", "")

    def test_negative_vertex_count(self):
        code, out, err = run(["iso", "-n", "2"], "v -1\n\nv -1\n")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "negative" in err


class TestWhiteheadCommands:
    def test_wmin(self):
        assert run(["wmin", "-n", "2", "ab"]) == (0, "b\n", "")

    def test_wmin_steps(self):
        code, out, err = run(["wmin", "-n", "2", "ab", "--steps"])
        assert code == 0
        assert out == "b\nmult a b:left\n"

    def test_wmin_tuple(self):
        assert run(["wmin", "-n", "2", "ab a"])[1] == "b a\n"

    def test_orbit_sorted(self):
        code, out, err = run(["orbit", "-n", "2", "a"])
        assert (code, out) == (0, "A\nB\na\nb\n")

    def test_good_classes(self):
        assert run(["good", "-n", "2", "a", "b"]) == (0, "disjoint\n", "")
        assert run(["good", "-n", "2", "a", "a"]) == (0, "frugal\n", "")
        assert run(["good", "-n", "3", "a", "b"]) == (0, "both\n", "")
        assert run(["good", "-n", "2", "ab", "ba"])[1] == "neither\n"


class TestSplittingCommands:
    def test_dist2_split_yes(self):
        code, out, err = run(
            ["dist2-split", "-n", "2", "split a | b", "split ab | b"]
        )
        assert (code, out) == (0, "yes witness=b\n")

    def test_dist2_split_no(self):
        code, out, err = run(
            ["dist2-split", "-n", "2", "split a | b", "split aab | ab"]
        )
        assert (code, out) == (1, "no\n")

    def test_dist2_word_no(self):
        assert run(["dist2-word", "-n", "2", "abAB", "a"]) == (1, "no\n", "")

    def test_prim_intersect(self):
        code, out, err = run(
            ["prim-intersect", "-n", "3", "split a b | c", "A", "split b c | a", "A"]
        )
        assert (code, out) == (0, "b\n")

    def test_nielsen_bound(self):
        assert run(["nielsen-bound", "-n", "2", "split a | b", "split ab | b"]) == (
            0,
            "2\n",
            "",
        )
        assert run(["nielsen-bound", "-n", "2", "split a | b", "split a | b"])[1] == "0\n"
        # One basis cut at two places gives two splittings at distance two.
        assert run(["nielsen-bound", "-n", "3", "split a | b c", "split a b | c"])[1] == "2\n"

    # Both splittings verify, but their combined basis lies beyond the
    # search budget, so the Nielsen reduction gives the bound.
    BEYOND_SEARCH = ["nielsen-bound", "-n", "3", "split abc babcabc | CBAC", "split aba CABC | C"]

    # Runs the request on a fresh ball, then on the rank-3 ball deepened
    # as far as BALL_STATES lets it; prints both outputs, the depth and
    # the peak RSS in MB.
    BEYOND_CHILD = """
import resource, sys
from freegroups import whitehead
from freegroups.cli import run
print(run(sys.argv[1:]))
ball = whitehead._ball(3)
while True:
    depth = len(ball.layers)
    ball.settle(depth - 1, whitehead.BALL_STATES)
    if len(ball.layers) == depth:
        break
print(run(sys.argv[1:]))
print(len(ball.layers) - 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""

    def test_nielsen_bound_beyond_the_search_budget(self):
        # The search runs out of its budget and the reduction prints 52,
        # on a fresh ball and on the deepest one, within 200 MB.
        done = subprocess.run(
            [sys.executable, "-c", self.BEYOND_CHILD, *self.BEYOND_SEARCH],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        cold, deep, depth, rss_mb = done.stdout.splitlines()
        assert cold == deep == repr((0, "52\n", ""))
        assert int(depth) == 4
        assert int(rss_mb) < 200

    # A rank-20 request whose search layers grow up to 400-fold:
    # finishing a layer before checking the budget exhausts memory.
    RANK_20 = [
        "nielsen-bound", "-n", "20",
        "split abc | bcd cde def efg fgh ghi hij ijk jkl klm lmn mno nop opq pqr qrs rst s t",
        "split a | b c d e f g h i j k l m n o p q r s t",
    ]

    def test_search_budget_holds_mid_layer(self):
        # Under a 2 GB address-space cap the search stops at its budget
        # and the reduction gives an even bound.
        def cap():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, hard))

        done = subprocess.run(
            [sys.executable, "-m", "freegroups.cli", *self.RANK_20],
            env=child_env(), capture_output=True, text=True, timeout=120, preexec_fn=cap,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) % 2 == 0

    def test_nielsen_reduction_budget(self, monkeypatch):
        monkeypatch.setattr(whitehead, "NIELSEN_BUDGET", 3)
        code, out, err = run(self.BEYOND_SEARCH)
        assert (code, out) == (2, "")
        assert err.startswith("error: Nielsen reduction over the budget of 3 tuples")


def deepen_to_limit(rank):
    """Deepen the rank's shared Nielsen ball layer by layer, as far as
    BALL_STATES lets it; returns its depth."""
    ball = whitehead._ball(rank)
    while True:
        depth = len(ball.layers) - 1
        ball.settle(depth, whitehead.BALL_STATES)
        if len(ball.layers) - 1 == depth:
            return depth


def split_text(words, cut):
    return "split %s | %s" % (" ".join(map(str, words[:cut])), " ".join(map(str, words[cut:])))


def splitting_requests(seed, count):
    """Seeded nielsen-bound and prim-intersect requests, alternating
    ranks 2 and 3: a basis 1-4 random Nielsen moves out and one up to 10
    (rank 2) or 6 (rank 3) moves further, cut at the same place.  The
    prim-intersect moves keep entry 0, so the A factors share it."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        rank = 2 + k % 2
        kind = ("nielsen-bound", "prim-intersect")[k // 2 % 2]
        moves = _elementary_moves(rank)
        first = apply_nielsen(rng.choices(moves, k=rng.randint(1, 4)), Alphabet.of_rank(rank))
        second = first
        keep = [m for m in moves if kind == "nielsen-bound" or m.target != 0]
        for m in rng.choices(keep, k=rng.randint(1, 10 if rank == 2 else 6)):
            second = m.apply(second)
        cut = rng.randint(1, rank - 1)
        s1, s2 = split_text(first, cut), split_text(second, cut)
        tail = [s1, s2] if kind == "nielsen-bound" else [s1, "A", s2, "A"]
        out.append([kind, "-n", str(rank), *tail])
    return out


class TestDeepenedBall:
    def test_a_deepened_ball_prints_the_same(self):
        # Each request first runs alone on fresh balls, as a one-shot
        # call does.  Then all run in turn on shared balls, which deepen
        # as the searches spend backward work, and once more on balls
        # deepened as far as they go.
        requests = splitting_requests(18, 200)

        def fresh():
            whitehead._ball.cache_clear()
            ellipticity._rebase_moves.cache_clear()

        try:
            cold = []
            for argv in requests:
                fresh()
                cold.append(run(argv))
            fresh()
            shared = [run(argv) for argv in requests]
            assert all(len(whitehead._ball(rank).layers) > 3 for rank in (2, 3))
            assert (deepen_to_limit(2), deepen_to_limit(3)) == (6, 4)
            ellipticity._rebase_moves.cache_clear()
            deep = [run(argv) for argv in requests]
        finally:
            fresh()
        assert all(code == 0 for code, _, _ in cold)
        assert shared == cold
        assert deep == cold


class TestDeterminism:
    CASES = [
        (["reduce", "-n", "3", "abcCBA"], ""),
        (["graph", "-n", "2", "aab ab", "--dot"], ""),
        (["basis", "-n", "3", "ab bc ca"], ""),
        (["orbit", "-n", "2", "ab"], ""),
        (["intersect", "-n", "2", "a b", "ab"], ""),
        (["dist2-split", "-n", "3", "split a b | c", "split b c | a"], ""),
        (["iso", "-n", "2"], GRAPH_BAB + "\n" + GRAPH_BAB),
        (["--help"], ""),
    ]

    def test_double_run_identical(self):
        for argv, stdin in self.CASES:
            first = run(argv, stdin)
            second = run(argv, stdin)
            assert first == second, argv


class TestMain:
    def test_main_writes_streams(self, capsys):
        assert main(["reduce", "-n", "2", "aA"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "1\n"
        assert captured.err == ""

    def test_main_error_stream(self, capsys):
        assert main(["reduce", "-n", "2", "xq"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_library_fault_is_two(self, capsys, monkeypatch):
        # A raise other than ValueError is an error, exit 2, not the "no"
        # answer 1; main prints its traceback, and run lets it propagate.
        def forged(*args):
            raise CertificateError("forged")

        monkeypatch.setattr(cli, "nielsen_bound", forged)
        argv = ["nielsen-bound", "-n", "2", "split a | b", "split ab | b"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "CertificateError: forged" in captured.err
        with pytest.raises(CertificateError):
            run(argv)

    def test_only_a_parsed_iso_reads_stdin(self, capsys, monkeypatch):
        # Help and usage errors must not wait for standard input to close.
        class Unreadable:
            def read(self):
                raise RuntimeError("standard input was read")

        monkeypatch.setattr(sys, "stdin", Unreadable())
        assert main(["iso", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: fgt iso ")
        assert main(["iso"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: fgt iso ") and "error:" in captured.err
        assert main(["reduce", "-n", "2", "ab"]) == 0
        assert capsys.readouterr().out == "ab\n"

    def test_iso_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(GRAPH_BAB + "\n" + GRAPH_BAB))
        assert main(["iso", "-n", "2"]) == 0
        assert capsys.readouterr().out == "true\n"


COMMANDS = (
    "reduce", "cyclic", "graph", "member", "basis", "type", "intersect", "conjugate", "iso",
    "wmin", "orbit", "primitive", "good", "dist2-split", "dist2-word", "prim-intersect",
    "nielsen-bound",
)


class TestCommandSet:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, command):
        code, out, err = run([command, "--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: fgt %s " % command)

    def test_top_level_help_lists_each_command_once(self):
        code, out, err = run(["--help"])
        assert (code, err) == (0, "")
        # Command names sit at a four-space indent under "command"; their
        # wrapped help lines sit deeper.
        listed = re.findall(r"^    (\S+)", out.split("\n  command\n", 1)[1], re.M)
        assert sorted(listed) == sorted(COMMANDS)


class TestConcurrentRuns:
    def test_overlapping_calls_keep_their_own_output(self, monkeypatch):
        # Call a stops inside its command until call b is inside its own,
        # then finishes while b waits.  Output captured by swapping the
        # process-wide sys.stdout would land in the other call's buffer.
        real = cli.parse_word
        a_inside, b_inside, a_done = threading.Event(), threading.Event(), threading.Event()

        def paced(text, alphabet):
            if text == "ab":
                a_inside.set()
                assert b_inside.wait(10)
            else:
                b_inside.set()
                assert a_done.wait(10)
            return real(text, alphabet)

        monkeypatch.setattr(cli, "parse_word", paced)
        results = {}

        def call(key, word):
            results[key] = run(["reduce", "-n", "2", word])
            if key == "a":
                a_done.set()

        a = threading.Thread(target=call, args=("a", "ab"))
        b = threading.Thread(target=call, args=("b", "bA"))
        a.start()
        assert a_inside.wait(10)
        b.start()
        a.join(10)
        b.join(10)
        assert not a.is_alive() and not b.is_alive()
        assert results == {"a": (0, "ab\n", ""), "b": (0, "bA\n", "")}


ROOT = Path(__file__).resolve().parent.parent


def child_env():
    """The environment of a child Python that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def readme_examples():
    """(argv, stdout) for each `$ fgt ...` line of README's "Command line"
    block; the lines after a command, up to the next one, are its output."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "fgt", line
            examples.append((argv[1:], ""))
        else:
            argv, out = examples[-1]
            examples[-1] = (argv, out + line + "\n")
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv, stdout", README_EXAMPLES, ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_command_line_examples(argv, stdout):
    # A boolean "no" exits 1, every other answer 0.
    done = subprocess.run(
        [sys.executable, "-m", "freegroups.cli", *argv],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    expected_code = 1 if stdout in ("false\n", "no\n") else 0
    assert (done.stdout, done.returncode, done.stderr) == (stdout, expected_code, "")


def test_readme_lists_the_rebase_examples():
    commands = [argv[0] for argv, _ in README_EXAMPLES]
    assert len(commands) >= 8 and {"prim-intersect", "nielsen-bound"} <= set(commands)
