"""Command-line front end: every library operation as a subcommand with
deterministic text I/O.

Exit codes: 0 for success (including "yes"/"true" answers), 1 for "no"
answers to boolean queries, 2 for usage, parse, semantic or any other
errors.
Words use the case format (a, A = a^-1, "1" trivial); subgroups are one
quoted argument of whitespace-separated generator words; splittings are
`split <words> | <words>`.

`fgt batch` serves many requests from one process. It reads standard
input to its end and takes each non-blank line as one request: the
arguments after `fgt`, split as a POSIX shell splits them (`shlex`).
For each request it writes a header line `<exit> <stdout lines> <stderr
lines>`, then that many lines of the request's standard output and then
of its standard error, so a reader can split the answers without
parsing them. A request exits as it would alone, except that one which
would read standard input (`iso`, a nested `batch`) exits 2, a line
with an unbalanced quote exits 2, and any raise other than a usage or
input error exits 2 with its traceback on the request's stderr lines;
the batch goes on with the next line and itself exits 0.
"""

from __future__ import annotations

import argparse
import re
import string
import sys
from functools import lru_cache

from .ellipticity import (
    nielsen_bound,
    primitive_in_intersection,
    splittings_distance_two,
    verify_splitting,
    words_distance_two,
)
from .stallings import (
    build_subgroup,
    conjugate_subgroups,
    contains,
    digraph_isomorphic,
    graph_from_text,
    graph_to_dot,
    graph_to_text,
    intersect,
    spanning_tree_basis,
    type_graph,
)
from .whitehead import classify_pair, equal_length_orbit, is_primitive, minimize_tuple
from .words import Alphabet, WordFormatError, parse_cyclic, parse_word


class _Exit(Exception):
    """End the invocation early with (exit code, stdout, stderr)."""


class _Parser(argparse.ArgumentParser):
    # Raise instead of printing and exiting, so that run() stays a pure
    # function and writes to no shared stream.
    def error(self, message):
        raise _Exit(2, "", "%serror: %s\n" % (self.format_usage(), message))

    def print_help(self, file=None):
        raise _Exit(0, self.format_help(), "")


def _alphabet_of(args) -> Alphabet:
    if args.rank is not None:
        if args.rank > len(string.ascii_lowercase):
            raise _Exit(2, "", "error: rank must be at most 26\n")
        return Alphabet.of_rank(args.rank)
    symbols = tuple(args.alphabet)
    if any(c not in string.ascii_lowercase for c in symbols):
        raise _Exit(
            2, "", "error: alphabet symbols must be lowercase letters, got %r\n"
            % (args.alphabet,)
        )
    return Alphabet(symbols)


def _cyclics(text: str, alphabet: Alphabet) -> tuple:
    return tuple(parse_cyclic(t, alphabet) for t in text.split())


def _subgroup(text: str, alphabet: Alphabet):
    return build_subgroup([parse_word(t, alphabet) for t in text.split()], alphabet)


def _splitting(text: str, alphabet: Alphabet):
    tokens = text.split()
    if not tokens or tokens[0] != "split":
        raise WordFormatError(
            "splitting must look like 'split <words> | <words>', got %r" % text
        )
    rest = tokens[1:]
    if rest.count("|") != 1:
        raise WordFormatError("splitting needs exactly one '|' separator")
    bar = rest.index("|")
    return verify_splitting(
        [parse_word(t, alphabet) for t in rest[:bar]],
        [parse_word(t, alphabet) for t in rest[bar + 1:]],
        alphabet,
    )


def _lines(items) -> str:
    return "".join("%s\n" % x for x in items)


def _graph(graph, alphabet: Alphabet, dot: bool) -> tuple[int, str]:
    text = graph_to_text(graph, alphabet)
    return 0, (text + graph_to_dot(graph, alphabet) if dot else text)


def _bool_answer(ok: bool) -> tuple[int, str]:
    return (0, "true\n") if ok else (1, "false\n")


def _answer(ans) -> tuple[int, str]:
    return 0 if ans.decision else 1, _lines([ans])


# A command handler takes (parsed args, alphabet, read), where read()
# returns standard input, and gives (exit code, standard output); every
# output is empty or ends in a newline, as a batch frame counts lines.
# cmd() binds the alphabet, so a parsed `handler` takes (args, read),
# as `_batch`, which needs no alphabet, does.

def _iso(args, alphabet: Alphabet, read) -> tuple[int, str]:
    # A line is blank once stripped, as graph_from_text reads lines.
    blocks = [b for b in re.split(r"\n\s*\n", read()) if b.strip()]
    if len(blocks) != 2:
        raise WordFormatError("expected two graphs on standard input separated by a blank line")
    g = graph_from_text(blocks[0], alphabet)
    h = graph_from_text(blocks[1], alphabet)
    if args.based:
        if g.base is None or h.base is None:
            raise WordFormatError("--based needs a base line in both graphs")
        return _bool_answer(digraph_isomorphic(g, h, (g.base, h.base)))
    return _bool_answer(digraph_isomorphic(g, h))


def _wmin(args, alphabet: Alphabet, read) -> tuple[int, str]:
    minimal, descent = minimize_tuple(_cyclics(args.words, alphabet))
    steps = [t.describe(alphabet) for t in descent] if args.steps else []
    return 0, _lines([" ".join(str(w) for w in minimal)] + steps)


def _good(args, alphabet: Alphabet, read) -> tuple[int, str]:
    cls = classify_pair(parse_cyclic(args.word1, alphabet), parse_cyclic(args.word2, alphabet))
    return 0 if cls.is_good else 1, _lines([cls.text])


def _prim_intersect(args, alphabet: Alphabet, read) -> tuple[int, str]:
    return 0, _lines([primitive_in_intersection(
        _splitting(args.splitting1, alphabet), args.factor1,
        _splitting(args.splitting2, alphabet), args.factor2,
    )])


def _refuse_stdin():
    raise _Exit(2, "", "error: a request in a batch cannot read standard input\n")


def _batch(args, read) -> tuple[int, str]:
    # Imported here, so that a one-shot request pays no start-up for them.
    import shlex
    import traceback

    frames = []
    for line in read().split("\n"):
        if not line.strip():
            continue
        try:
            code, out, err = _invoke(shlex.split(line), _refuse_stdin)
        except ValueError as e:  # shlex: an unbalanced quote or escape
            code, out, err = 2, "", "error: %s\n" % e
        except Exception:
            code, out, err = 2, "", traceback.format_exc()
        frames.append("%d %d %d\n%s%s" % (code, out.count("\n"), err.count("\n"), out, err))
    return 0, "".join(frames)


_WORDS = {"help": "quoted whitespace-separated words"}
_SPLIT = {"help": "'split <words> | <words>'"}
_POSITIONALS = {
    "generators": _WORDS, "generators1": _WORDS, "generators2": _WORDS,
    "words": {"help": "quoted whitespace-separated cyclic words"},
    "splitting1": _SPLIT, "splitting2": _SPLIT,
    "factor1": {"choices": ("A", "B")}, "factor2": {"choices": ("A", "B")},
}


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    # Handlers look library functions up as module globals when they run,
    # so a caller that rebinds one of those names reaches them.
    parser = _Parser(prog="fgt", description="free group toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    # Each command's own subparser, by name, for _parse.
    parser.commands = sub.choices

    def cmd(name, text, handler, *positionals, dot=False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, description=text)
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument(
            "-n", dest="rank", type=int, metavar="RANK",
            help="use the alphabet a, b, c, ... of this rank (1 to 26)",
        )
        grp.add_argument(
            "--alphabet", metavar="CHARS",
            help="explicit generator names, one lowercase letter each",
        )
        if dot:
            p.add_argument("--dot", action="store_true",
                           help="append a dot rendering after the serialization")
        for arg in positionals:
            p.add_argument(arg, **_POSITIONALS.get(arg, {}))
        p.set_defaults(handler=lambda a, read: handler(a, _alphabet_of(a), read))
        return p

    cmd("reduce", "freely reduce a word",
        lambda a, al, _: (0, _lines([parse_word(a.word, al)])), "word")
    cmd("cyclic", "cyclically reduce a word and print the canonical rotation",
        lambda a, al, _: (0, _lines([parse_cyclic(a.word, al)])), "word")
    cmd("graph", "print the subgroup graph of the generated subgroup",
        lambda a, al, _: _graph(_subgroup(a.generators, al).graph, al, a.dot),
        "generators", dot=True)
    p = cmd("member", "test membership of a word in a subgroup",
            lambda a, al, _: _bool_answer(contains(_subgroup(a.generators, al),
                                                   parse_word(a.word, al))),
            "generators")
    p.add_argument("-w", dest="word", required=True, metavar="WORD")
    cmd("basis", "print a free basis of the generated subgroup, one word per line",
        lambda a, al, _: (0, _lines(spanning_tree_basis(_subgroup(a.generators, al)))),
        "generators")
    cmd("type", "print the conjugacy-invariant type graph",
        lambda a, al, _: _graph(type_graph(_subgroup(a.generators, al)), al, a.dot),
        "generators", dot=True)
    cmd("intersect", "print the graph of the intersection of two subgroups",
        lambda a, al, _: _graph(intersect(_subgroup(a.generators1, al),
                                          _subgroup(a.generators2, al)).graph, al, a.dot),
        "generators1", "generators2", dot=True)
    cmd("conjugate", "test whether two subgroups are conjugate",
        lambda a, al, _: _bool_answer(conjugate_subgroups(_subgroup(a.generators1, al),
                                                          _subgroup(a.generators2, al))),
        "generators1", "generators2")
    p = cmd("iso", "test isomorphism of two serialized graphs read from standard "
                   "input, separated by a blank line", _iso)
    p.add_argument("--based", action="store_true",
                   help="require the isomorphism to match the base vertices")
    p = cmd("wmin", "Whitehead-minimize a tuple of cyclic words", _wmin, "words")
    p.add_argument("--steps", action="store_true",
                   help="also print the descent automorphisms, one per line")
    cmd("orbit", "print the equal-length Whitehead orbit of a tuple, one tuple per line",
        lambda a, al, _: (0, _lines(sorted(" ".join(str(w) for w in member) for member
                                           in equal_length_orbit(_cyclics(a.words, al))))),
        "words")
    cmd("primitive", "test whether a word is part of some free basis",
        lambda a, al, _: _bool_answer(is_primitive(parse_word(a.word, al))), "word")
    cmd("good", "classify a pair of cyclic words (neither / frugal / disjoint / both)",
        _good, "word1", "word2")
    cmd("dist2-split", "find a nontrivial element elliptic to both splittings",
        lambda a, al, _: _answer(splittings_distance_two(_splitting(a.splitting1, al),
                                                         _splitting(a.splitting2, al))),
        "splitting1", "splitting2")
    cmd("dist2-word", "find a free splitting to which both cyclic words are elliptic",
        lambda a, al, _: _answer(words_distance_two(parse_cyclic(a.word1, al),
                                                    parse_cyclic(a.word2, al))),
        "word1", "word2")
    cmd("prim-intersect",
        "print a primitive element in the intersection of the chosen factors",
        _prim_intersect, "splitting1", "factor1", "splitting2", "factor2")
    cmd("nielsen-bound", "print the Nielsen upper bound on the splitting distance",
        lambda a, al, _: (0, _lines([nielsen_bound(_splitting(a.splitting1, al),
                                                   _splitting(a.splitting2, al))])),
        "splitting1", "splitting2")
    text = "run one request per standard input line, each answer framed by a header line"
    sub.add_parser("batch", help=text, description=text).set_defaults(handler=_batch)
    return parser


def _parse(argv) -> argparse.Namespace:
    """The namespace of `_build_parser().parse_args(argv)`, at about
    half the cost when argv starts with a command name: that command's
    own subparser parses the rest.  The full parse stays for everything
    else, so a bare `fgt`, a leading option, an unknown name and an
    unrecognized argument keep their top-level usage and error text."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _invoke(argv, read) -> tuple[int, str, str]:
    """Parse argv and run its command's handler; only a command that
    takes standard input calls read(), and only once parsing succeeds."""
    try:
        args = _parse(argv)
        code, out = args.handler(args, read)
    except _Exit as e:
        return e.args
    except ValueError as e:  # parse and semantic errors from the library
        return 2, "", "error: %s\n" % e
    return code, out, ""


def run(argv, stdin: str = "") -> tuple[int, str, str]:
    """Execute one invocation purely: (exit code, stdout, stderr).

    The output is this call's own text, never written to a shared
    stream, so concurrent calls from several threads cannot mix it."""
    return _invoke(argv, lambda: stdin)


def main(argv=None) -> int:
    try:
        code, out, err = _invoke(sys.argv[1:] if argv is None else argv, sys.stdin.read)
    except Exception:
        # Any other raise, a failed certificate or exhausted memory, is an
        # error too: exit 2 with its traceback, never 1, the "no" answer.
        sys.excepthook(*sys.exc_info())
        return 2
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
