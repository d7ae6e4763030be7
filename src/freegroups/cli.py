"""Command-line front end: every library operation as a subcommand with
deterministic text I/O.

Exit codes: 0 for success (including "yes"/"true" answers), 1 for "no"
answers to boolean queries, 2 for usage, parse, or semantic errors.
Words use the case format (a, A = a^-1, "1" trivial); subgroups are one
quoted argument of whitespace-separated generator words; splittings are
`split <words> | <words>`.
"""

from __future__ import annotations

import argparse
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


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    parser = _Parser(prog="fgt", description="free group toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def cmd(name: str, text: str, dot: bool = False) -> argparse.ArgumentParser:
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
        return p

    p = cmd("reduce", "freely reduce a word")
    p.add_argument("word")
    p = cmd("cyclic", "cyclically reduce a word and print the canonical rotation")
    p.add_argument("word")
    p = cmd("graph", "print the subgroup graph of the generated subgroup", dot=True)
    p.add_argument("generators", help="quoted whitespace-separated words")
    p = cmd("member", "test membership of a word in a subgroup")
    p.add_argument("generators", help="quoted whitespace-separated words")
    p.add_argument("-w", dest="word", required=True, metavar="WORD")
    p = cmd("basis", "print a free basis of the generated subgroup, one word per line")
    p.add_argument("generators", help="quoted whitespace-separated words")
    p = cmd("type", "print the conjugacy-invariant type graph", dot=True)
    p.add_argument("generators", help="quoted whitespace-separated words")
    p = cmd("intersect", "print the graph of the intersection of two subgroups",
            dot=True)
    p.add_argument("generators1", help="quoted whitespace-separated words")
    p.add_argument("generators2", help="quoted whitespace-separated words")
    p = cmd("conjugate", "test whether two subgroups are conjugate")
    p.add_argument("generators1", help="quoted whitespace-separated words")
    p.add_argument("generators2", help="quoted whitespace-separated words")
    p = cmd("iso", "test isomorphism of two serialized graphs read from standard "
                   "input, separated by a blank line")
    p.add_argument("--based", action="store_true",
                   help="require the isomorphism to match the base vertices")
    p = cmd("wmin", "Whitehead-minimize a tuple of cyclic words")
    p.add_argument("words", help="quoted whitespace-separated cyclic words")
    p.add_argument("--steps", action="store_true",
                   help="also print the descent automorphisms, one per line")
    p = cmd("orbit", "print the equal-length Whitehead orbit of a tuple, "
                     "one tuple per line")
    p.add_argument("words", help="quoted whitespace-separated cyclic words")
    p = cmd("primitive", "test whether a word is part of some free basis")
    p.add_argument("word")
    p = cmd("good", "classify a pair of cyclic words "
                    "(neither / frugal / disjoint / both)")
    p.add_argument("word1")
    p.add_argument("word2")
    p = cmd("dist2-split", "find a nontrivial element elliptic to both splittings")
    p.add_argument("splitting1", help="'split <words> | <words>'")
    p.add_argument("splitting2", help="'split <words> | <words>'")
    p = cmd("dist2-word", "find a free splitting to which both cyclic words "
                          "are elliptic")
    p.add_argument("word1")
    p.add_argument("word2")
    p = cmd("prim-intersect", "print a primitive element in the intersection of "
                              "the chosen factors")
    p.add_argument("splitting1", help="'split <words> | <words>'")
    p.add_argument("factor1", choices=("A", "B"))
    p.add_argument("splitting2", help="'split <words> | <words>'")
    p.add_argument("factor2", choices=("A", "B"))
    p = cmd("nielsen-bound", "print the Nielsen upper bound on the splitting "
                             "distance")
    p.add_argument("splitting1", help="'split <words> | <words>'")
    p.add_argument("splitting2", help="'split <words> | <words>'")
    return parser


def _alphabet_of(args) -> Alphabet:
    if args.rank is not None:
        if args.rank < 1:
            raise _Exit(2, "", "error: rank must be at least 1\n")
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


def _words(text: str, alphabet: Alphabet):
    return [parse_word(t, alphabet) for t in text.split()]


def _subgroup(text: str, alphabet: Alphabet):
    return build_subgroup(_words(text, alphabet), alphabet)


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


def _dispatch(args, stdin: str) -> tuple[int, str]:
    """Run the parsed command: its exit code and its standard output."""
    alphabet = _alphabet_of(args)
    c = args.command
    if c == "reduce":
        return 0, _lines([parse_word(args.word, alphabet)])
    if c == "cyclic":
        return 0, _lines([parse_cyclic(args.word, alphabet)])
    if c == "graph":
        return _graph(_subgroup(args.generators, alphabet).graph, alphabet, args.dot)
    if c == "member":
        h = _subgroup(args.generators, alphabet)
        return _bool_answer(contains(h, parse_word(args.word, alphabet)))
    if c == "basis":
        return 0, _lines(spanning_tree_basis(_subgroup(args.generators, alphabet)))
    if c == "type":
        return _graph(type_graph(_subgroup(args.generators, alphabet)), alphabet, args.dot)
    if c == "intersect":
        met = intersect(_subgroup(args.generators1, alphabet),
                        _subgroup(args.generators2, alphabet))
        return _graph(met.graph, alphabet, args.dot)
    if c == "conjugate":
        return _bool_answer(
            conjugate_subgroups(_subgroup(args.generators1, alphabet),
                                _subgroup(args.generators2, alphabet))
        )
    if c == "iso":
        blocks = [b for b in stdin.split("\n\n") if b.strip()]
        if len(blocks) != 2:
            raise WordFormatError(
                "expected two graphs on standard input separated by a blank line"
            )
        g = graph_from_text(blocks[0], alphabet)
        h = graph_from_text(blocks[1], alphabet)
        if args.based:
            if g.base is None or h.base is None:
                raise WordFormatError("--based needs a base line in both graphs")
            return _bool_answer(digraph_isomorphic(g, h, (g.base, h.base)))
        return _bool_answer(digraph_isomorphic(g, h))
    if c == "wmin":
        tup = tuple(parse_cyclic(t, alphabet) for t in args.words.split())
        minimal, descent = minimize_tuple(tup)
        steps = [t.describe(alphabet) for t in descent] if args.steps else []
        return 0, _lines([" ".join(str(w) for w in minimal)] + steps)
    if c == "orbit":
        tup = tuple(parse_cyclic(t, alphabet) for t in args.words.split())
        return 0, _lines(sorted(
            " ".join(str(w) for w in member) for member in equal_length_orbit(tup)
        ))
    if c == "primitive":
        return _bool_answer(is_primitive(parse_word(args.word, alphabet)))
    if c == "good":
        cls = classify_pair(parse_cyclic(args.word1, alphabet),
                            parse_cyclic(args.word2, alphabet))
        return 0 if cls.is_good else 1, _lines([cls.text])
    if c == "dist2-split":
        ans = splittings_distance_two(_splitting(args.splitting1, alphabet),
                                      _splitting(args.splitting2, alphabet))
        return 0 if ans.decision else 1, _lines([ans])
    if c == "dist2-word":
        ans = words_distance_two(parse_cyclic(args.word1, alphabet),
                                 parse_cyclic(args.word2, alphabet))
        return 0 if ans.decision else 1, _lines([ans])
    if c == "prim-intersect":
        return 0, _lines([primitive_in_intersection(
            _splitting(args.splitting1, alphabet), args.factor1,
            _splitting(args.splitting2, alphabet), args.factor2,
        )])
    if c == "nielsen-bound":
        return 0, _lines([nielsen_bound(_splitting(args.splitting1, alphabet),
                                        _splitting(args.splitting2, alphabet))])
    raise AssertionError("unhandled command %r" % c)


def run(argv, stdin: str = "") -> tuple[int, str, str]:
    """Execute one invocation purely: (exit code, stdout, stderr).

    The output is this call's own text, never written to a shared
    stream, so concurrent calls from several threads cannot mix it."""
    try:
        code, out = _dispatch(_build_parser().parse_args(argv), stdin)
    except _Exit as e:
        return e.args
    except ValueError as e:  # parse and semantic errors from the library
        return 2, "", "error: %s\n" % e
    return code, out, ""


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    stdin = sys.stdin.read() if argv[:1] == ["iso"] else ""
    code, out, err = run(argv, stdin)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
