"""Correctness checks for one `fgt` request.

Every output gets an independent check built on `oracle`, never on the
library under test: a certificate where the answer carries one, and the
generator's ground truth where the input was built to have a known
answer.  On the recorded seed, outputs must also match the reference
digests taken at the commit that introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import json

import oracle as fg

# How the known defect fails (NOTES.md, "Known defect"); the traced run
# replays it once, outside the timed requests.
STALL = "error: Nielsen reduction stalled off the standard basis\n"


def input_digest(argv: list[str], stdin: str) -> str:
    return hashlib.sha256(json.dumps([argv, stdin]).encode()).hexdigest()[:16]


def output_digest(code: int, out: str) -> str:
    return hashlib.sha256(("%d\n%s" % (code, out)).encode()).hexdigest()[:16]


def _answer(code: int, out: str) -> bool:
    if (out, code) not in (("true\n", 0), ("false\n", 1)):
        raise AssertionError("bad boolean answer %r with exit %d" % (out, code))
    return code == 0


def _expect(meta: dict, got: bool, truth: bool | None = None) -> None:
    want = meta.get("expect") if truth is None else truth
    if want is not None and got != want:
        raise AssertionError("answered %s, expected %s" % (got, want))


def _type_graph(g: fg.Graph) -> fg.Graph:
    if len(g.out[g.base]) + len(g.inn[g.base]) == 1:
        return fg.core_graph(g, keep_base=False)
    return g


def _same_shape(a: fg.Graph, b: fg.Graph) -> bool:
    return (a.vertex_count, a.edge_count, a.degree_signature()) == (b.vertex_count, b.edge_count, b.degree_signature())


def _splitting(meta_split) -> tuple[fg.Graph, fg.Graph]:
    basis, cut = meta_split
    return fg.subgroup_graph(basis[:cut]), fg.subgroup_graph(basis[cut:])


def _check_graph_kinds(kind: str, meta: dict, code: int, out: str, stdin: str) -> None:
    if kind == "cyclic":
        if code != 0 or out != fg.canonical_cyclic(meta["word"]) + "\n":
            raise AssertionError("not the canonical cyclic word")
        return
    own = fg.subgroup_graph(meta["gens"])
    if kind == "graph":
        if code != 0 or fg.graph_from_text(out).canonical() != own.canonical():
            raise AssertionError("graph differs from the folded core graph")
    elif kind == "basis":
        words = out.split()
        if code != 0 or len(words) != own.rank:
            raise AssertionError("basis has %d words, subgroup rank %d" % (len(words), own.rank))
        if fg.subgroup_graph(words).canonical() != own.canonical():
            raise AssertionError("basis does not rebuild to a based-isomorphic graph")
    elif kind == "member":
        _expect(meta, _answer(code, out), own.contains(meta["word"]))
    elif kind == "type":
        got = fg.graph_from_text(out)
        if code != 0 or got.base is not None or not _same_shape(got, _type_graph(own)):
            raise AssertionError("type graph has the wrong shape")
    elif kind == "intersect":
        got = fg.graph_from_text(out)
        other = fg.subgroup_graph(meta["gens2"])
        if code != 0 or not all(got.contains(w) for w in meta["shared"]):
            raise AssertionError("intersection misses a shared element")
        if not all(own.contains(w) and other.contains(w) for w in got.basis()):
            raise AssertionError("intersection holds an element outside a factor")
    elif kind == "conjugate":
        other = fg.subgroup_graph(meta["gens2"])
        truth = False if not _same_shape(_type_graph(own), _type_graph(other)) else None
        _expect(meta, _answer(code, out), truth)
    elif kind == "iso":
        first, second = (fg.graph_from_text(b) for b in stdin.split("\n\n"))
        if "--based" in meta.get("argv", ()):
            truth = first.canonical() == second.canonical()
        else:
            truth = None if _same_shape(first, second) else False
        _expect(meta, _answer(code, out), truth)
    else:
        raise AssertionError("unknown kind %r" % kind)


def _replay(words: list[str], lines: list[str]) -> list[str]:
    """Apply the printed descent to the input; each step must shorten it."""
    cur = [fg.cyclic_core(fg.reduce_codes(fg.codes(w))) for w in words]
    length = sum(map(len, cur))
    for line in lines:
        mult, actions = fg.parse_mult(line)
        cur = [fg.cyclic_core(fg.apply_whitehead(w, mult, actions)) for w in cur]
        if sum(map(len, cur)) >= length:
            raise AssertionError("descent step %r does not shorten" % line)
        length = sum(map(len, cur))
    return [fg.text(fg.least_rotation(w)) for w in cur]


def _elliptic(word: str, factors) -> bool:
    return any(f.contains_conjugate(word) for f in factors)


def _check_whitehead_kinds(kind: str, meta: dict, code: int, out: str) -> None:
    words = meta["words"]
    rank = meta["rank"]
    if kind == "wmin":
        lines = out.splitlines()
        if code != 0 or not lines:
            raise AssertionError("no minimized tuple")
        if _replay(words, lines[1:]) != lines[0].split():
            raise AssertionError("descent does not replay to the printed tuple")
        if meta.get("expect") and len(lines[0]) != 1:
            raise AssertionError("a primitive word did not minimize to a letter")
    elif kind == "primitive":
        _expect(meta, _answer(code, out))
    elif kind == "good":
        sv, sw = fg.support(words[0]), fg.support(words[1])
        frugal, disjoint = len(sv | sw) < rank, not (sv & sw)
        want = {(True, True): "both", (True, False): "frugal", (False, True): "disjoint"}.get((frugal, disjoint), "neither")
        if out != want + "\n" or code != (1 if want == "neither" else 0):
            raise AssertionError("classified %r, expected %s" % (out, want))
    elif kind == "orbit":
        lines = out.splitlines()
        start = fg.canonical_cyclic(words[0])
        if code != 0 or start not in lines or lines != sorted(set(lines)):
            raise AssertionError("orbit misses its start or is not sorted and distinct")
        if any(fg.canonical_cyclic(l) != l or len(l) != len(start) for l in lines):
            raise AssertionError("orbit holds a non-canonical or different-length word")
    elif kind == "dist2-word":
        if out == "no\n" and code == 1:
            _expect(meta, False)
            return
        head = "yes witness=split "
        if code != 0 or not out.startswith(head):
            raise AssertionError("bad answer %r" % out)
        left, bar, right = out[len(head):].strip().partition(" | ")
        a, b = left.split(), right.split()
        if not bar or len(a) + len(b) != rank or not fg.is_basis(a + b, rank):
            raise AssertionError("witness is not a free splitting")
        factors = (fg.subgroup_graph(a), fg.subgroup_graph(b))
        if (factors[0].rank, factors[1].rank) != (len(a), len(b)):
            raise AssertionError("witness factor ranks do not match")
        if not all(_elliptic(w, factors) for w in words):
            raise AssertionError("a word is not elliptic to the witness splitting")
    else:
        raise AssertionError("unknown kind %r" % kind)


def _check_splitting_kinds(kind: str, meta: dict, code: int, out: str) -> None:
    if kind == "dist2-split":
        if out == "no\n" and code == 1:
            _expect(meta, False)
            return
        head = "yes witness="
        if code != 0 or not out.startswith(head):
            raise AssertionError("bad answer %r" % out)
        witness = out[len(head):].strip()
        if fg.reduce(witness) == "1":
            raise AssertionError("trivial witness")
        if not all(_elliptic(witness, _splitting(meta[s])) for s in ("s1", "s2")):
            raise AssertionError("witness is not conjugate into a factor of both splittings")
    elif kind == "prim-intersect":
        word = out.strip()
        f1, f2 = meta["factors"]
        h = _splitting(meta["s1"])["AB".index(f1)]
        k = _splitting(meta["s2"])["AB".index(f2)]
        if code != 0 or fg.reduce(word) == "1" or not (h.contains(word) and k.contains(word)):
            raise AssertionError("result is not a nontrivial element of both factors")
    elif kind == "nielsen-bound":
        bound = int(out)
        if code != 0 or bound < 0 or bound % 2:
            raise AssertionError("bound %d is not even and non-negative" % bound)
        if not meta.get("beyond_budget") and bound > 2 * meta["moves"]:
            raise AssertionError("bound %d exceeds twice the %d generating moves" % (bound, meta["moves"]))
    else:
        raise AssertionError("unknown kind %r" % kind)


def check(req, code: int, out: str, err: str) -> str | None:
    """None when the output is right, else a one-line reason.  A request
    that exits 2 is reported through `failure`, not here."""
    meta = dict(req.meta, argv=req.argv)
    try:
        if req.kind in ("dist2-split", "prim-intersect", "nielsen-bound"):
            _check_splitting_kinds(req.kind, meta, code, out)
        elif req.kind in ("wmin", "primitive", "good", "orbit", "dist2-word"):
            _check_whitehead_kinds(req.kind, meta, code, out)
        else:
            _check_graph_kinds(req.kind, meta, code, out, req.stdin)
    except Exception as exc:  # malformed output must be reported, not crash the run
        return "%s: %r" % (req.kind, exc)
    return None


def is_known_defect(req, code: int, err: str) -> bool:
    return code == 2 and err == STALL and bool(req.meta.get("known_defect"))
