"""Span tracing from outside the library, for the per-layer metrics.

`Tracer.install` wraps every public module-level function of the four
library modules, plus `XDigraph.arcs_from`, `WhiteheadAut.apply_to_cyclic`
and `cli.run`, and rebinds each wrapped name in every `freegroups`
module that holds it, so calls between modules are traced too.  The
private `whitehead._bidirectional_search` is wrapped only to count the
searches that ran out of budget and fell back to greedy reduction.

A span is (name, start, end, parent span, request id) plus up to three
numbers a probe reads off the call.  Spans live in flat arrays and are
aggregated or written out after the run.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "ellipticity", "whitehead", "stallings", "words")
LIBRARY = ("words", "stallings", "whitehead", "ellipticity")


def _probe_fold(args, result):
    g = args[0]
    return len(g.edges), g.vertex_count, g.vertex_count - result.vertex_count


def _probe_core(args, result):
    g = args[0]
    return len(g.edges), g.vertex_count - result.vertex_count, 0


# name -> probe(args, result) -> (a, b, c); the names are the metric names.
PROBES = {
    "stallings.fold": _probe_fold,
    "stallings.core": _probe_core,
    "stallings.product": lambda args, r: (r.vertex_count, len(r.edges), 0),
    "stallings.XDigraph.arcs_from": lambda args, r: (len(args[0].edges), 0, 0),
    "words.cyclic_reduce": lambda args, r: (len(args[0].letters), 0, 0),
    "whitehead.minimize_tuple": lambda args, r: (len(r[1]), len(r[0]), 0),
    "whitehead.equal_length_orbit": lambda args, r: (len(r), 0, 0),
    "whitehead.nielsen_decompose": lambda args, r: (len(r), 0, 0),
    "whitehead._bidirectional_search": lambda args, r: (1 if r is None else 0, 0, 0),
}

# Size buckets double from 16; the first and last are open-ended.
BUCKET_EDGES = [16 << i for i in range(9)]  # 16 .. 4096
BUCKETED = ("stallings.fold", "stallings.core", "words.cyclic_reduce")
HEAVY_FOLD = 0.25  # merged vertices / wedge vertices at or above this is heavy


def bucket(size: int) -> str:
    if size < BUCKET_EDGES[0]:
        return "in_lt%d" % BUCKET_EDGES[0]
    if size >= BUCKET_EDGES[-1]:
        return "in_ge%d" % BUCKET_EDGES[-1]
    lo = 1 << int(math.log2(size))
    return "in%d-%d" % (lo, 2 * lo - 1)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.a = array("d")
        self.b = array("d")
        self.c = array("d")
        self.stack: list[int] = []
        self.request = -1

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        names, parents, reqs = self.name, self.parent, self.req
        starts, ends, a, b, c = self.start, self.end, self.a, self.b, self.c
        stack, clock, tracer = self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(tracer.request)
            starts.append(0.0)
            ends.append(0.0)
            a.append(0.0)
            b.append(0.0)
            c.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if probe is not None:
                a[idx], b[idx], c[idx] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, pkg) -> None:
        """Wrap the library in the already-imported package `pkg`."""
        modules = {m: getattr(pkg, m) for m in LIBRARY + ("cli",)}
        wrapped = {}
        for layer in LIBRARY:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap("%s.%s" % (layer, attr), obj))
        search = modules["whitehead"]._bidirectional_search
        wrapped[id(search)] = (search, self._wrap("whitehead._bidirectional_search", search))
        for mod in list(modules.values()) + [pkg]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, attr, wrapped[id(obj)][1])
        for cls, meth, layer in ((modules["stallings"].XDigraph, "arcs_from", "stallings"),
                                 (modules["whitehead"].WhiteheadAut, "apply_to_cyclic", "whitehead")):
            setattr(cls, meth, self._wrap("%s.%s.%s" % (layer, cls.__name__, meth), getattr(cls, meth)))
        modules["cli"].run = self._wrap("cli.run", modules["cli"].run)

    # ------------------------------------------------------------ output

    def self_times(self) -> array:
        n = len(self.start)
        own = array("d", (self.end[i] - self.start[i] for i in range(n)))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def metrics(self, requests: list, per_layer: list[str]) -> dict[str, float]:
        """Aggregate spans into the declared per-layer metrics."""
        own = self.self_times()
        names = self.names
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        sums: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
        buckets: dict[str, float] = defaultdict(float)
        per_req: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0, 0.0])
        applies: dict[int, int] = defaultdict(int)
        minimize = names.index("whitehead.minimize_tuple")
        apply_ = names.index("whitehead.WhiteheadAut.apply_to_cyclic")
        for i in range(len(own)):
            name = names[self.name[i]]
            calls[name] += 1
            self_s[name] += own[i]
            if name in PROBES:
                s = sums[name]
                s[0] += self.a[i]
                s[1] += self.b[i]
                s[2] += self.c[i]
            if name in BUCKETED:
                buckets["%s.self_s.%s" % (name, bucket(int(self.a[i])))] += own[i]
            r = per_req[self.req[i]]
            if name == "stallings.fold":
                r[0] += self.b[i]  # wedge vertices
                r[1] += self.c[i]  # merged vertices
            elif name == "whitehead.minimize_tuple":
                r[2] += 1
                r[3] += self.a[i]
            elif self.name[i] == apply_ and self.parent[i] >= 0 and self.name[self.parent[i]] == minimize:
                applies[self.parent[i]] += 1
        tried = sum(applies[p] / max(1, self.b[p]) for p in applies)
        run_id = names.index("cli.run")
        run_s = sum(self.end[i] - self.start[i] for i in range(len(own)) if self.name[i] == run_id)
        out: dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in calls if k.split(".")[0] == layer]
            out["%s.calls" % layer] = sum(calls[k] for k in keys)
            out["%s.self_s" % layer] = sum(self_s[k] for k in keys)
            out["%s.self_frac" % layer] = out["%s.self_s" % layer] / run_s if run_s else 0.0
        folds = [r for r in per_req.values() if r[0]]
        minimized = [r for r in per_req.values() if r[2]]
        n = max(1, len(requests))
        derived = {
            "stallings.fold.input_edges": sums["stallings.fold"][0],
            "stallings.fold.merged_vertices": sums["stallings.fold"][2],
            "stallings.core.peeled_vertices": sums["stallings.core"][1],
            "stallings.product.vertices": sums["stallings.product"][0],
            "stallings.product.edges": sums["stallings.product"][1],
            "stallings.XDigraph.arcs_from.edges_scanned": sums["stallings.XDigraph.arcs_from"][0],
            "whitehead.minimize_tuple.descent_steps": sums["whitehead.minimize_tuple"][0],
            "whitehead.minimize_tuple.useful_ratio": sums["whitehead.minimize_tuple"][0] / tried if tried else 0.0,
            "whitehead.equal_length_orbit.size": sums["whitehead.equal_length_orbit"][0],
            "whitehead.nielsen_decompose.moves": sums["whitehead.nielsen_decompose"][0],
            "whitehead.nielsen_decompose.fallbacks": sums["whitehead._bidirectional_search"][0],
            "input.heavy_fold_share": sum(1 for r in folds if r[1] >= HEAVY_FOLD * r[0]) / max(1, len(folds)),
            "input.already_minimal_share": sum(1 for r in minimized if r[3] == 0) / max(1, len(minimized)),
            "input.repeat_first_splitting_share": sum(1 for q in requests if q.meta.get("repeat")) / n,
            "trace.spans": float(len(own)),
            "trace.cli_run_s": run_s,
        }
        for key in per_layer:
            if key in out:
                continue
            if key in derived:
                out[key] = derived[key]
            elif ".self_s.in" in key:
                out[key] = buckets.get(key, 0.0)
            elif key.endswith(".calls"):
                out[key] = calls.get(key[: -len(".calls")], 0)
            elif key.endswith(".self_s"):
                out[key] = self_s.get(key[: -len(".self_s")], 0.0)
        return out

    def dump(self, path) -> None:
        """Write every span as a gzip'd TSV row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tparent\trequest\tname\tstart_s\tend_s\ta\tb\tc\n")
            for i in range(len(self.start)):
                f.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\t%g\t%g\t%g\n" % (
                    i, self.parent[i], self.req[i], self.names[self.name[i]],
                    self.start[i], self.end[i], self.a[i], self.b[i], self.c[i]))
