"""The freegroups benchmark: seeded `fgt` requests through `cli.run`.

    python3 bench/run.py --workload graphs --seed 1 --seconds 30 --trace 0

Load model: one client in a closed loop, no think time, one process and
one thread.  A request is one `freegroups.cli.run(argv, stdin)` call, so
it is the `fgt` code path without interpreter start-up.  The deck of
requests comes from `workloads.py` and is replayed from its start, with
the library's caches reset, until `--seconds` have passed.

Times are calibrated for the host's speed (`pace.py`).  `--trace 0`
prints the end-to-end metrics; `--trace 1` runs the same timed pass,
then replays the same requests with every layer wrapped (`tracing.py`)
and prints the per-layer metrics.  Every output is checked
(`check.py`).  The last line of standard output is one JSON
object; earlier lines are a human-readable report.  `--record` replays a
whole deck once and rewrites the reference digests for that seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECK_SIZE = {"graphs": 400, "whitehead": 600, "splittings": 8000}
# Set-ups run before and again after the timed loop: each lasts a
# fraction of a second, and sampling two moments of the run keeps one
# slow moment of a shared machine from setting the median.
SETUPS = 3
# The tail is p95: a 30 s run has 280-7000 requests, so more than 10 lie
# beyond it.  The highest percentile with only 10 beyond it fell at the
# edge of a cluster of rare heavy requests and moved by 20-30% from seed
# to seed.
TAIL_PERCENTILE = 95
REFERENCE = HERE / "reference"
OUT = ROOT / ".bench_out"


def _import_library():
    """A fresh import of `freegroups` from this checkout's `src`."""
    for name in [m for m in sys.modules if m == "freegroups" or m.startswith("freegroups.")]:
        del sys.modules[name]
    pkg = importlib.import_module("freegroups")
    importlib.import_module("freegroups.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError("freegroups imported from %s, not %s" % (pkg.__file__, SRC))
    return pkg


def setup(warm, speed: pace.Pace) -> tuple[float, float, object]:
    """Import the library and run the warm-up: the metric `setup_s`.
    Returns the calibrated and the raw set-up time, and the package."""
    speed.sample()
    speed.sample()
    t0 = time.perf_counter()
    pkg = _import_library()
    for req in warm:
        code, _, err = pkg.cli.run(req.argv, req.stdin)
        if code not in (0, 1):
            raise RuntimeError("warm-up request %r exited %d: %s" % (req.argv, code, err))
    t1 = time.perf_counter()
    speed.sample()
    speed.sample()
    return (t1 - t0) * speed.factor(t0, t1), t1 - t0, pkg


def reset_caches(pkg) -> None:
    """Every pass starts from the state the warm-up left: the Whitehead
    enumerations filled, the Nielsen rebase cache empty."""
    pkg.ellipticity._rebase_moves.cache_clear()


def replay(pkg, deck, speed: pace.Pace, seconds: float | None = None, count: int | None = None, tracer=None):
    """Run requests from the deck, in order and wrapping around, until
    `seconds` have passed (finishing the request in flight) or `count`
    requests are done, sampling the host's speed between requests.
    Returns ((start, end) of each request, results, wall seconds)."""
    spans, results = [], []
    clock = time.perf_counter
    start = clock()
    deadline = start + (seconds or 0.0)
    i = 0
    while True:
        j = i % len(deck)
        if j == 0:
            reset_caches(pkg)
        req = deck[j]
        if tracer is not None:
            tracer.request = i
        speed.tick(clock())
        t0 = clock()
        try:
            res = pkg.cli.run(req.argv, req.stdin)
        except Exception as exc:  # a raise out of run() is a failed request
            res = exc
        t1 = clock()
        spans.append((t0, t1))
        results.append(res)
        i += 1
        if (count is not None and i >= count) or (count is None and t1 >= deadline):
            speed.sample()
            return spans, results, t1 - start


def load_reference(workload: str) -> dict | None:
    path = REFERENCE / ("%s.json" % workload)
    return json.loads(path.read_text()) if path.is_file() else None


def verify(deck, results, reference, seed: int) -> tuple[int, list[str]]:
    """Check every result.  Returns (failed, problems).

    A request fails when it raises, exits 2, or its output fails a
    check; every failure is a problem that makes the run incorrect."""
    ref = reference["digests"] if reference and reference["seed"] == seed else None
    failed, problems = 0, []
    first: dict[int, str] = {}
    for i, res in enumerate(results):
        j = i % len(deck)
        req = deck[j]
        if isinstance(res, Exception):
            failed += 1
            problems.append("request %d %s raised %r" % (i, req.argv[:1], res))
            continue
        code, out, err = res
        digest = check.output_digest(code, out)
        if code == 2:
            failed += 1
            problems.append("request %d %s exited 2: %s" % (i, req.argv[:1], err.strip()))
            continue
        if j in first:  # a later pass over the deck must repeat the first
            if digest != first[j]:
                failed += 1
                problems.append("request %d %s differs from its first run" % (i, req.argv[:1]))
            continue
        first[j] = digest
        problem = check.check(req, code, out, err)
        if ref is not None and j < len(ref):
            want_in, want_out = ref[j]
            if want_in != check.input_digest(req.argv, req.stdin):
                problem = problem or "input %d differs from the recorded deck" % j
            elif want_out != digest:
                problem = problem or "output %d differs from the reference" % j
        if problem:
            failed += 1
            problems.append("request %d: %s" % (i, problem))
    return failed, problems


def probe_known_defect(pkg) -> tuple[float, float, str | None]:
    """Run the documented `nielsen-bound` stall once (NOTES.md, "Known
    defect").  Returns (1 if it still stalls else 0, its seconds, a
    problem or None).  A fix must give output that passes its check."""
    req = workloads.known_defect()
    t0 = time.perf_counter()
    code, out, err = pkg.cli.run(req.argv, req.stdin)
    took = time.perf_counter() - t0
    if check.is_known_defect(req, code, err):
        return 1.0, took, None
    problem = "known defect exited %d: %s" % (code, err.strip()) if code == 2 else check.check(req, code, out, err)
    return 0.0, took, problem


def tail(latencies: list[float]) -> tuple[int, float]:
    """The samples beyond the TAIL_PERCENTILE, and its value."""
    value = statistics.quantiles(latencies, n=100)[TAIL_PERCENTILE - 1] if len(latencies) > 1 else latencies[0]
    return sum(1 for t in latencies if t > value), value


def last_tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with 10 samples beyond it, and its value:
    reported, but too unsteady between seeds to bound."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def shares_by_construction(deck, n: int) -> dict[str, float]:
    """Input properties the generator built in, over the requests run."""
    reqs = [deck[i % len(deck)] for i in range(n)]
    count = max(1, len(reqs))

    def share(pred) -> float:
        return sum(1 for r in reqs if pred(r.meta)) / count

    return {
        "heavy_fold_family": share(lambda m: m.get("family", "random") != "random" and "gens" in m),
        "automorphic_image": share(lambda m: m.get("image", False)),
        "repeat_first_splitting": share(lambda m: m.get("repeat", False)),
    }


def record(workload: str, seed: int) -> int:
    deck = workloads.deck(workload, seed, DECK_SIZE[workload])
    pkg = _import_library()
    for req in workloads.warmup(workload, seed):
        pkg.cli.run(req.argv, req.stdin)
    _, results, wall = replay(pkg, deck, pace.Pace(), count=len(deck))
    _, problems = verify(deck, results, None, seed)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return 1
    digests = [[check.input_digest(r.argv, r.stdin), check.output_digest(*res[:2])] for r, res in zip(deck, results)]
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / ("%s.json" % workload)
    path.write_text(json.dumps({"workload": workload, "seed": seed, "digests": digests}, separators=(",", ":")) + "\n")
    print("recorded %d requests in %.1f s to %s" % (len(deck), wall, path.relative_to(ROOT)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference digests for this seed")
    args = parser.parse_args(argv)
    if not (SRC / "freegroups" / "__init__.py").is_file():
        print("error: no library source at %s" % SRC, file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.record:
        return record(args.workload, args.seed)
    spec = metric_spec()
    deck = workloads.deck(args.workload, args.seed, DECK_SIZE[args.workload])
    warm = workloads.warmup(args.workload, args.seed)
    speed = pace.Pace()
    setups = [setup(warm, speed) for _ in range(SETUPS)]
    spans, results, wall = replay(setups[-1][2], deck, speed, seconds=args.seconds)
    rss_mb = peak_rss_mb()
    setups += [setup(warm, speed) for _ in range(SETUPS)]
    pkg = setups[-1][2]
    n = len(results)
    failed, problems = verify(deck, results, load_reference(args.workload), args.seed)
    latencies = speed.scale(spans)
    raw = [t1 - t0 for t0, t1 in spans]
    beyond, tail_s = tail(latencies)
    report = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "throughput_rps": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000.0 * tail_s, "ms"),
        "success_frac": ((n - failed) / n, "frac"),
        "failed_frac": (failed / n, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    measured = {
        "setup_s": statistics.median(s[1] for s in setups),
        "throughput_rps": n / wall,
        "latency_p50_ms": 1000.0 * statistics.median(raw),
        "latency_tail_ms": 1000.0 * tail(raw)[1],
    }
    print("workload %s seed %d: %d requests in %.3f s, %d failed"
          % (args.workload, args.seed, n, wall, failed))
    print("  %-16s %12s %12s" % ("", "calibrated", "wall clock"))
    for name, (value, unit) in report.items():
        raw_value = "%12.4f" % measured[name] if name in measured else " " * 12
        print("  %-16s %12.4f %s %s" % (name, value, raw_value, unit))
    pct, far = last_tail(latencies)
    print("  latency_tail_ms is p%d of %d samples, %d beyond it; p%.2f (10 beyond it) is %.4f ms"
          % (TAIL_PERCENTILE, n, beyond, pct, 1000.0 * far))
    print("  host speed: kernel median %.4f ms over %d samples (reference %.4f ms)"
          % (1000.0 * statistics.median(speed.took), len(speed.took), 1000.0 * pace.REFERENCE_S))
    shares = shares_by_construction(deck, n)
    print("  input shares by construction: " + ", ".join("%s %.4f" % kv for kv in shares.items()))
    for p in problems[:20]:
        print("  PROBLEM " + p)

    if args.trace:
        stalled, stall_s = 0.0, 0.0
        if args.workload == "splittings":
            stalled, stall_s, problem = probe_known_defect(pkg)
            problems += [problem] if problem else []
            print("  known defect: %s after %.3f s" % ("still stalls" if stalled else "no longer stalls", stall_s))
        tracer = tracing.Tracer()
        tracer.install(pkg)
        traced_spans, traced_results, _ = replay(pkg, deck, speed, count=n, tracer=tracer)
        problems += ["traced request %d differs from its untraced run" % i
                     for i, (a, b) in enumerate(zip(results, traced_results)) if repr(a) != repr(b)]
        reqs = [deck[i % len(deck)] for i in range(n)]
        names = [m["name"] for m in spec["per_layer"]]
        values = tracer.metrics(reqs, names)
        values["trace.overhead_frac"] = sum(speed.scale(traced_spans)) / sum(latencies) - 1.0
        values["known_defect.stalled"] = stalled
        values["known_defect.request_s"] = stall_s
        layer_sum = sum(values["%s.self_s" % layer] for layer in tracing.LAYERS)
        print("  traced: %d spans, cli.run total %.4f s, layer self times sum %.4f s, overhead %.3f"
              % (values["trace.spans"], values["trace.cli_run_s"], layer_sum, values["trace.overhead_frac"]))
        path = OUT / ("spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        tracer.dump(path)
        print("  spans written to %s" % path.relative_to(ROOT))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": not problems, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
