"""Repository benchmark: seeded CLI workloads, timed end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 30 --trace 0

Load is closed-loop: one client in one process and one thread sends the
next request when the previous one has answered. A request goes through
`hierdepth.cli.main`, the function behind the `hierdepth` console script,
with stdout and stderr captured. The workload's cycle of requests repeats,
whole cycles only, until --seconds have passed. Every answer is checked
against the pure-integer oracle after the timed loop.

--trace 0 reports the end-to-end metrics: ops_per_s, latency_p50_ms,
latency_tail_ms, setup_s and peak_rss_mb. --trace 1 alternates untraced
cycles with cycles traced by spans around every layer (at most three pairs,
or fewer if --seconds run out) and reports the per-layer metrics per cycle,
writing the spans to perfbench/traces/. The last line of stdout is the JSON
result, preceded by '#' lines that restate it and give the error rate, the
tail percentile and its sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 11
TAIL_PERCENTILES = (50, 75, 90, 99, 99.9)
MAX_TRACED_CYCLES = 3

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Unit of every reported metric, as BENCHMARK.json declares it.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def execute(cli, request):
    """Run one request like the console script; return (exit code, answer)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(request.argv)
    if code == 0:
        answer = out.getvalue()
        if request.export:
            with open(request.export, encoding="utf-8") as fh:
                answer += "\0" + fh.read()
        return code, answer
    return code, err.getvalue()


def check(request, code, answer, cache):
    """Whether the CLI's answer matches the oracle's, at the level shown."""
    key = id(request)
    if key not in cache:
        cache[key] = oracle.expected(request.spec)
    want_code, want, generator = cache[key]
    if code != want_code:
        return False
    if code != 0:
        return answer.startswith(f"error: {want}:")
    text, _, exported = answer.partition("\0")
    if request.spec.get("fmt") == "text":
        if text.rstrip("\n").split("\n") != oracle.flatten(want):
            return False
    elif json.loads(text) != want:
        return False
    if request.export:
        rows = "".join(" ".join(map(str, row)) + "\n" for row in generator)
        return exported == rows
    return True


class Outcomes:
    """Distinct answers per request, so checking can wait for the end."""

    def __init__(self):
        self.seen = {}
        self.attempted = 0

    def run(self, cli, request):
        self.attempted += 1
        try:
            result = execute(cli, request)
        except Exception as e:  # a traceback is a wrong answer, keep going
            result = (None, f"{type(e).__name__}: {e}")
        counts = self.seen.setdefault(id(request), {})
        counts[result] = counts.get(result, 0) + 1

    def failures(self, requests):
        cache = {}
        wrong = 0
        for req in requests:
            for (code, answer), n in self.seen.get(id(req), {}).items():
                if code is None or not check(req, code, answer, cache):
                    wrong += n
        return wrong


def run_cycles(cli, requests, seconds, outcomes, latencies=None):
    """Whole cycles until `seconds` have passed; returns each cycle's wall ns."""
    walls = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while not walls or time.perf_counter_ns() < deadline:
        c0 = time.perf_counter_ns()
        for req in requests:
            t0 = time.perf_counter_ns()
            outcomes.run(cli, req)
            if latencies is not None:
                latencies.append(time.perf_counter_ns() - t0)
        walls.append(time.perf_counter_ns() - c0)
    return walls


def tail(latencies_ms):
    """Latency at the highest listed percentile with ten samples above it."""
    n = len(latencies_ms)
    best = None
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return max(latencies_ms), 100.0
    cuts = statistics.quantiles(latencies_ms, n=1000, method="inclusive")
    return cuts[round(best * 10) - 1], best


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters importing hierdepth and
    generating the workload's inputs: what each CLI invocation pays."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, waiting polls in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(cli, requests, args, outcomes):
    setup_s = measure_setup(args.workload, args.seed)
    run_cycles(cli, requests, 0, outcomes)  # warm-up: one cycle, not timed
    latencies = []
    walls = run_cycles(cli, requests, args.seconds, outcomes, latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = sorted(x / 1e6 for x in latencies)
    tail_ms, tail_q = tail(ms)
    metrics = {
        "ops_per_s": len(ms) / (sum(walls) / 1e9),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    note = (f"# {args.workload} seed {args.seed}: {len(ms)} requests in "
            f"{len(walls)} cycles of {len(requests)}, {sum(walls) / 1e9:.2f} s timed; "
            f"latency_tail_ms is p{tail_q:g} of {len(ms)} samples")
    return metrics, note


def per_layer(cli, requests, args, outcomes):
    """Untraced and traced cycles in turn, so both see the same machine."""
    run_cycles(cli, requests, 0, outcomes)  # warm-up
    tracer = spans.Tracer()
    untraced, per_cycle = [], []
    deadline = time.perf_counter() + args.seconds
    while not per_cycle or (len(per_cycle) < MAX_TRACED_CYCLES
                            and time.perf_counter() < deadline):
        untraced += run_cycles(cli, requests, 0, outcomes)
        before = dict(tracer.counts)
        tracer.install()
        try:
            for i, req in enumerate(requests):
                tracer.request = len(per_cycle) * len(requests) + i
                tracer.span(spans.ROOT, outcomes.run, (cli, req))
        finally:
            tracer.uninstall()
        per_cycle.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    cycles = len(per_cycle)
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{args.workload}.csv.gz")
    totals = tracer.totals()
    metrics = spans.layer_metrics(totals, tracer.counts, cycles,
                                  sum(untraced) / cycles)
    layers = sum(v for k, v in metrics.items() if k.endswith(("busy_ms", "self_ms")))
    steady = all(c == per_cycle[0] for c in per_cycle)
    note = (f"# {args.workload} seed {args.seed}: {cycles} traced cycles; layer "
            f"self times sum to {layers:.3f} ms of {metrics['trace.wall_ms']:.3f} ms "
            f"traced wall per cycle; counts repeat every cycle: {steady}")
    return metrics, note


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hierdepth" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hierdepth import cli

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        requests = workloads.prepare(args.workload, args.seed, workdir)
        outcomes = Outcomes()
        measure = per_layer if args.trace else end_to_end
        metrics, note = measure(cli, requests, args, outcomes)
        failed = outcomes.failures(requests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(note)
    print(f"# error_rate {failed / outcomes.attempted:.6f} "
          f"({failed} wrong or raised of {outcomes.attempted} attempted)")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
