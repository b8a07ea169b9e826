"""Benchmark generators, oracle and tracer: determinism and agreement.

The oracle is checked against the library on small inputs, so that a
benchmark failure means the program is wrong rather than the oracle.
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hierdepth import agcode, cli, gf  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert [workloads.render(s) for s in first] == [
        workloads.render(s) for s in workloads.generate(workload, 7)]
    assert first != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycle_shape_does_not_depend_on_seed(workload):
    def shape(spec):
        if workload == "desk-mix":  # small requests vary; large fields do not
            cmd = spec["cmd"].replace("-curve", "").replace("-surface", "")
            return (cmd, spec.get("p", 0).bit_length() > 20)
        return (spec["cmd"], spec.get("space"), len(spec.get("summands", ())),
                len(spec.get("degrees", ())), spec.get("points") == "all-rational")

    cycles = [workloads.generate(workload, seed) for seed in (1, 2)]
    assert sorted(map(shape, cycles[0])) == sorted(map(shape, cycles[1]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_answers_every_generated_request(workload):
    for seed in range(3):
        for spec in workloads.generate(workload, seed):
            code, want, _ = oracle.expected(spec)
            assert code in (0, 2)
            if code == 0:
                assert want["status"] in ("ok", "no-filtration", "infeasible")


def _wrong(requests):
    """The requests whose CLI answer the oracle does not accept."""
    outcomes = run.Outcomes()
    for req in requests:
        outcomes.run(cli, req)
    return [req.spec for req in requests if outcomes.failures([req])]


def test_desk_mix_agrees_with_the_cli(tmp_path):
    assert _wrong(workloads.prepare("desk-mix", 3, tmp_path)) == []


@pytest.mark.xfail(strict=True, reason="int64 product sums overflow once "
                   "n*(p-1)^2 >= 2^63, so generators near p = 2^31 come out wrong")
def test_exported_generators_near_2_31_agree(tmp_path):
    # desk-mix's exported cubic, moved from 2^24 to the top band
    specs = [dict(workloads._desk_code(random.Random(seed), "code-build",
                                       big=31, space="P2"), fmt="json")
             for seed in range(4)]
    assert all(spec["p"] > 2**30 and spec.get("export") for spec in specs)
    assert _wrong(workloads.write_requests(specs, tmp_path)) == []


def _random_matrix(rng, p):
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    return [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("p", [2, 5, 7, 1048583])
def test_rank_and_kernel_match_gf(p):
    rng = random.Random(p)
    for _ in range(40):
        rows = _random_matrix(rng, p)
        m = gf.FMatrix(p, rows)
        assert oracle.rank_mod(rows, p) == gf.rank(m)
        assert oracle.rref_mod(rows, p)[0] == gf.rref(m).tolist()
        assert oracle.kernel_mod(rows, m.cols, p) == gf.kernel_basis(m).tolist()


@pytest.mark.parametrize("space,p", [("P1", 5), ("P1", 7), ("P2", 5), ("P2", 7)])
def test_section_basis_and_evaluation_match_agcode(space, p):
    rng = random.Random(f"{space}{p}")
    nvars = 2 if space == "P1" else 3
    pts = oracle.rational_points(space, p)
    for _ in range(15):
        degree = rng.randint(1, 4)
        conds = [(rng.choice(pts), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        lib = agcode.vanishing_basis(
            degree, [agcode.VanishingCondition(q, o) for q, o in conds], space, p)
        ours = oracle.section_basis(degree, conds, nvars, p)
        assert ours == lib.basis.tolist()
        for q in rng.sample(pts, 4):
            scaled = tuple((c * 3) % p for c in q)
            want = [oracle.evaluate(row, degree, oracle.normalize(scaled, p), p)
                    for row in ours]
            assert want == [int(v) for v in agcode.evaluate_basis(lib, scaled)]


def test_brute_force_and_line_closed_form_match_min_distance():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.choice((5, 7))
        pts = oracle.rational_points("P1", p)
        slots = rng.sample(pts, rng.randint(4, p + 1))
        slots += [rng.choice(slots)] * rng.randint(0, 2)  # repeated slots
        conds = [(q, rng.randint(1, 2)) for q in rng.sample(pts, rng.randint(0, 2))]
        degree = sum(o for _, o in conds) + rng.randint(0, 2)
        basis = oracle.section_basis(degree, conds, 2, p)
        words = [[oracle.evaluate(row, degree, q, p) for q in slots] for row in basis]
        red = oracle.rref_mod(words, p)[0]
        if not red:
            continue
        code = agcode.LinearCode(
            p=p, r=1, points=tuple(slots), generator=gf.FMatrix(p, red),
            k=len(red), message_dim=len(red))
        d = agcode.min_distance(code)
        assert oracle.brute_force_distance(red, p) == d
        closed = oracle.line_distance(slots, conds, degree, p)
        if closed is not None:
            assert closed == d


def test_tail_uses_the_highest_percentile_with_ten_samples_above():
    values = [float(i) for i in range(1, 201)]
    value, q = run.tail(values)
    assert q == 90 and sum(v > value for v in values) >= 10
    assert run.tail(values[:30]) == (pytest.approx(15.5), 50)


def test_tracer_self_times_add_up_and_counts_repeat(tmp_path):
    requests = workloads.prepare("desk-mix", 2, tmp_path)
    outcomes = run.Outcomes()
    original = agcode.build_code
    tracer = spans.Tracer()
    tracer.install()
    per_cycle = []
    try:
        assert cli.build_code is not original and agcode.build_code is not original
        for _ in range(2):
            before = dict(tracer.counts)
            for i, req in enumerate(requests):
                tracer.request = i
                tracer.span(spans.ROOT, outcomes.run, (cli, req))
            per_cycle.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    finally:
        tracer.uninstall()
    assert cli.build_code is original and agcode.build_code is original
    assert per_cycle[0] == per_cycle[1]
    assert per_cycle[0]["gf.cells"] > 0 and per_cycle[0]["gf.prime_checks"] > 0
    totals = tracer.totals()
    values = spans.layer_metrics(totals, tracer.counts, 2, 1.0)
    layer_sum = sum(v for k, v in values.items() if k.endswith(("busy_ms", "self_ms")))
    assert layer_sum == pytest.approx(values["trace.wall_ms"], rel=1e-9)
    assert values["hecke.vacuous_ratio"] > 0
    assert values["agcode.contract_calls"] > 0
    path = tmp_path / "spans.csv.gz"
    tracer.write(path)
    assert path.stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "traces", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert "no program source" in done.stderr


def test_counts_from_shapes():
    tracer = spans.Tracer()
    m = gf.FMatrix(5, np.ones((3, 4), dtype=np.int64))
    spans.COUNTERS["gf.rank"](tracer, (m,), {}, None)
    spans.COUNTERS["hecke.enumerate_points"](tracer, (7,), {}, None)
    assert tracer.counts["gf.cells"] == 12
    assert tracer.counts["hecke.points_enumerated"] == 8
    code = SimpleNamespace(p=5, k=3)
    spans.COUNTERS["agcode.min_distance"](tracer, (code,), {}, 4)
    spans.COUNTERS["agcode.min_distance"](tracer, (code,), {}, agcode.INFEASIBLE)
    assert tracer.counts["agcode.classes"] == 31
    assert tracer.counts["agcode.infeasible"] == 1


def test_benchmark_file_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spans.layer_metrics({}, Counter(), 1, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"}
