"""Tests of the benchmark itself.  Run: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gen import WORKLOADS, Cycles, all_ops  # noqa: E402
from run import (BENCH, GOLDEN, ROOT, SpeedProbe, check, check_report,  # noqa: E402
                 cli_argv, layer_metrics, spawn)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cycles(workload, seed, n=4):
    c = Cycles(workload, seed)
    return [c.next() for _ in range(n)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first, second = _cycles(workload, 11), _cycles(workload, 11)
    assert first == second
    for i, root in enumerate((tmp_path / "a", tmp_path / "b")):
        for cycle in (first, second)[i]:
            for op in cycle:
                op.write(root)
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    assert files
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_seed_changes_the_drawn_inputs():
    keys = {s: [op.key for cycle in _cycles("laws-small-mixed", s) for op in cycle]
            for s in (1, 2)}
    assert keys[1] != keys[2]


@pytest.mark.parametrize("workload", ["laws-five-plain", "counterexample-block"])
def test_fixed_cycle_is_the_same_work_for_every_seed(workload):
    pool = sorted(op.key for op in all_ops(workload))
    for seed in range(10):
        assert all(sorted(op.key for op in cycle) == pool for cycle in _cycles(workload, seed))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_op_a_seed_can_draw_has_a_golden_digest(workload):
    golden = json.loads(GOLDEN.read_text())
    pool = {op.key for op in all_ops(workload)}
    drawn = {op.key for s in range(20) for cycle in _cycles(workload, s) for op in cycle}
    assert drawn <= pool
    assert pool <= set(golden)


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in SPEC["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


def test_ref_is_the_median_probe_chunk_during_the_op():
    probe = SpeedProbe()
    probe.samples = [(0.0, 9e-3), (1.0, 1e-3), (1.1, 2e-3), (1.2, 3e-3), (1.3, 5e-3), (2.0, 4e-3)]
    assert probe.ref_s(1.0, 1.3) == pytest.approx(2.5)
    assert probe.ref_s(1.95, 2.05) == pytest.approx(4.0)   # short op: latest three samples


def test_speed_probe_samples_while_running_and_stops():
    with SpeedProbe() as probe:
        start = perf_counter()
        while len(probe.samples) < 4:
            assert perf_counter() - start < 30
            threading.Event().wait(0.01)
        ref = probe.ref_s(start, perf_counter())
    assert not probe._thread.is_alive()
    assert 0 < ref < 60


@pytest.fixture(scope="module")
def traced_ops():
    """One op per workload, run plainly and under the tracer."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    out = {}
    for workload in WORKLOADS:
        op = Cycles(workload, 0).next()[0]
        op.write(ROOT)
        plain = spawn(cli_argv(op), perf_counter() + 600)
        trace_file = ROOT / ".bench_work" / f"test-trace-{workload}.json"
        traced = spawn([sys.executable, str(BENCH / "tracer.py"), str(trace_file),
                        op.key, *op.argv], perf_counter() + 600)
        trace = json.loads(trace_file.read_text())
        trace_file.unlink()
        out[workload] = (op, plain, traced, trace)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_report_is_byte_identical(traced_ops, workload):
    op, plain, traced, _ = traced_ops[workload]
    golden = json.loads(GOLDEN.read_text())
    assert check(op, plain, golden) is None
    assert traced.exit == plain.exit == 0
    assert traced.stdout == plain.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_match_the_spec(traced_ops, workload):
    _, plain, traced, trace = traced_ops[workload]
    metrics = layer_metrics([trace], [plain.wall], [traced.wall])
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(v >= 0 for v in metrics.values())


def test_layer_isolation(traced_ops):
    def metrics(workload):
        _, plain, traced, trace = traced_ops[workload]
        return layer_metrics([trace], [plain.wall], [traced.wall])

    for workload in ("laws-five-plain", "laws-small-mixed"):
        m = metrics(workload)
        outside = {k: v for k, v in m.items()
                   if k.startswith(("counterexample.", "quantale.tnorm_")) and v}
        assert not outside, (workload, outside)
        assert m["qfun.sub.calls"] > 0 and m["semifilter.table.built"] > 0
    m = metrics("counterexample-block")
    outside = {k: v for k, v in m.items()
               if (k.startswith("semifilter.") or k.startswith("qfun.sub")) and v}
    assert not outside, outside
    assert m["quantale.tnorm_residuum.calls"] > 0 and m["counterexample.describe.calls"] > 0


BINDINGS_PROBE = """
import importlib, inspect, sys
sys.path.insert(0, "bench")
from tracer import LAYERS, Tracer
Tracer("probe").install()
mods = [importlib.import_module("quantalab." + n) for n in LAYERS]
unwrapped = [f"{m.__name__}.{a}" for m in mods for a, f in vars(m).items()
             if inspect.isfunction(f) and not a.startswith("_")
             and f.__module__.startswith("quantalab.") and not hasattr(f, "__wrapped__")]
assert not unwrapped, unwrapped
q = {m.__name__.split(".")[1]: m for m in mods}
assert q["prefilter"].sub is q["semifilter"].sub is q["qfun"].sub
assert q["monad"].conical_coreflection is q["semifilter"].conical_coreflection
"""


def test_tracer_rebinds_names_imported_into_other_modules():
    """Names imported from one layer into another (sub into prefilter and
    semifilter, conical_coreflection into monad, ...) must reach the wrapper."""
    p = spawn([sys.executable, "-c", BINDINGS_PROBE], perf_counter() + 60)
    assert p.exit == 0


def test_report_gate_rejects_wrong_verdicts():
    ops = {op.kind: op for op in Cycles("counterexample-block", 0).next()}
    good = {"verdict": "VIOLATION", "step1_value": "1/1", "step1_exact": True,
            "step2_bound": ops["violation"].lo, "claims": [{"ok": True}]}
    assert check_report(ops["violation"], good) is None
    for bad in ({"verdict": "NO_VIOLATION_FOUND"}, {"step1_exact": False},
                {"step2_bound": "1/1"}, {"claims": [{"ok": True}, {"ok": False}]}):
        assert check_report(ops["violation"], {**good, **bad}) is not None
    assert check_report(ops["probe"], {"verdict": "VIOLATION"}) is not None
    laws = Cycles("laws-small-mixed", 0).next()[0]
    ok = {"laws": {"failures": [], "incomplete": False}, "naturality": {"failures": []},
          "classical_filter_oracle": {"status": "match"}}
    assert check_report(laws, ok) is None
    assert check_report(laws, {**ok, "classical_filter_oracle": {"status": "mismatch"}})
    assert check_report(laws, {**ok, "laws": {"failures": [], "incomplete": True}})
