"""End-to-end benchmark of the quantalab CLI, with an outside-in layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one `python -m quantalab.cli ...` invocation in a fresh process,
run one at a time (a closed loop with one client), because that is what a
user pays per call: interpreter start, imports, parsing, a cold residuum
memo, the work and the report.  Ops come in cycles (see gen.py); the run
runs the whole number of cycles that comes closest to S seconds.

Every op is checked: exit code 0, the verdict fields of its report, and the
report's SHA-256 against bench/golden.json, so any byte change in a report
fails the op.

--trace 0 prints the end-to-end metrics, whose times are nominal seconds:
seconds on a machine of fixed speed.  While children run, a speed probe
(SpeedProbe), a thread of this process, times a fixed chunk of rational
arithmetic every 20 ms.  One ref is 1000 times the median chunk time
during a child, and the child's wall and CPU times are scaled by
NOMINAL_REF_S / ref.  The benchmark and its children are pinned to one
CPU, so the probe times the core the child runs on.  The shared machine's
speed drifts by a quarter or more within a minute and the chunk drifts with
it, so nominal seconds compare two commits where raw seconds cannot.  The
raw medians in seconds are printed on the information line.

--trace 1 runs each op twice, plainly and under bench/tracer.py, and prints
the per-layer metrics (per op, averaged over the traced ops) in raw
seconds, with trace.overhead_ratio, the traced median op time over the
plain one.  The last stdout line is the result object; the line before it
records the Python version, git SHA and CPU count, and with --trace 0 the
raw medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from gen import WORK_DIR, WORKLOADS, Cycles, Op

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
# Stop starting ops once this much time has passed, and kill any op still
# running at the hard limit, so the whole run ends within 180 s.
SOFT_LIMIT_S = 150.0
HARD_LIMIT_S = 170.0
SETUP_PROBES = 21
PROBE_EVERY_S = 0.02
PROBE_MIN_SAMPLES = 3
# About what one ref takes on a shared 2-core x86 VM with Python 3.11.
NOMINAL_REF_S = 0.4
SETUP_PROBE = """
import sys
import quantalab.cli
from quantalab.serialize import load_quantale, load_scenario
(load_scenario if sys.argv[1] == "laws" else load_quantale)(sys.argv[2])
"""


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: bytes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], deadline: float) -> Proc:
    """Run a child to completion; wall time from spawn to exit, rusage from wait4."""
    errlog = ROOT / WORK_DIR / "stderr.txt"
    errlog.parent.mkdir(exist_ok=True)
    with open(errlog, "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                proc.returncode, out)


def cli_argv(op: Op) -> list[str]:
    return [sys.executable, "-m", "quantalab.cli", *op.argv]


def check(op: Op, p: Proc, golden: dict) -> str | None:
    """Why the op failed, or None when it met every expectation."""
    if p.exit != 0:
        return f"exit code {p.exit}"
    want = golden.get(op.key)
    if want is None:
        return "no golden digest for this op"
    if hashlib.sha256(p.stdout).hexdigest() != want:
        return "report bytes differ from the golden digest"
    return check_report(op, json.loads(p.stdout))


def check_report(op: Op, rep: dict) -> str | None:
    if op.kind == "laws":
        laws = rep["laws"]
        if laws["failures"] or laws["incomplete"]:
            return "law failures or incomplete law suite"
        if rep["naturality"]["failures"]:
            return "naturality failures"
        if op.two_chain and rep.get("classical_filter_oracle", {}).get("status") != "match":
            return "classical filter oracle does not match"
        return None
    if op.kind == "probe":
        return None if rep["verdict"] == "NO_VIOLATION_EXPECTED" else f"verdict {rep['verdict']}"
    if rep["verdict"] != "VIOLATION":
        return f"verdict {rep['verdict']}"
    if rep["step1_value"] != "1/1" or rep["step1_exact"] is not True:
        return "step 1 is not exactly 1"
    if Fraction(rep["step2_bound"]) > Fraction(op.lo):
        return "step 2 bound above the block's left endpoint"
    if not all(c["ok"] for c in rep["claims"]):
        return "a claim failed"
    return None


def measure_setup(op: Op, deadline: float, probe: SpeedProbe) -> list[tuple[Proc, float]]:
    """Spawn-to-exit runs, with their refs, of importing quantalab.cli and
    parsing op's input."""
    argv = [sys.executable, "-c", SETUP_PROBE, op.kind if op.kind == "laws" else "tnorm",
            op.path]
    spawn(argv, deadline)   # warm-up: writes bytecode caches on a fresh checkout
    runs = []
    for _ in range(SETUP_PROBES):
        p, ref = probe.spawn(argv, deadline)
        if p.exit != 0:
            raise RuntimeError(f"setup probe failed on {op.path}")
        runs.append((p, ref))
    return runs


def nominal(seconds: float, ref_s: float) -> float:
    """A child's time at the speed where one ref takes NOMINAL_REF_S."""
    return seconds * NOMINAL_REF_S / ref_s


def reference_work() -> Fraction:
    """The probe's fixed chunk: exact rational arithmetic, as quantalab does."""
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
    return acc


class SpeedProbe:
    """Times reference_work() every PROBE_EVERY_S seconds on a thread.

    run() pins this process and its children to one CPU, so the thread
    shares the child's core, takes about 2% of it, and measures how fast
    that core runs right now.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            t = perf_counter()
            reference_work()
            self.samples.append((t, perf_counter() - t))
            self._stop.wait(PROBE_EVERY_S)

    def spawn(self, argv: list[str], deadline: float) -> tuple[Proc, float]:
        """Run a child, and return it with the ref measured while it ran."""
        start = perf_counter()
        p = spawn(argv, deadline)
        return p, self.ref_s(start, perf_counter())

    def ref_s(self, start: float, end: float) -> float:
        """One ref in seconds: 1000 times the median chunk time during [start, end].

        Call it when the op has just ended.  An op too short to hold
        PROBE_MIN_SAMPLES samples is timed against the latest ones.
        """
        during = [d for t, d in self.samples if start <= t <= end]
        if len(during) < PROBE_MIN_SAMPLES:
            during = [d for _, d in self.samples[-PROBE_MIN_SAMPLES:]]
        return 1000 * statistics.median(during)


# -- per-layer metrics from traces --------------------------------------------

def layer_metrics(traces: list[dict], plain_walls: list[float],
                  traced_walls: list[float]) -> dict:
    n = len(traces)
    calls, total, self_s, layer_self = Counter(), Counter(), Counter(), Counter()
    sizes: dict[str, list] = defaultdict(list)
    counts, busy = Counter(), Counter()
    level_members = 0
    for tr in traces:
        spans = tr["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(spans):
            own = end - start - covered[i]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
            if size is not None:
                sizes[name].append(size)
            if name == "semifilter.level_prefilter" and parent >= 0 \
                    and spans[parent][0] == "semifilter.conical_coreflection":
                level_members += size
        counts.update(tr["counts"])
        busy.update(tr["busy"])

    def per_op(v):
        return v / n

    def ratio(a, b):
        return a / b if b else 0.0

    def col(name, k):
        return sum(s[k] for s in sizes[name])

    res_calls = counts["quantale.FiniteQuantale.residuum"]
    return {
        "quantale.finite_residuum.calls": per_op(res_calls),
        "quantale.finite_residuum.busy_s": per_op(busy["quantale.FiniteQuantale.residuum"]),
        "quantale.finite_residuum.cache_hit_ratio":
            ratio(counts["quantale.FiniteQuantale.residuum.hits"], res_calls),
        "quantale.finite_tensor.calls": per_op(counts["quantale.FiniteQuantale.tensor"]),
        "quantale.tnorm_residuum.calls": per_op(counts["quantale.TNorm.residuum"]),
        "quantale.tnorm_residuum.busy_s": per_op(busy["quantale.TNorm.residuum"]),
        "quantale.tnorm_tensor.calls": per_op(counts["quantale.TNorm.tensor"]),
        "qfun.sub.calls": per_op(counts["qfun.sub"]),
        "qfun.sub.busy_s": per_op(busy["qfun.sub"]),
        "qfun.all_qfunctions.yielded": per_op(counts["qfun.all_qfunctions"]),
        "prefilter.normalize_basis.calls": per_op(calls["prefilter.normalize_basis"]),
        "prefilter.normalize_basis.self_s": per_op(self_s["prefilter.normalize_basis"]),
        "prefilter.normalize_basis.basis_out_per_call":
            ratio(sum(sizes["prefilter.normalize_basis"]), calls["prefilter.normalize_basis"]),
        "prefilter.eval_degree.calls": per_op(counts["prefilter.eval_degree"]),
        "semifilter.table.built": per_op(calls["semifilter.table.init"]),
        "semifilter.table.entries": per_op(sum(sizes["semifilter.table.init"])),
        "semifilter.table.init_self_s": per_op(self_s["semifilter.table.init"]),
        "semifilter.conical_coreflection.calls":
            per_op(calls["semifilter.conical_coreflection"]),
        "semifilter.conical_coreflection.self_s":
            per_op(self_s["semifilter.conical_coreflection"]),
        "semifilter.conical_coreflection.level_members_per_call":
            ratio(level_members, calls["semifilter.conical_coreflection"]),
        "semifilter.conical_bounded_coreflection.calls":
            per_op(calls["semifilter.conical_bounded_coreflection"]),
        "semifilter.conical_bounded_coreflection.self_s":
            per_op(self_s["semifilter.conical_bounded_coreflection"]),
        "semifilter.is_conical.calls": per_op(calls["semifilter.is_conical"]),
        "semifilter.is_conical.self_s": per_op(self_s["semifilter.is_conical"]),
        "semifilter.kowalsky_sum.calls": per_op(calls["semifilter.kowalsky_sum"]),
        "semifilter.kowalsky_sum.self_s": per_op(self_s["semifilter.kowalsky_sum"]),
        "semifilter.enumerate.candidates":
            per_op(col("semifilter.enumerate_semifilters", 0)),
        "semifilter.enumerate.accept_ratio":
            ratio(col("semifilter.enumerate_semifilters", 1),
                  col("semifilter.enumerate_semifilters", 0)),
        "semifilter.enumerate.self_s": per_op(self_s["semifilter.enumerate_semifilters"]),
        "semifilter.budget_refusals": per_op(counts["semifilter.budget_refusals"]),
        "monad.law_scenarios": per_op(sum(sizes["monad.check_monad_laws"])),
        "monad.check_monad_laws.total_s": per_op(total["monad.check_monad_laws"]),
        "monad.random_scenario.total_s": per_op(total["monad.random_scenario"]),
        "monad.kleisli_extend.applications": per_op(calls["monad.kleisli_extend.apply"]),
        "monad.kleisli_extend.self_s":
            per_op(self_s["monad.kleisli_extend"] + self_s["monad.kleisli_extend.apply"]),
        "monad.check_naturality.total_s": per_op(total["monad.check_naturality"]),
        "monad.multiplication_prefilter_members.total_s":
            per_op(total["monad.multiplication_prefilter_members"]),
        "monad.classical_correspondence.total_s":
            per_op(total["monad.classical_correspondence_report"]),
        "classical.self_s": per_op(layer_self["classical"]),
        "counterexample.close_catalog.exprs":
            per_op(sum(sizes["counterexample.close_catalog"])),
        "counterexample.build_catalog.self_s": per_op(self_s["counterexample.build_catalog"]),
        "counterexample.build_catalog.keep_ratio":
            ratio(col("counterexample.build_catalog", 1), col("counterexample.build_catalog", 0)),
        "counterexample.describe.calls": per_op(calls["counterexample.describe"]),
        "counterexample.describe.self_s": per_op(self_s["counterexample.describe"]),
        "counterexample.describe.samples": per_op(sum(sizes["counterexample.describe"])),
        "counterexample.eval_at.calls": per_op(counts["counterexample.eval_at"]),
        "counterexample.run.self_s": per_op(self_s["counterexample.run_counterexample"]),
        "counterexample.step2.collapse_points":
            per_op(sum(sizes["counterexample.run_counterexample"])),
        "serialize.load.total_s":
            per_op(total["serialize.load_scenario"] + total["serialize.load_quantale"]),
        "serialize.render.total_s": per_op(total["serialize.render"]),
        "cli.self_s": per_op(layer_self["cli"]),
        "trace.overhead_ratio":
            statistics.median(traced_walls) / statistics.median(plain_walls),
    }


# -- the run ------------------------------------------------------------------

def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                       text=True, timeout=30)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "quantalab").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """The result object and, for --trace 0, the raw medians in seconds."""
    t0 = perf_counter()
    soft, hard = t0 + SOFT_LIMIT_S, t0 + HARD_LIMIT_S
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    golden = json.loads(GOLDEN.read_text())
    cycles = Cycles(workload, seed)
    cycle = cycles.next()
    for op in cycle:
        op.write(ROOT)

    ops, traced_walls, traces = [], [], []   # ops: (Proc, ref_s) of each plain op
    attempted = failed = 0
    trace_file = ROOT / WORK_DIR / "trace.json"
    with SpeedProbe() as probe:
        setup = [] if trace else measure_setup(cycle[0], hard, probe)
        start = perf_counter()
        while True:
            cycle_start = perf_counter()
            for op in cycle:
                op.write(ROOT)
                p, ref = probe.spawn(cli_argv(op), hard)
                ops.append((p, ref))
                attempted += 1
                why = check(op, p, golden)
                if trace and why is None:
                    t = spawn([sys.executable, str(BENCH / "tracer.py"), str(trace_file),
                               op.key, *op.argv], hard)
                    attempted += 1
                    traced_walls.append(t.wall)
                    if t.stdout != p.stdout or t.exit != p.exit:
                        why = "traced report differs from the plain one"
                    else:
                        traces.append(json.loads(trace_file.read_text()))
                        trace_file.unlink()
                print(f"{op.key} {p.wall:.4f} s {nominal(p.wall, ref):.4f} nominal s "
                      f"{why or 'ok'}", file=sys.stderr)
                if why is not None:
                    failed += 1
            # run the whole number of cycles that comes closest to `seconds`
            now = perf_counter()
            if now - start + (now - cycle_start) / 2 >= seconds or now >= soft:
                break
            cycle = cycles.next()

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        walls = [p.wall for p, _ in ops]
        result["metrics"] = layer_metrics(traces, walls, traced_walls) if traces else {}
        return result, {}
    walls = [nominal(p.wall, ref) for p, ref in ops]
    result["metrics"] = {
        "setup_s": statistics.median(nominal(p.wall, ref) for p, ref in setup),
        "op_p50_s": statistics.median(walls),
        "op_cpu_p50_s": statistics.median(nominal(p.cpu, ref) for p, ref in ops),
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(p.rss_mb for p, _ in ops),
    }
    raw = {"setup_s": statistics.median(p.wall for p, _ in setup),
           "op_p50_s": statistics.median(p.wall for p, _ in ops),
           "op_cpu_p50_s": statistics.median(p.cpu for p, _ in ops),
           "ref_p50_s": statistics.median(ref for _, ref in ops)}
    return result, raw


def metric_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quantalab" / "cli.py").is_file():
        print(f"no quantalab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    nproc = len(os.sched_getaffinity(0))   # before run() pins this process to one CPU
    result, raw = run(args.workload, args.seed, args.seconds, bool(args.trace))
    values = result["metrics"]
    if result["correct"] and set(values) != set(units):
        print(f"metrics do not match BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": values[k], "unit": units[k]}
                         for k in units if k in values}
    print(json.dumps({"python": platform.python_version(), "git_sha": git_sha(),
                      "src_sha256": src_digest(), "nproc": nproc,
                      "workload": args.workload, "seed": args.seed, "raw": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
