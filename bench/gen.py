"""Seeded inputs for the benchmark workloads.

Every op is one `python -m quantalab.cli ...` invocation on a generated file.
A file's path and bytes depend only on the op's key, so the report an op
prints (which echoes the input path) is fixed by the key and can be checked
against a stored digest.  The workload seed only decides which keys a run
uses and in what order; it never comes from the clock.

Nothing here imports quantalab: the inputs are plain JSON, written the way a
user would write them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORK_DIR = ".bench_work"

# Laws ops run this many law scenarios per file (sizes (2, 2, 2)); the CLI
# always adds its fixed 8-sample naturality suite on top.
LAW_SCENARIOS = 20

# Every laws-five-plain and counterexample-block run measures the same fixed
# cycle; the workload seed only rotates it.  Five-chain naturality costs
# 3.7-9.8 s per law seed and a counterexample op 1.2-3.4 s per block, and a
# run has room for only a few such ops, so runs that drew their own inputs
# would swing their medians by more than any bound allows.  A run has room
# for only about four five-chain ops, so that cycle is one law seed: the
# median of a few equal ops is steady, the median of three unequal ones is
# the middle op's single time.
FIVE_LAW_SEEDS = (1,)
BLOCKS = 4

# laws-small-mixed ops each draw a law seed from this pool.  It is finite so
# that every op any seed can pick has a stored golden digest.
SMALL_LAW_SEED_POOL = 64
TRUNCATION = 1000

WORKLOADS = ("laws-five-plain", "laws-small-mixed", "counterexample-block")

_CHAINS = {
    "five": (("0/1", "1/4", "3/8", "1/2", "1/1"),
             (("0/1", "0/1", "0/1", "0/1", "0/1"),
              ("0/1", "1/4", "1/4", "1/4", "1/4"),
              ("0/1", "1/4", "1/4", "3/8", "3/8"),
              ("0/1", "1/4", "3/8", "1/2", "1/2"),
              ("0/1", "1/4", "3/8", "1/2", "1/1"))),
    "two": (("0/1", "1/1"), (("0/1", "0/1"), ("0/1", "1/1"))),
    "godel3": (("0/1", "1/2", "1/1"),
               (("0/1", "0/1", "0/1"), ("0/1", "1/2", "1/2"), ("0/1", "1/2", "1/1"))),
    "mv3": (("0/1", "1/2", "1/1"),
            (("0/1", "0/1", "0/1"), ("0/1", "0/1", "1/2"), ("0/1", "1/2", "1/1"))),
}

# laws-small-mixed cycle: (chain, variant); the two-chain op also runs the
# classical proper-filter oracle.
_SMALL_CYCLE = (("two", "filter"), ("godel3", "bounded"), ("mv3", "bounded"))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its report must show."""

    key: str            # stable identity: names the input file and the golden digest
    argv: tuple         # arguments after `python -m quantalab.cli`
    path: str           # input file, relative to the checkout root
    content: str        # the input file's text
    kind: str           # "laws", "violation" or "probe"
    lo: str = ""        # violation ops: the block's left endpoint, bounding step 2
    two_chain: bool = False

    def write(self, root: Path) -> None:
        p = root / self.path
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.content)


def _fmt(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _laws_op(workload: str, chain: str, variant: str, law_seed: int) -> Op:
    carrier, tensor = _CHAINS[chain]
    key = f"{chain}-{variant}-s{law_seed}"
    path = f"{WORK_DIR}/{workload}/{key}.json"
    content = _dump({
        "quantale": {"type": "finite", "carrier": list(carrier),
                     "tensor": [list(r) for r in tensor], "unit": "1/1"},
        "variant": variant,
        "seed": law_seed,
        "sets": {"X": ["x0", "x1"], "Y": ["y0", "y1"], "Z": ["z0", "z1"]},
        "budgets": {"scenarios": LAW_SCENARIOS},
    })
    argv = ("laws", "--scenario", path, "--format", "structured")
    return Op(key, argv, path, content, "laws", two_chain=chain == "two")


def _draw_block(rng: random.Random, kind: str) -> dict:
    """Parameters of one ordinal-sum block [lo, hi] away from zero.

    For a Lukasiewicz block, t and s lie strictly inside with
    (t - lo) + (s - lo) <= hi - lo, so t (x) s = lo, and 0 < epsilon < lo.
    For a product block, t and s just lie strictly inside.
    """
    d = rng.choice((16, 24, 32, 48, 64))
    a = rng.randint(2, d // 2)
    b = rng.randint(a + 4, d)
    w = b - a
    i = rng.randint(1, w - 2)
    j = rng.randint(1, w - i) if kind == "lukasiewicz" else rng.randint(1, w - 1)
    return {"lo": Fraction(a, d), "hi": Fraction(b, d),
            "t": Fraction(a + i, d), "s": Fraction(a + j, d),
            "epsilon": Fraction(rng.randint(1, 2 * a - 1), 2 * d)}


def _block_pool(kind: str) -> list[dict]:
    rng = random.Random(f"counterexample-block-pool:{kind}")
    return [_draw_block(rng, kind) for _ in range(BLOCKS)]


def _counterexample_op(index: int, kind: str, variant: str) -> Op:
    params = _block_pool(kind)[index]
    stem = f"{'luk' if kind == 'lukasiewicz' else 'prod'}{index:02d}"
    path = f"{WORK_DIR}/counterexample-block/{stem}.json"
    content = _dump({"type": "tnorm",
                     "blocks": [{"lo": _fmt(params["lo"]), "hi": _fmt(params["hi"]),
                                 "kind": kind}]})
    argv = ("counterexample", "--quantale", path,
            "--t", _fmt(params["t"]), "--s", _fmt(params["s"]),
            "--truncation", str(TRUNCATION), "--variant", variant,
            "--epsilon", _fmt(params["epsilon"]), "--format", "structured")
    return Op(f"{stem}-{variant}", argv, path, content,
              "violation" if kind == "lukasiewicz" else "probe",
              lo=_fmt(params["lo"]))


def _fixed_cycle(workload: str) -> list[Op]:
    if workload == "laws-five-plain":
        return [_laws_op(workload, "five", "plain", s) for s in FIVE_LAW_SEEDS]
    return [op for i in range(BLOCKS)
            for op in [_counterexample_op(i, "lukasiewicz", v)
                       for v in ("plain", "filter", "bounded")]
            + [_counterexample_op(i, "product", "plain")]]


class Cycles:
    """The endless, seeded sequence of op cycles of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; "
                             f"expected one of {', '.join(WORKLOADS)}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        if workload != "laws-small-mixed":
            cycle = _fixed_cycle(workload)
            k = self.rng.randrange(len(cycle))
            self._fixed = cycle[k:] + cycle[:k]

    def next(self) -> list[Op]:
        if self.workload != "laws-small-mixed":
            return self._fixed
        return [_laws_op(self.workload, chain, variant,
                         self.rng.randrange(1, SMALL_LAW_SEED_POOL + 1))
                for chain, variant in _SMALL_CYCLE]


def all_ops(workload: str) -> list[Op]:
    """Every op any seed can produce for the workload, for golden digests."""
    if workload != "laws-small-mixed":
        return _fixed_cycle(workload)
    return [_laws_op(workload, chain, variant, s)
            for chain, variant in _SMALL_CYCLE
            for s in range(1, SMALL_LAW_SEED_POOL + 1)]
