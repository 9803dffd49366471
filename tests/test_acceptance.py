"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic; the only tolerances are the stated
runtime budgets.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import time
from fractions import Fraction as F

from quantalab.counterexample import VIOLATION, run_counterexample
from quantalab.errors import BudgetError
from quantalab.monad import (Variant, check_monad_laws, check_naturality,
                             classical_correspondence_report)
from quantalab.prefilter import normalize_basis
from quantalab.qfun import QFunction, finite_set
from quantalab.finite import five_chain, godel3, mv3, two_chain
from quantalab.grid import grid
from quantalab.quantale import (Block, BlockKind, build_ordinal_sum, check_condition_s,
                                godel_tnorm, lukasiewicz_tnorm,
                                positive_residuum_zero_sup, product_tnorm)
from quantalab.semifilter import (check_axioms, conical_bounded_coreflection,
                                  conical_coreflection, conical_semifilters,
                                  enumerate_semifilters, kowalsky_sum,
                                  level_prefilter, residuate, semifilter_of,
                                  SemifilterFamily)

from oracles import ConicalTest, is_conical

GODEL = godel_tnorm()
PROD = product_tnorm()
LUK = lukasiewicz_tnorm()
BLOCK = build_ordinal_sum([(F(1, 4), F(1, 2), "lukasiewicz")])

CHAINS = {"two-chain": two_chain(), "godel-3": godel3(), "mv-3": mv3(),
          "five-chain": five_chain()}


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_residuation_adjunction():
    t0 = time.monotonic()
    violations = 0
    for q in CHAINS.values():
        for x in q.elements:
            for y in q.elements:
                r = q.residuum(x, y)
                for z in q.elements:
                    if q.leq(q.tensor(x, z), y) != q.leq(z, r):
                        violations += 1
    points = grid(F(1, 64))
    assert points == [F(k, 64) for k in range(65)]
    for t in (GODEL, PROD, LUK):
        # compared on integers: a/b <= k/64 exactly when 64a <= k*b
        for x in points:
            tensors = [(64 * v.numerator, v.denominator)
                       for v in (t.tensor(x, z) for z in points)]
            for j, y in enumerate(points):
                r = t.residuum(x, y)
                r_num, r_den = 64 * r.numerator, r.denominator
                for k, (a, b) in enumerate(tensors):
                    if (a <= j * b) != (k * r_den <= r_num):
                        violations += 1
    elapsed = time.monotonic() - t0
    report(1, "residuation adjunction", violations == 0 and elapsed < 5.0,
           f"0 violations required, got {violations}; {elapsed:.2f}s < 5s")


def test_criterion_02_idempotent_collapse():
    points = grid(F(1, 64))
    violations = 0
    for p in (F(1, 4), F(1, 2)):
        for x in points:
            for y in points:
                if x <= p <= y and BLOCK.tensor(x, y) != min(x, y):
                    violations += 1
    report(2, "idempotent straddle collapses to minimum", violations == 0,
           f"{violations} violations on the 1/64 grid")


def test_criterion_03_condition_s_classifier():
    ok = (check_condition_s(GODEL) == (True, None)
          and check_condition_s(PROD) == (True, None)
          and check_condition_s(LUK) == (True, None))
    flagged, witness = check_condition_s(BLOCK)
    ok = ok and not flagged and witness == Block(F(1, 4), F(1, 2),
                                                 BlockKind.LUKASIEWICZ)
    two_block = build_ordinal_sum([(0, F(1, 4), "lukasiewicz"),
                                   (F(1, 2), F(3, 4), "lukasiewicz")])
    flagged2, witness2 = check_condition_s(two_block)
    ok = ok and not flagged2 and witness2.lo == F(1, 2)
    report(3, "condition (S) classification with witnesses", ok)


def test_criterion_04_enumeration_oracle():
    t0 = time.monotonic()
    S = finite_set("s")
    g3 = godel3()
    found = enumerate_semifilters(S, g3)

    # independent constraint-by-constraint filter over all 27 maps
    oracle = []
    for values in itertools.product(g3.elements, repeat=3):
        tbl = dict(zip(g3.elements, values))
        if tbl[F(1)] < 1:
            continue
        if any(min(tbl[a], tbl[b]) > tbl[min(a, b)]
               or g3.residuum(a, b) > g3.residuum(tbl[a], tbl[b])
               for a in g3.elements for b in g3.elements):
            continue
        oracle.append(tuple(tbl[e] for e in g3.elements))
    got = {tuple(t.entries[(e,)] for e in g3.elements) for t in found}
    ok = len(found) == 5 and got == set(oracle) and len(oracle) == 5

    conicals = [t for t in found if is_conical(t)]
    for t in found:
        below = [c for c in conicals if c.leq(t)]
        largest = max(below, key=lambda c: sum(bool(d.leq(c)) for d in below))
        ok = ok and all(c.leq(largest) for c in below)
        ok = ok and conical_coreflection(t) == largest
    elapsed = time.monotonic() - t0
    report(4, "enumeration matches the independent oracle",
           ok and elapsed < 1.0, f"5 semifilters; {elapsed:.2f}s < 1s")


def test_criterion_05_conicality_lemma_agreement():
    checked = 0
    agree = True
    budgets = {"two-chain": 2 ** 16, "godel-3": 3 ** 9, "mv-3": 3 ** 9,
               "five-chain": 3 ** 9}
    for name, q in CHAINS.items():
        for labels in (("s",), ("a", "b")):
            dom = finite_set(*labels)
            try:
                tables = enumerate_semifilters(dom, q, budget=budgets[name])
            except BudgetError:
                continue    # the five-chain at |X| = 2 exceeds the budget
            for t in tables:
                d = is_conical(t, ConicalTest.DEFINITION)
                agree = agree and d == is_conical(t, ConicalTest.SUP_FORMULA)
                agree = agree and d == is_conical(t, ConicalTest.RESIDUATION)
                checked += 1
    report(5, "three conicality tests agree on every enumerated semifilter",
           agree and checked > 0, f"{checked} tables across shipped chains")


def test_criterion_06_closure_criterion_both_directions():
    import random
    ok = True
    constructed = 0
    dom = finite_set("a", "b")
    for q in CHAINS.values():
        conicals = conical_semifilters(dom, q)
        # direction one: meets and residuations stay conical
        for t in conicals:
            for u in conicals[:8]:
                ok = ok and is_conical(t.meet(u))
            for p in q.elements:
                ok = ok and is_conical(residuate(p, t))
        # direction two: every constructed Kowalsky sum of conical data is conical
        rng = random.Random(13)
        fam = SemifilterFamily.of(conicals[:4])
        for _ in range(10):
            fns = [QFunction(fam.labels,
                             tuple(rng.choice(q.elements) for _ in fam.labels), q)
                   for _ in range(rng.choice((1, 2)))]
            outer = semifilter_of(normalize_basis(fns, fam.labels, q))
            total = kowalsky_sum(outer, fam)
            ok = ok and not check_axioms(total) and is_conical(total)
            constructed += 1
    report(6, "closure criterion in both directions", ok,
           f"{constructed} constructed sums, all conical")


def test_criterion_07_monad_laws():
    ok = True
    details = []
    for name in ("godel-3", "mv-3", "five-chain"):
        q = CHAINS[name]
        t0 = time.monotonic()
        rep = check_monad_laws(q, sizes=(2, 2, 2), scenarios=200, seed=2024)
        elapsed = time.monotonic() - t0
        ok = ok and rep.passed and elapsed < 60.0
        details.append(f"{name}: {rep.scenarios_run} scenarios, "
                       f"{len(rep.failures)} failures, {elapsed:.1f}s")
    report(7, "monad laws across the shipped chains", ok, "; ".join(details))


def test_criterion_08_classical_correspondence():
    rep = classical_correspondence_report(max_size=3)
    report(8, "two-chain agrees with the classical filter monad",
           rep.passed, f"{rep.checks} checks")


def test_criterion_09_counterexample_replication():
    t0 = time.monotonic()
    results = {}
    for variant in (Variant.PLAIN, Variant.FILTER, Variant.BOUNDED):
        results[variant] = run_counterexample(
            BLOCK, F(3, 8), F(3, 8), depth=1000, variant=variant,
            epsilon=F(1, 8))
    elapsed = time.monotonic() - t0
    ok = True
    for variant, rep in results.items():
        ok = ok and rep.verdict == VIOLATION
        ok = ok and rep.step1_value == 1 and rep.step1_exact
        ok = ok and rep.step2_bound <= F(1, 4)
        ok = ok and rep.all_claims_ok
    ok = ok and elapsed < 10.0
    report(9, "counterexample replication in all three variants", ok,
           f"step1 = 1, step2 <= 1/4, {elapsed:.1f}s < 10s at depth 1000")


def test_criterion_10_boundedness_lemma():
    ok = (positive_residuum_zero_sup(LUK) == 1
          and positive_residuum_zero_sup(GODEL) == 0
          and positive_residuum_zero_sup(PROD) == 0)
    # grid evidence: the partial suprema increase toward the exact value
    sups = [max(LUK.residuum(p, F(0)) for p in grid(step) if p > 0)
            for step in (F(1, 16), F(1, 64))]
    ok = ok and sups[0] < sups[1] < 1
    ok = ok and all(max(t.residuum(p, F(0)) for p in grid(F(1, 64)) if p > 0) == 0
                    for t in (GODEL, PROD))

    # every element of every bounded saturated prefilter is bounded,
    # exhaustively over the conical tables of the shipped chains
    checked = 0
    dom = finite_set("a", "b")
    for q in CHAINS.values():
        for t in conical_semifilters(dom, q):
            bounded_part = conical_bounded_coreflection(t)
            for lam in level_prefilter(bounded_part):
                ok = ok and min(lam.values) > 0
                checked += 1
    report(10, "boundedness lemma and positive minima", ok,
           f"{checked} members checked")


def test_criterion_11_naturality():
    ok = True
    details = []
    for name in ("godel-3", "mv-3", "five-chain"):
        rep = check_naturality(CHAINS[name], samples=8, seed=2024)
        ok = ok and rep.passed
        details.append(f"{name}: {rep.checks} checks")
    report(11, "naturality of units, flattening and coreflections", ok,
           "; ".join(details))
