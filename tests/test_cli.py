import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import quantalab
from quantalab.cli import main
from quantalab.qfun import QFunction, finite_set
from quantalab.finite import five_chain, godel3, mv3, two_chain
from quantalab.semifilter import SemifilterTable, evaluation_unit, semifilter_of
from quantalab.scenario import semifilter_to_json
from quantalab.serialize import quantale_to_json

from test_quantale import half_unit_chain, square_lattice


class Runner:
    """Runs the CLI in this process.  The result holds the exit code, each
    stream, and in ``output`` both streams, stdout first."""

    def invoke(self, cli, args) -> SimpleNamespace:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli(args)
            except SystemExit as e:
                code = e.code or 0
        return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                               output=out.getvalue() + err.getvalue())


@pytest.fixture
def runner():
    return Runner()


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def godel_path(tmp_path):
    return write(tmp_path, "godel.json", {"type": "tnorm", "blocks": []})


@pytest.fixture
def block_path(tmp_path):
    return write(tmp_path, "block.json", {
        "type": "tnorm",
        "blocks": [{"lo": "1/4", "hi": "1/2", "kind": "lukasiewicz"}]})


def test_quantale_condition_s_satisfied(runner, godel_path):
    r = runner.invoke(main, ["quantale", "--quantale", godel_path, "--check", "s"])
    assert r.exit_code == 0
    assert "satisfied" in r.output


def test_quantale_condition_s_violated_with_witness(runner, block_path):
    r = runner.invoke(main, ["quantale", "--quantale", block_path, "--check", "s"])
    assert r.exit_code == 1
    assert "1/4" in r.output and "lukasiewicz" in r.output


def test_quantale_malformed_rational_is_input_error(runner, tmp_path):
    path = write(tmp_path, "bad.json", {
        "type": "tnorm", "blocks": [{"lo": "1/0", "hi": "1/2", "kind": "product"}]})
    r = runner.invoke(main, ["quantale", "--quantale", path, "--check", "s"])
    assert r.exit_code == 2


def test_quantale_finite_axioms_violation(runner, tmp_path):
    path = write(tmp_path, "broken.json", {
        "type": "finite", "carrier": ["0/1", "1/2", "1/1"],
        "tensor": [["0/1", "0/1", "0/1"],
                   ["0/1", "1/1", "1/2"],
                   ["0/1", "1/2", "1/1"]],
        "unit": "1/1"})
    r = runner.invoke(main, ["quantale", "--quantale", path, "--check", "axioms",
                             "--format", "structured"])
    assert r.exit_code == 1
    report = json.loads(r.output)
    assert report["axioms"]["status"] == "violated"
    assert report["axioms"]["violations"]


def test_quantale_structured_output_and_file(runner, godel_path, tmp_path):
    out = tmp_path / "report.json"
    r = runner.invoke(main, ["quantale", "--quantale", godel_path,
                             "--format", "structured", "--out", str(out),
                             "--grid-step", "1/16"])
    assert r.exit_code == 0
    report = json.loads(out.read_text())
    assert report["adjunction"]["status"] == "ok"
    assert report["condition (S)"]["status"] == "satisfied"


@pytest.mark.parametrize("checks,named", [
    (["s"], "--check s"), (["probe"], "--check probe"),
    (["s", "probe"], "--check s"), (["axioms", "probe"], "--check probe"),
])
def test_quantale_interval_checks_refuse_a_finite_definition(runner, tmp_path,
                                                              checks, named):
    path = write(tmp_path, "two.json", quantale_to_json(two_chain()))
    argv = ["quantale", "--quantale", path]
    for c in checks:
        argv += ["--check", c]
    r = runner.invoke(main, argv)
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == (f"input error: {named} needs a t-norm definition, "
                        f"and {path} defines a finite quantale\n")


@pytest.mark.parametrize("definition,checks", [
    ("finite", []), ("block", ["s"]), ("godel", ["axioms"]),
    ("godel", ["adjunction"]), ("godel", ["probe"]),
], ids=["finite-defaults", "tnorm-s", "tnorm-axioms", "tnorm-adjunction", "tnorm-probe"])
def test_quantale_refuses_a_bad_grid_step_whatever_checks_run(
        runner, tmp_path, godel_path, block_path, definition, checks):
    paths = {"finite": write(tmp_path, "two.json", quantale_to_json(two_chain())),
             "godel": godel_path, "block": block_path}
    argv = ["quantale", "--quantale", paths[definition], "--grid-step", "1/3"]
    for c in checks:
        argv += ["--check", c]
    r = runner.invoke(main, argv)
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == "input error: grid step must be 1/2^n, got 1/3\n"


@pytest.mark.parametrize("definition", ["finite", "godel"])
@pytest.mark.parametrize("step,points", [("1/256", 257), ("1/1048576", 1048577)])
def test_quantale_refuses_a_grid_step_above_the_cap(runner, tmp_path, godel_path,
                                                    definition, step, points):
    # the adjunction scan is cubic in the grid's points, so a fine step is
    # refused by its count before any check runs
    from quantalab.cli import GRID_CAP
    paths = {"finite": write(tmp_path, "two.json", quantale_to_json(two_chain())),
             "godel": godel_path}
    r = runner.invoke(main, ["quantale", "--quantale", paths[definition],
                             "--grid-step", step])
    assert r.exit_code == 3, r.output
    assert r.stdout == ""
    assert r.stderr == (f"budget exhausted: grid step {step} would scan {points} "
                        f"points (cap {GRID_CAP})\n")


def test_quantale_grid_cap_admits_the_default_step(runner, godel_path):
    from quantalab.cli import GRID_CAP
    assert GRID_CAP >= 65
    r = runner.invoke(main, ["quantale", "--quantale", godel_path, "--check", "probe"])
    assert r.exit_code == 0, r.output


def test_quantale_default_checks_on_a_finite_definition(runner, tmp_path):
    path = write(tmp_path, "two.json", quantale_to_json(two_chain()))
    r = runner.invoke(main, ["quantale", "--quantale", path, "--format", "structured"])
    assert r.exit_code == 0, r.output
    assert json.loads(r.output) == {"input": path, "kind": "finite",
                                    "axioms": {"status": "ok", "violations": []},
                                    "adjunction": {"status": "ok"}}


def test_laws_scenario_passes(runner, tmp_path):
    path = write(tmp_path, "sc.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a", "b"], "Y": ["u"], "Z": ["w", "v"]},
        "seed": 3, "budgets": {"scenarios": 8}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 0, r.output
    assert "failures: []" in r.output
    assert "not_applicable" not in r.output


def test_laws_two_chain_reports_oracle_match(runner, tmp_path):
    path = write(tmp_path, "sc2.json", {
        "quantale": quantale_to_json(two_chain()),
        "sets": {"X": ["a", "b"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 6}})
    r = runner.invoke(main, ["laws", "--scenario", path, "--format", "structured"])
    assert r.exit_code == 0, r.output
    report = json.loads(r.output)
    assert report["classical_filter_oracle"]["status"] == "match"


def test_laws_budget_exhaustion_exit_code(runner, tmp_path):
    path = write(tmp_path, "sc3.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 9}})
    r = runner.invoke(main, ["laws", "--scenario", path, "--budget", "2"])
    assert r.exit_code == 3
    assert "incomplete: True" in r.output


def test_laws_reports_a_failure_beyond_the_table_cap(runner, tmp_path, monkeypatch):
    # a deliberately broken row extension reads h's rows in reverse order;
    # t's table on 8 points would need 5^8 entries, so the failure shows t
    # as its generator row, and the run exits 1, not 3
    import quantalab.monad as monad
    real = monad.extend_rows
    monkeypatch.setattr(monad, "extend_rows", lambda h, domain, carrier, variant: real(
        dict(zip(domain, [h[x] for x in domain][::-1])), domain, carrier, variant))
    path = write(tmp_path, "five8.json", {
        "quantale": quantale_to_json(five_chain()),
        "sets": {"X": [f"x{i}" for i in range(8)], "Y": ["y0", "y1"], "Z": ["z0", "z1"]},
        "seed": 1, "budgets": {"scenarios": 3}})
    r = runner.invoke(main, ["laws", "--scenario", path, "--format", "structured"])
    assert r.exit_code == 1, r.stderr
    laws = json.loads(r.stdout)["laws"]
    assert (laws["scenarios_run"], laws["incomplete"]) == (3, False)
    assert laws["failures"][0] == {
        "law": "unit-extension-identity", "scenario": 0,
        "detail": "generator (1/4, 0/1, 1/1, 1/2, 1/4, 1/2, 0/1, 0/1)"}


@pytest.mark.parametrize("points", [2, 8], ids=["table", "generator"])
def test_laws_reports_associativity_alone(runner, tmp_path, monkeypatch, points):
    # a deliberately broken row extension shifts every position of the
    # composite's extension (g#f)#, the only one over X into rows on Z's
    # three points; the units and f# stay exact, so only associativity
    # fails, at every scenario.  t's table on 2 points of the five-element
    # chain has 25 entries and is shown; on 8 points it would need 5^8, so
    # t is shown as its generator row
    import quantalab.monad as monad
    from quantalab.serialize import format_fraction, format_generator
    q = five_chain()
    real = monad.extend_rows

    def extend_rows(h, domain, carrier, variant):
        extend = real(h, domain, carrier, variant)
        if domain.elements[0] != "x0" or len(h["x0"]) != 3:
            return extend
        return lambda row: tuple((p + 1) % len(carrier.elements) for p in extend(row))
    monkeypatch.setattr(monad, "extend_rows", extend_rows)
    path = write(tmp_path, "assoc.json", {
        "quantale": quantale_to_json(q),
        "sets": {"X": [f"a{i}" for i in range(points)], "Y": ["u", "v"],
                 "Z": ["w0", "w1", "w2"]},
        "seed": 1, "budgets": {"scenarios": 3}})
    r = runner.invoke(main, ["laws", "--scenario", path, "--format", "structured"])
    assert r.exit_code == 1, r.stderr
    report = json.loads(r.stdout)
    assert report["naturality"]["failures"] == []
    expected = []
    for i in range(3):
        rng = random.Random(1 * 1_000_003 + i)
        sc = monad.random_scenario(rng, q, (points, 2, 3))
        t = monad.random_variant_row(rng, sc.x_set, q)
        if points == 2:
            table = semifilter_of([QFunction.from_index(sc.x_set, q, t)])
            detail = f"table ({', '.join(map(format_fraction, table.canonical_values()))})"
        else:
            detail = format_generator(q.elements, t)
        expected.append({"law": "associativity", "scenario": i, "detail": detail})
    assert report["laws"]["failures"] == expected


def _five_chain_pinned(tmp_path, variant, points, value):
    """A five-chain scenario pinning f('a') to ``value`` on ``points``
    points of Y, and g to the unit on Z = {w}."""
    ys = [f"y{i}" for i in range(points)]
    return write(tmp_path, "five-pinned.json", {
        "quantale": quantale_to_json(five_chain()), "variant": variant,
        "sets": {"X": ["a"], "Y": ys, "Z": ["w"]},
        "maps": {"f": {"a": value}, "g": {y: {"basis": [["1/1"]]} for y in ys}},
        "seed": 1, "budgets": {"scenarios": 4}})


def _five_chain_basis_json(value):
    return json.dumps(semifilter_to_json(semifilter_of(
        [QFunction(finite_set("y0"), (F(value),), five_chain())])))


@pytest.mark.parametrize("variant,points,value,code,stderr", [
    # a table on 7 points would need 5^7 = 78125 entries: a basis is read
    # to its generator row and gated there, where it used to exit 3
    ("plain", 7, {"basis": [["1/1"] * 7]}, 0, ""),
    ("filter", 7, {"basis": [["1/4"] * 7]}, 2,
     "input error: f('a') is not a filter semifilter\n"
     "generator (1/4, 1/4, 1/4, 1/4, 1/4, 1/4, 1/4)\n"),
    # within the cap a refused basis is shown as its table
    ("filter", 1, {"basis": [["1/4"]]}, 2,
     f"input error: f('a') is not a filter semifilter\n{_five_chain_basis_json('1/4')}\n"),
    # an entries table is still read whole, so the cap applies to it
    ("plain", 7, {"entries": [[{"values": ["1/1"] * 7}, "1/1"]]}, 3,
     "budget exhausted: table would need 78125 entries (cap 19683)\n"),
], ids=["basis-runs", "basis-refused", "basis-refused-within-cap", "entries-capped"])
def test_laws_reads_a_pinned_basis_as_its_generator_row(runner, tmp_path, variant, points,
                                                         value, code, stderr):
    path = _five_chain_pinned(tmp_path, variant, points, value)
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == code, r.output
    assert r.stderr == stderr
    assert (r.stdout == "") == (code != 0)


@pytest.mark.parametrize("variant", ["bounded", "plain", "filter"])
def test_laws_refuses_a_carrier_without_least_positive(runner, tmp_path, variant):
    # the square lattice's atoms 1/3 and 2/3 are incomparable: a bounded run
    # is refused, naming the carrier, not a sampled map value; plain and
    # filter runs pass and list the bounded naturality checks they skip
    path = write(tmp_path, "square.json", {
        "quantale": quantale_to_json(square_lattice()), "variant": variant,
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}})
    r = runner.invoke(main, ["laws", "--scenario", path, "--format", "structured"])
    if variant == "bounded":
        assert r.exit_code == 2, r.output
        assert r.stdout == ""
        assert r.stderr == ("input error: carrier FiniteQuantale([0, 1/3, 2/3, 1], "
                            "unit=1) has no least positive element\n")
        return
    assert r.exit_code == 0, r.output
    naturality = json.loads(r.stdout)["naturality"]
    assert naturality["failures"] == []
    assert naturality["not_applicable"] == ["bounded-coreflection-naturality",
                                            "bounded-multiplication-square"]


def test_laws_skips_bounded_naturality_on_a_non_integral_carrier(runner, tmp_path):
    # the unit 1/2 lies below the top, and boundedness needs an integral carrier
    path = write(tmp_path, "nonintegral.json", {
        "quantale": {"type": "finite", "carrier": ["0/1", "1/2", "1/1"],
                     "tensor": [["0/1", "0/1", "0/1"], ["0/1", "1/2", "1/1"],
                                ["0/1", "1/1", "1/1"]],
                     "unit": "1/2"},
        "sets": {"X": ["a", "b"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 4}})
    r = runner.invoke(main, ["laws", "--scenario", path, "--format", "structured"])
    assert r.exit_code == 0, r.output
    assert json.loads(r.stdout)["naturality"]["not_applicable"] == [
        "bounded-coreflection-naturality", "bounded-multiplication-square"]


def test_laws_bounded_refuses_a_non_integral_carrier(runner, tmp_path):
    # the refusal names the carrier, as the least-positive refusal does
    path = write(tmp_path, "nonintegral.json", {
        "quantale": quantale_to_json(half_unit_chain()), "variant": "bounded",
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == ("input error: carrier FiniteQuantale([0, 1/2, 1], "
                        "unit=1/2) is not integral, which boundedness needs\n")


def test_laws_nonconical_map_value_is_input_error(runner, tmp_path):
    # the constant-degree-1/2 table fails the conicality precondition
    entries = [[{"values": v}, "1/2"] for v in
               [["0/1"], ["1/2"], ["1/1"]]]
    entries[-1][1] = "1/1"
    path = write(tmp_path, "sc4.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "maps": {"f": {"a": {"entries": entries}},
                 "g": {"u": {"entries": entries}}}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2
    assert "not a plain semifilter" in r.output



def _pinned_f(tmp_path, table):
    """A godel3 scenario pinning ``f('a')`` to ``table`` on Y = {u, v}."""
    unit = evaluation_unit(finite_set("w"), godel3(), "w")
    return write(tmp_path, "pinned.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u", "v"], "Z": ["w"]},
        "maps": {"f": {"a": semifilter_to_json(table)},
                 "g": {"u": semifilter_to_json(unit),
                       "v": semifilter_to_json(unit)}}})


def _not_f2():
    # the join of sub(g, -) over an antichain whose meet is not held: F2 fails
    q, Y = godel3(), finite_set("u", "v")
    return semifilter_of([QFunction(Y, (F(1), F(1, 2)), q),
                          QFunction(Y, (F(1, 2), F(1)), q)])


def _all_bottom():
    q, Y = godel3(), finite_set("u", "v")
    return SemifilterTable(Y, q, [q.kernel.bottom] * 9)


@pytest.mark.parametrize("table", [_not_f2, _all_bottom], ids=["not-F2", "not-F1"])
def test_laws_refuses_a_pinned_map_that_is_not_a_semifilter(runner, tmp_path, table):
    table = table()
    r = runner.invoke(main, ["laws", "--scenario", _pinned_f(tmp_path, table)])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    # the refused table on the second line
    assert r.stderr == ("input error: f('a') is not a plain semifilter\n"
                        f"{json.dumps(semifilter_to_json(table))}\n")


def _pinned_g(tmp_path, variant, table):
    """A godel3 scenario under ``variant`` pinning ``f('a')`` to the unit at
    u and ``g('u')`` to ``table`` on Z = {w}."""
    unit = evaluation_unit(finite_set("u"), godel3(), "u")
    return write(tmp_path, "pinned.json", {
        "quantale": quantale_to_json(godel3()), "variant": variant,
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "maps": {"f": {"a": semifilter_to_json(unit)},
                 "g": {"u": semifilter_to_json(table)}}})


@pytest.mark.parametrize("variant,constant", [
    ("plain", "bottom"),
    # the constant-top table is conical, and not bounded
    ("bounded", "top"),
], ids=["plain-not-F1", "bounded-conical"])
def test_laws_refuses_a_pinned_g_outside_its_variant(runner, tmp_path, variant, constant):
    q = godel3()
    table = SemifilterTable(finite_set("w"), q, [getattr(q.kernel, constant)] * 3)
    r = runner.invoke(main, ["laws", "--scenario", _pinned_g(tmp_path, variant, table)])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == (f"input error: g('u') is not a {variant} semifilter\n"
                        f"{json.dumps(semifilter_to_json(table))}\n")


@pytest.mark.parametrize("empty", ["X", "Y"])
@pytest.mark.parametrize("pinned", [False, True], ids=["seeded", "pinned"])
def test_laws_refuses_an_empty_x_or_y_by_name(runner, tmp_path, empty, pinned):
    sets = {"X": ["a"], "Y": ["u"], "Z": ["w"], empty: []}
    scenario = {"quantale": quantale_to_json(two_chain()), "sets": sets,
                "seed": 1, "budgets": {"scenarios": 2}}
    if pinned:
        # each value generated by the top function: a unit, on one point
        top = {"basis": [["1/1"] * len(sets["Y"])]}
        scenario["maps"] = {"f": {x: top for x in sets["X"]},
                            "g": {y: {"basis": [["1/1"]]} for y in sets["Y"]}}
    r = runner.invoke(main, ["laws", "--scenario", write(tmp_path, "empty.json", scenario)])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == f"input error: {empty} is empty: the laws extend maps over X and Y\n"


@pytest.mark.parametrize("empty", ["X", "Y"])
def test_laws_refuses_an_empty_x_or_y_with_no_scenario_to_run(runner, tmp_path, empty):
    sets = {"X": ["a"], "Y": ["u"], "Z": ["w"], empty: []}
    path = write(tmp_path, "empty.json", {
        "quantale": quantale_to_json(two_chain()), "sets": sets,
        "seed": 1, "budgets": {"scenarios": 0}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == f"input error: {empty} is empty: the laws extend maps over X and Y\n"


def test_laws_runs_with_an_empty_z(runner, tmp_path):
    path = write(tmp_path, "empty.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u", "v"], "Z": []},
        "seed": 1, "budgets": {"scenarios": 4}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 0, r.output
    assert "sizes: [1, 2, 0]" in r.stdout
    assert "scenarios_run: 4" in r.stdout


BROKEN_TENSOR = {"type": "finite", "carrier": ["0/1", "1/2", "1/1"],
                 "tensor": [["0/1", "0/1", "0/1"],
                            ["0/1", "1/1", "1/2"],
                            ["0/1", "1/2", "1/1"]],
                 "unit": "1/1"}
NON_IDEMPOTENT_JOIN = {"type": "finite", "carrier": ["0/1", "1/1"],
                       "tensor": [["0/1", "0/1"], ["0/1", "1/1"]],
                       "join": [["1/1", "1/1"], ["1/1", "1/1"]],
                       "meet": [["0/1", "0/1"], ["0/1", "1/1"]],
                       "unit": "1/1"}


def _tnorm(*blocks):
    return {"type": "tnorm", "blocks": [{"lo": lo, "hi": hi, "kind": kind}
                                        for lo, hi, kind in blocks]}


# 1/4 (x) 1/4 = 1/2 but 1/4 (x) 1/2 = 0, so the tensor is not associative
NON_ASSOCIATIVE = {"type": "finite", "carrier": ["0/1", "1/4", "1/2", "1/1"],
                   "tensor": [["0/1", "0/1", "0/1", "0/1"], ["0/1", "1/2", "0/1", "1/4"],
                              ["0/1", "0/1", "1/2", "1/2"], ["0/1", "1/4", "1/2", "1/1"]],
                   "unit": "1/1"}
QUANTALE_REPORTS = {
    "lukasiewicz-block": (_tnorm(("1/4", "1/2", "lukasiewicz")), 1,
                          "b8bb531cd72f0ba170b5bbaa38641b5e00e5d66835bb605c76bed2537fa74777"),
    "product-block": (_tnorm(("1/4", "1/2", "product")), 0,
                      "e9ef42848a64942eda390d6895b51cb6e227ca1a3d2a90b66fef7bbbc9d7ba2f"),
    "minimum": (_tnorm(), 0,
                "7ddef5c755b03e49634dc452512d073ed5f490271f1ab26297447cb84e24a4f7"),
    "two-blocks": (_tnorm(("1/8", "1/4", "lukasiewicz"), ("1/2", "3/4", "product")), 1,
                   "51e4edd9325ce0f20cb4a52ccf19d6ad53d55120815b766b375a24c54cac595e"),
    "non-associative": (NON_ASSOCIATIVE, 1,
                        "c4e1261881b74eec5309d52d46c0e82c0071ceb0cb4e0fea018a4634298f323e"),
    "non-distributive": (BROKEN_TENSOR, 1,
                         "624c31e077588c7cbe82c8170292d0c119fa2acd6d17c9a528e020e76657b8cd"),
}


@pytest.mark.parametrize("name", QUANTALE_REPORTS)
def test_quantale_reports_are_pinned(runner, tmp_path, name):
    # every check of ``quantale`` at the grid step 1/16: the sha256 of the
    # text report, with the input path written as IN, and the exit code
    definition, code, digest = QUANTALE_REPORTS[name]
    path = write(tmp_path, "q.json", definition)
    r = runner.invoke(main, ["quantale", "--quantale", path, "--grid-step", "1/16"])
    assert r.exit_code == code, r.output
    text = r.stdout.replace(path, "IN")
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


# the same at the default grid step 1/64, on the Lukasiewicz block and the
# two broken finite carriers; a finite carrier is scanned on its elements,
# so its report does not depend on the step
QUANTALE_REPORTS_AT_THE_DEFAULT_STEP = {
    "lukasiewicz-block": "d7acda7632c197653682d7ca4419b546a96a9a7c4005c437d0e8ea9079c63761",
    "non-associative": "c4e1261881b74eec5309d52d46c0e82c0071ceb0cb4e0fea018a4634298f323e",
    "non-distributive": "624c31e077588c7cbe82c8170292d0c119fa2acd6d17c9a528e020e76657b8cd",
}


@pytest.mark.parametrize("name", QUANTALE_REPORTS_AT_THE_DEFAULT_STEP)
def test_quantale_reports_are_pinned_at_the_default_step(runner, tmp_path, name):
    definition, code, _ = QUANTALE_REPORTS[name]
    path = write(tmp_path, "q.json", definition)
    r = runner.invoke(main, ["quantale", "--quantale", path])
    assert r.exit_code == code, r.output
    text = r.stdout.replace(path, "IN")
    digest = QUANTALE_REPORTS_AT_THE_DEFAULT_STEP[name]
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


@pytest.mark.parametrize("quantale,first", [
    (BROKEN_TENSOR, "join-distributivity fails at (1/2, 1/2, 1/1)"),
    (NON_IDEMPOTENT_JOIN, "join-idempotence fails at (0/1)"),
])
def test_laws_rejects_carrier_that_is_not_a_quantale(runner, tmp_path, quantale, first):
    path = write(tmp_path, "sc5.json", {
        "quantale": quantale,
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == f"input error: carrier is not a quantale: {first}\n"


@pytest.mark.parametrize("budget,code", [("2", 3), (2, 3), ("two", 2), (2.5, 2)])
def test_laws_scenario_budget_must_be_an_integer(runner, tmp_path, budget, code):
    path = write(tmp_path, "sc6.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 9, "budget": budget}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == code, r.output
    if code == 2:
        assert "budgets.budget must be an integer" in r.stderr


@pytest.mark.parametrize("budgets,message", [
    ({"scenarios": -3}, "budgets.scenarios must not be negative, got -3"),
    ({"scenarios": "-3"}, "budgets.scenarios must not be negative, got -3"),
    ({"scenarios": 9, "budget": -1}, "budgets.budget must not be negative, got -1"),
])
def test_laws_scenario_budgets_must_not_be_negative(runner, tmp_path, budgets, message):
    path = write(tmp_path, "sc7.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": budgets})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == f"input error: {message}\n"


@pytest.mark.parametrize("budget,code", [("-1", 2), ("0", 3)])
def test_laws_budget_flag_must_not_be_negative(runner, tmp_path, budget, code):
    path = write(tmp_path, "sc8.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}})
    r = runner.invoke(main, ["laws", "--scenario", path, "--budget", budget])
    assert r.exit_code == code, r.output
    if code == 2:
        assert r.stdout == ""
        assert "argument --budget: must not be negative, got -1" in r.stderr


def test_counterexample_violation(runner, block_path):
    r = runner.invoke(main, ["counterexample", "--quantale", block_path,
                             "--t", "3/8", "--s", "3/8", "--truncation", "200"])
    assert r.exit_code == 0, r.output
    assert "verdict: VIOLATION" in r.output
    assert "step1_value: 1/1" in r.output
    assert "step2_bound: 1/4" in r.output


def test_counterexample_expected_clean_on_condition_s(runner, godel_path):
    r = runner.invoke(main, ["counterexample", "--quantale", godel_path,
                             "--t", "3/8", "--s", "1/4", "--truncation", "100"])
    assert r.exit_code == 0
    assert "NO_VIOLATION_EXPECTED" in r.output


def test_counterexample_boundary_is_input_error(runner, block_path):
    r = runner.invoke(main, ["counterexample", "--quantale", block_path,
                             "--t", "3/8", "--s", "1/4"])
    assert r.exit_code == 2


def test_reports_are_deterministic(runner, tmp_path):
    path = write(tmp_path, "det.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a", "b"], "Y": ["u"], "Z": ["w"]},
        "seed": 5, "budgets": {"scenarios": 6}})
    first = runner.invoke(main, ["laws", "--scenario", path, "--format", "structured"])
    second = runner.invoke(main, ["laws", "--scenario", path, "--format", "structured"])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_counterexample_variants(runner, block_path):
    for variant in ("filter", "bounded"):
        r = runner.invoke(main, ["counterexample", "--quantale", block_path,
                                 "--t", "3/8", "--s", "3/8",
                                 "--truncation", "150", "--variant", variant,
                                 "--format", "structured"])
        assert r.exit_code == 0, r.output
        report = json.loads(r.output)
        assert report["verdict"] == "VIOLATION"
        assert report["step2_bound"] == "1/4"


@pytest.mark.parametrize("variant", ["plain", "filter", "bounded"])
def test_counterexample_report_does_not_depend_on_the_truncation(runner, block_path,
                                                                 variant):
    reports = []
    for truncation in ("1000", "1000000"):
        r = runner.invoke(main, ["counterexample", "--quantale", block_path,
                                 "--t", "3/8", "--s", "3/8", "--truncation", truncation,
                                 "--variant", variant, "--format", "structured"])
        assert r.exit_code == 0, r.output
        reports.append(json.loads(r.output))
    assert reports[1].pop("truncation") == 1000000
    assert reports[0].pop("truncation") == 1000
    assert reports[0] == reports[1]


def test_counterexample_from_scenario_with_witness_catalog(runner, tmp_path):
    from quantalab.counterexample import Ramp
    from quantalab.counterexample import expr_to_json
    from fractions import Fraction
    path = write(tmp_path, "cx.json", {
        "quantale": {"type": "tnorm",
                     "blocks": [{"lo": "1/4", "hi": "1/2", "kind": "lukasiewicz"}]},
        "variant": "filter",
        "witness_catalog": [expr_to_json(Ramp(Fraction(1, 4)))]})
    r = runner.invoke(main, ["counterexample", "--scenario", path,
                             "--t", "3/8", "--s", "3/8", "--truncation", "60",
                             "--format", "structured"])
    assert r.exit_code == 0, r.output
    report = json.loads(r.output)
    assert report["variant"] == "filter"
    assert report["catalog_size"] == 1
    assert report["verdict"] == "VIOLATION"


def test_counterexample_witness_catalog_is_capped(runner, tmp_path):
    consts = [{"kind": "const", "value": f"{k}/300"} for k in range(300)]
    path = _catalog_scenario(tmp_path, [{"kind": "ramp", "scale": "1/4"}, *consts])
    r = runner.invoke(main, ["counterexample", "--scenario", path,
                             "--t", "3/8", "--s", "3/8", "--truncation", "20",
                             "--format", "structured"])
    assert r.exit_code == 0, r.output
    report = json.loads(r.output)
    assert report["catalog_size"] == 240
    assert report["step1_witness"] == "w0"


def _catalog_scenario(tmp_path, catalog):
    return write(tmp_path, "cx.json", {
        "quantale": {"type": "tnorm",
                     "blocks": [{"lo": "1/4", "hi": "1/2", "kind": "lukasiewicz"}]},
        "witness_catalog": catalog})


@pytest.mark.parametrize("catalog,message", [
    ([{"kind": "ramp"}], "needs a 'scale' field"),
    ([{"kind": "join", "left": {"kind": "const", "value": "0/1"}}],
     "needs a 'right' field"),
    (["ramp"], "must be a JSON object"),
    ({"kind": "ramp", "scale": "1/4"}, "witness_catalog must be a list"),
    ([{"kind": "indicator", "start": 2.5}], "indicator.start must be an integer"),
    ([{"kind": "indicator", "start": 0}], "indicator.start must be at least 1"),
    ([{"kind": "ramp", "scale": "3/2"}], "ramp.scale must lie in [0,1]"),
    ([{"kind": "const", "value": "-1/4"}], "const.value must lie in [0,1]"),
    ([{"kind": "res", "const": "2", "child": {"kind": "const", "value": "0/1"}}],
     "res.const must lie in [0,1]"),
])
def test_counterexample_bad_witness_catalog_is_input_error(runner, tmp_path,
                                                          catalog, message):
    path = _catalog_scenario(tmp_path, catalog)
    r = runner.invoke(main, ["counterexample", "--scenario", path,
                             "--t", "3/8", "--s", "3/8", "--truncation", "20"])
    assert r.exit_code == 2, r.output
    assert message in r.stderr


def test_counterexample_indicator_start_reads_integer_strings(runner, tmp_path):
    path = _catalog_scenario(tmp_path, [{"kind": "ramp", "scale": "1/4"},
                                        {"kind": "indicator", "start": "3"}])
    r = runner.invoke(main, ["counterexample", "--scenario", path,
                             "--t", "3/8", "--s", "3/8", "--truncation", "20",
                             "--format", "structured"])
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["catalog_size"] == 2


def test_counterexample_needs_a_source(runner):
    r = runner.invoke(main, ["counterexample", "--t", "3/8", "--s", "3/8"])
    assert r.exit_code == 2
    assert (r.stdout, r.stderr) == ("", "input error: need --quantale or --scenario\n")


def test_counterexample_refuses_a_finite_carrier(runner, tmp_path):
    path = write(tmp_path, "godel3.json", quantale_to_json(godel3()))
    r = runner.invoke(main, ["counterexample", "--quantale", path, "--t", "1/2", "--s", "1/2"])
    assert r.exit_code == 2, r.output
    assert (r.stdout, r.stderr) == (
        "", "input error: the counterexample runs on t-norm specs\n")


@pytest.mark.parametrize("t_par,s_par", [("0", "3/8"), ("1", "3/8"),
                                          ("3/8", "0/1"), ("3/8", "1/1")])
def test_counterexample_refuses_parameters_at_0_or_1(runner, block_path, t_par, s_par):
    r = runner.invoke(main, ["counterexample", "--quantale", block_path,
                             "--t", t_par, "--s", s_par])
    assert r.exit_code == 2, r.output
    assert (r.stdout, r.stderr) == (
        "", "input error: parameters must lie strictly inside (0, 1)\n")


def test_laws_refuses_a_tnorm_scenario(runner, tmp_path):
    path = write(tmp_path, "tnorm-laws.json", {
        "quantale": {"type": "tnorm", "blocks": []}, "seed": 1})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert (r.stdout, r.stderr) == ("", "input error: law suites need a finite carrier\n")


@pytest.mark.parametrize("blocks,message", [
    ([{"hi": "1/2", "kind": "lukasiewicz"}], "blocks[0] needs a 'lo' field"),
    ([{"lo": "1/4", "hi": "1/2", "kind": "lukas"}],
     "blocks[0].kind must be one of lukasiewicz, product, got 'lukas'"),
    ("x", "blocks must be a list, got 'x'"),
])
def test_quantale_malformed_block_is_input_error(runner, tmp_path, blocks, message):
    path = write(tmp_path, "bad.json", {"type": "tnorm", "blocks": blocks})
    r = runner.invoke(main, ["quantale", "--quantale", path, "--check", "s"])
    assert r.exit_code == 2, r.output
    assert message in r.stderr


BASIS_WITHOUT_VALUES = {"basis": [{"vals": []}]}
ENTRY_NOT_A_PAIR = {"entries": [[{"values": ["0/1"]}]]}


@pytest.mark.parametrize("extra,message", [
    ({"variant": "weird"}, "variant must be one of plain, filter, bounded, got 'weird'"),
    ({"maps": {"f": {"a": BASIS_WITHOUT_VALUES}, "g": {"u": BASIS_WITHOUT_VALUES}}},
     "map f at 'a': a function needs a 'values' field"),
    ({"maps": {"f": {"a": ENTRY_NOT_A_PAIR}, "g": {"u": ENTRY_NOT_A_PAIR}}},
     "map f at 'a': entries[0] must be a [function, value] pair"),
    ({"sets": "x"}, "sets must be an object, got 'x'"),
    ({"sets": {"X": "ab"}}, "sets.X must be a list, got 'ab'"),
    ({"budgets": 3}, "budgets must be an object, got 3"),
    ({"quantale": {"type": "finite", "carrier": ["0/1", "1/1"], "tensor": 5,
                   "unit": "1/1"}}, "tensor must be a list, got 5"),
    ({"quantale": "missing.json"}, "cannot read"),
])
def test_laws_malformed_scenario_is_input_error(runner, tmp_path, extra, message):
    path = write(tmp_path, "bad.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}, **extra})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert message in r.stderr


@pytest.mark.parametrize("pinned,missing", [("f", "g"), ("g", "f")])
def test_laws_maps_need_both_f_and_g(runner, tmp_path, pinned, missing):
    # generated by (0, 0), this value is the constant-top table, which
    # fails F4; pinned alone it used to be ignored without a word
    top = {"basis": [["0/1", "0/1"]]}
    path = write(tmp_path, "sc.json", {
        "quantale": quantale_to_json(two_chain()),
        "variant": "filter",
        "sets": {"X": ["a", "b"], "Y": ["u", "v"], "Z": ["w", "t"]},
        "seed": 1, "budgets": {"scenarios": 2},
        "maps": {pinned: {"a": top, "b": top, "u": top, "v": top}}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert f"maps needs both 'f' and 'g'; {missing!r} is missing" in r.stderr


def test_laws_repeated_table_entry_is_input_error(runner, tmp_path):
    # the function (1/2) is listed twice with conflicting values
    entries = [[{"values": ["0/1"]}, "0/1"], [{"values": ["1/2"]}, "1/2"],
               [{"values": ["1/1"]}, "1/1"], [{"values": ["1/2"]}, "1/1"]]
    path = write(tmp_path, "dup.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2},
        "maps": {"f": {"a": {"entries": entries}},
                 "g": {"u": {"entries": entries[:3]}}}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert "map f at 'a': entries[3] repeats the function of entries[1]" in r.stderr


GODEL3_TABLE = {"entries": [[{"values": ["0/1"]}, "0/1"], [{"values": ["1/2"]}, "1/2"],
                            [{"values": ["1/1"]}, "1/1"]]}


@pytest.mark.parametrize("value,message", [
    ({"entries": [[{"values": ["0/1"]}, "0/1"], [{"values": ["1/3"]}, "1/2"],
                  [{"values": ["1/1"]}, "1/1"]]},
     "map f at 'a': value 1/3 outside the carrier"),
    ({"basis": [["1/3"]]}, "map f at 'a': value 1/3 outside the carrier"),
    ({"entries": [[{"values": ["0/1"]}, "0/1"], [{"values": ["1/2"]}, "1/3"],
                  [{"values": ["1/1"]}, "1/1"]]},
     "map f at 'a': entries[1] has the value 1/3 outside the carrier"),
    ({"entries": GODEL3_TABLE["entries"][:2]},
     "map f at 'a': table is missing the entry at (1/1)"),
], ids=["entries-function", "basis-function", "entries-value", "entries-missing"])
def test_laws_pinned_map_input_error_names_the_map(runner, tmp_path, value, message):
    path = write(tmp_path, "pinned.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2},
        "maps": {"f": {"a": value}, "g": {"u": GODEL3_TABLE}}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == f"input error: {message}\n"


GODEL3 = quantale_to_json(godel3())
BLOCK = {"lo": "1/4", "hi": "1/2", "kind": "lukasiewicz"}
CONST = {"kind": "const", "value": "1/8"}


def _input_error(runner, tmp_path, command, obj):
    """Run ``command`` on obj written as its definition or scenario file; a
    string is written as it stands."""
    path = tmp_path / "in.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    path = str(path)
    if command == "quantale":
        r = runner.invoke(main, ["quantale", "--quantale", path, "--check", "axioms"])
    elif command == "laws":
        r = runner.invoke(main, ["laws", "--scenario", path])
    else:
        r = runner.invoke(main, ["counterexample", "--scenario", path,
                                 "--t", "3/8", "--s", "3/8", "--truncation", "20"])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    return r.stderr


def _godel3_pinned(f_value=GODEL3_TABLE, **fields):
    """A godel3 laws scenario pinning f('a') to ``f_value``, with ``fields``
    added or replacing its own."""
    return {"quantale": GODEL3, "sets": {"X": ["a"], "Y": ["u"], "Z": ["w"]},
            "maps": {"f": {"a": f_value}, "g": {"u": GODEL3_TABLE}}, **fields}


def _cx_scenario(*catalog, **fields):
    return {"quantale": {"type": "tnorm", "blocks": [BLOCK]},
            "witness_catalog": [{"kind": "ramp", "scale": "1/4"}, *catalog], **fields}


@pytest.mark.parametrize("command,obj,message", [
    # a misspelled blocks used to classify the minimum t-norm: exit 0
    ("quantale", {"type": "tnorm", "block": [BLOCK]},
     "quantale definition has an unknown field 'block'"),
    ("quantale", {**GODEL3, "units": "1/1"}, "quantale definition has an unknown field 'units'"),
    ("quantale", {"type": "tnorm", "blocks": [{**BLOCK, "high": "1/2"}]},
     "blocks[0] has an unknown field 'high'"),
    # a misspelled seed used to run seed 0
    ("laws", {**_godel3_pinned(), "seeds": 5}, "scenario has an unknown field 'seeds'"),
    ("laws", _godel3_pinned(sets={"X": ["a"], "Y": ["u"], "Z": ["w"], "W": []}),
     "sets has an unknown field 'W'"),
    ("laws", _godel3_pinned(budgets={"scenarios": 2, "budjet": 3}),
     "budgets has an unknown field 'budjet'"),
    ("laws", _godel3_pinned(maps={"f": {"a": GODEL3_TABLE}, "g": {"u": GODEL3_TABLE},
                                  "h": {}}),
     "maps has an unknown field 'h'"),
    ("laws", _godel3_pinned(maps={"f": {"a": GODEL3_TABLE, "b": GODEL3_TABLE},
                                  "g": {"u": GODEL3_TABLE}}),
     "map f has an unknown field 'b'"),
    ("laws", _godel3_pinned({**GODEL3_TABLE, "basis": []}),
     "map f at 'a': a table has an unknown field 'basis'"),
    ("laws", _godel3_pinned({"basis": [["1/1"]], "domain": ["u"]}),
     "map f at 'a': a table has an unknown field 'domain'"),
    ("laws", _godel3_pinned({"basis": [{"values": ["1/1"], "vals": []}]}),
     "map f at 'a': a function has an unknown field 'vals'"),
    ("counterexample", _cx_scenario(seeds=5), "scenario has an unknown field 'seeds'"),
    ("counterexample", _cx_scenario({"kind": "ramp", "scale": "1/8", "start": 2}),
     "a ramp expression has an unknown field 'start'"),
    ("counterexample", _cx_scenario({"kind": "indicator", "start": 2, "value": "1/8"}),
     "an indicator expression has an unknown field 'value'"),
    ("counterexample", _cx_scenario({**CONST, "scale": "1/8"}),
     "a const expression has an unknown field 'scale'"),
    ("counterexample", _cx_scenario({"kind": "join", "left": CONST, "right": CONST,
                                     "child": CONST}),
     "a join expression has an unknown field 'child'"),
    ("counterexample", _cx_scenario({"kind": "meet", "left": CONST, "right": CONST,
                                     "child": CONST}),
     "a meet expression has an unknown field 'child'"),
    ("counterexample", _cx_scenario({"kind": "res", "const": "1/8", "child": CONST,
                                     "left": CONST}),
     "a res expression has an unknown field 'left'"),
], ids=["tnorm", "finite", "block", "scenario", "sets", "budgets", "maps", "map-point",
        "table-entries", "table-basis", "function", "scenario-counterexample", "ramp",
        "indicator", "const", "join", "meet", "res"])
def test_a_field_no_reader_reads_is_input_error(runner, tmp_path, command, obj, message):
    assert _input_error(runner, tmp_path, command, obj) == f"input error: {message}\n"


@pytest.mark.parametrize("command,obj,shown", [
    ("quantale", {**GODEL3, "carrier": ["0/1", "1/2", True]}, "True"),
    ("quantale", {**GODEL3, "tensor": [["0/1", "0/1", False], *GODEL3["tensor"][1:]]},
     "False"),
    ("quantale", {**GODEL3, "unit": True}, "True"),
    ("quantale", {"type": "tnorm", "blocks": [{**BLOCK, "lo": False}]}, "False"),
    ("laws", _godel3_pinned({"basis": [[True]]}), "True"),
    ("laws", _godel3_pinned({"entries": [[["0/1"], "0/1"], [["1/2"], "1/2"],
                                         [["1/1"], True]]}), "True"),
    ("counterexample", _cx_scenario({"kind": "const", "value": True}), "True"),
], ids=["element", "tensor-entry", "unit", "block-endpoint", "function-value",
        "table-value", "expression-value"])
def test_a_json_boolean_is_not_a_rational(runner, tmp_path, command, obj, shown):
    # true and false used to be read as 1 and 0
    assert f"not an exact rational: {shown}\n" in _input_error(runner, tmp_path,
                                                                 command, obj)


@pytest.mark.parametrize("command,text,field", [
    ("quantale", '{"type": "tnorm", "blocks": [%s], "blocks": []}' % json.dumps(BLOCK),
     "blocks"),
    ("laws", json.dumps(_godel3_pinned())[:-1] + ', "seed": 1, "seed": 2}', "seed"),
    ("counterexample", json.dumps(_cx_scenario({"kind": "const", "value": "1/8"}))
     .replace('"value": "1/8"', '"value": "1/8", "value": "1/4"'), "value"),
], ids=["tnorm", "scenario", "expression"])
def test_a_field_given_twice_is_input_error(runner, tmp_path, command, text, field):
    # the JSON reader keeps the last of two equal keys: the t-norm with its
    # blocks given twice used to classify the minimum t-norm, exit 0
    message = _input_error(runner, tmp_path, command, text)
    assert message.endswith(f": the field {field!r} is given twice in one object\n")


def test_a_file_that_is_not_utf8_is_input_error(runner, tmp_path):
    # the decoding error used to escape with a traceback, exit 1
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    r = runner.invoke(main, ["quantale", "--quantale", str(path)])
    assert r.exit_code == 2, r.output
    assert r.stderr.startswith(f"input error: cannot read {path}: 'utf-8' codec")


@pytest.mark.parametrize("maps,message", [
    ("garbage", "maps must be an object, got 'garbage'"),
    ({"f": {}}, "maps needs both 'f' and 'g'; 'g' is missing"),
    ({"f": {}, "g": {}, "h": {}}, "maps has an unknown field 'h'"),
    ({"f": {}, "g": []}, "map g must be an object, got []"),
    ({"f": {}, "g": {}}, "maps need a finite carrier, not a t-norm"),
], ids=["not-an-object", "missing-g", "unknown-map", "map-not-an-object", "tnorm"])
@pytest.mark.parametrize("command", ["laws", "counterexample"])
def test_scenario_maps_are_read_on_load(runner, tmp_path, command, maps, message):
    # counterexample --scenario used to skip maps: exit 0 with VIOLATION
    obj = _cx_scenario(maps=maps)
    assert _input_error(runner, tmp_path, command, obj) == f"input error: {message}\n"


@pytest.mark.parametrize("command", ["quantale", "laws", "counterexample"])
def test_an_unwritable_out_file_is_input_error(runner, tmp_path, block_path, command):
    # exit 1 is a mathematical failure; a report that cannot be written is
    # an input error, and nothing is printed
    scenario = write(tmp_path, "sc.json", {"quantale": quantale_to_json(two_chain()),
                                           "seed": 1, "budgets": {"scenarios": 2}})
    out = str(tmp_path / "no-such-dir" / "report.json")
    args = {"quantale": ["quantale", "--quantale", block_path, "--check", "s"],
            "laws": ["laws", "--scenario", scenario],
            "counterexample": ["counterexample", "--quantale", block_path,
                               "--t", "3/8", "--s", "3/8", "--truncation", "20"]}[command]
    r = runner.invoke(main, args + ["--out", out])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == f"input error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("command", ["quantale", "laws", "counterexample"])
def test_a_missing_file_is_input_error(runner, tmp_path, command):
    missing = str(tmp_path / "missing.json")
    args = {"quantale": ["quantale", "--quantale", missing],
            "laws": ["laws", "--scenario", missing],
            "counterexample": ["counterexample", "--quantale", missing,
                               "--t", "3/8", "--s", "3/8"]}[command]
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert r.stderr.startswith(f"input error: cannot read {missing}: ")


@pytest.mark.parametrize("flag", ["--t", "--s", "--epsilon"])
def test_counterexample_parameter_that_is_not_a_rational_is_input_error(
        runner, block_path, flag):
    args = {"--t": "3/8", "--s": "3/8", "--epsilon": "1/8", flag: "abc"}
    r = runner.invoke(main, ["counterexample", "--quantale", block_path,
                             *(x for kv in args.items() for x in kv)])
    assert r.exit_code == 2, r.output
    assert r.stderr == "input error: not an exact rational: 'abc'\n"


def _two_chain_pinned(tmp_path, f_value, y_labels=("u",)):
    """A two-chain scenario pinning ``f('a')`` to ``f_value`` on Y, and g to
    evaluation units."""
    q = two_chain()
    unit = semifilter_to_json(evaluation_unit(finite_set("w"), q, "w"))
    return write(tmp_path, "pinned.json", {
        "quantale": quantale_to_json(q),
        "sets": {"X": ["a"], "Y": list(y_labels), "Z": ["w"]},
        "maps": {"f": {"a": f_value}, "g": {y: unit for y in y_labels}}})


@pytest.mark.parametrize("field,value,message", [
    ("domain", ["nope"], "table domain ['nope'] does not match {'u'}"),
    ("domain", "u", "table domain must be a list, got 'u'"),
    ("carrier", quantale_to_json(godel3()),
     "table carrier FiniteQuantale([0, 1/2, 1], unit=1) does not match "
     "FiniteQuantale([0, 1], unit=1): they differ in 'carrier'"),
    ("carrier", {"type": "tnorm", "blocks": []},
     "table carrier TNorm(blocks=()) does not match FiniteQuantale([0, 1], unit=1): "
     "they differ in 'type'"),
    ("carrier", {"blocks": []}, "table carrier: quantale definition needs a 'type' field"),
], ids=["domain", "domain-not-a-list", "carrier-other-chain", "carrier-tnorm",
        "carrier-malformed"])
def test_laws_pinned_table_must_declare_the_scenario_space(runner, tmp_path, field,
                                                           value, message):
    table = semifilter_to_json(evaluation_unit(finite_set("u"), two_chain(), "u"))
    r = runner.invoke(main, ["laws", "--scenario",
                             _two_chain_pinned(tmp_path, {**table, field: value})])
    assert r.exit_code == 2, r.output
    assert r.stdout == ""
    assert r.stderr == f"input error: map f at 'a': {message}\n"


@pytest.mark.parametrize("declared,field", [
    (quantale_to_json(mv3()), "tensor"),
    # godel3 with its chain order given as a join table is kept apart
    ({**GODEL3, "join": [[GODEL3["carrier"][max(i, j)] for j in range(3)] for i in range(3)]},
     "join"),
], ids=["mv3", "explicit-join"])
def test_a_carrier_mismatch_names_the_field_the_reprs_do_not_show(runner, tmp_path,
                                                                   declared, field):
    stderr = _input_error(runner, tmp_path, "laws",
                          _godel3_pinned({**GODEL3_TABLE, "carrier": declared}))
    assert stderr == ("input error: map f at 'a': table carrier FiniteQuantale([0, 1/2, 1], "
                      "unit=1) does not match FiniteQuantale([0, 1/2, 1], unit=1): "
                      f"they differ in {field!r}\n")


def test_laws_pinned_function_domain_must_be_a_list(runner, tmp_path):
    # the string "uv" used to pass for the labels u, v
    basis = {"basis": [{"domain": "uv", "values": ["1/1", "1/1"]}]}
    r = runner.invoke(main, ["laws", "--scenario",
                             _two_chain_pinned(tmp_path, basis, ("u", "v"))])
    assert r.exit_code == 2, r.output
    assert r.stderr == ("input error: map f at 'a': function domain must be a list, "
                        "got 'uv'\n")


def test_laws_pinned_table_declaring_the_scenario_space_runs(runner, tmp_path):
    table = semifilter_to_json(evaluation_unit(finite_set("u"), two_chain(), "u"))
    r = runner.invoke(main, ["laws", "--scenario", _two_chain_pinned(tmp_path, table)])
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("labels,shown", [(["a", "b", "a"], "'a'"), ([True, "b", True], "True")])
def test_laws_repeated_label_is_input_error(runner, tmp_path, labels, shown):
    path = write(tmp_path, "labels.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": ["a"], "Y": labels, "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert r.stderr == f"input error: sets.Y repeats the label {shown}\n"


@pytest.mark.parametrize("labels,shown", [([True, 1], "True and 1"), ([1, True], "1 and True"),
                                          (["a", 1, 1.0], "1 and 1.0")])
def test_laws_equal_labels_of_different_json_values_are_input_error(runner, tmp_path,
                                                                    labels, shown):
    # Python finds true equal to 1 and 1 equal to 1.0, yet the file repeats
    # no label, so the message names both
    path = write(tmp_path, "labels.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": labels, "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert r.stderr == f"input error: sets.X labels {shown} would name one point\n"


@pytest.mark.parametrize("labels,shown", [([1, "1"], "1 and '1' share the map key '1'"),
                                          (["a", True, "True"],
                                           "True and 'True' share the map key 'True'")])
def test_laws_labels_sharing_a_map_key_are_input_error(runner, tmp_path, labels, shown):
    # a pinned map reads the value of a point at the key str(label), so
    # both points would read one entry
    path = write(tmp_path, "labels.json", {
        "quantale": quantale_to_json(two_chain()),
        "sets": {"X": labels, "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert r.stderr == f"input error: sets.X labels {shown}\n"


@pytest.mark.parametrize("label,shown", [({"a": 1}, "{'a': 1}"), (["a"], "['a']")])
def test_laws_unhashable_label_is_input_error(runner, tmp_path, label, shown):
    path = write(tmp_path, "labels.json", {
        "quantale": quantale_to_json(godel3()),
        "sets": {"X": [label, "b"], "Y": ["u"], "Z": ["w"]},
        "seed": 1, "budgets": {"scenarios": 2}})
    r = runner.invoke(main, ["laws", "--scenario", path])
    assert r.exit_code == 2, r.output
    assert f"sets.X[0] must not be an object or a list, got {shown}" in r.stderr


def test_counterexample_empty_witness_catalog_is_input_error(runner, tmp_path):
    # an empty list is not "no catalog": the default catalog must not stand in
    path = _catalog_scenario(tmp_path, [])
    r = runner.invoke(main, ["counterexample", "--scenario", path,
                             "--t", "3/8", "--s", "3/8", "--truncation", "20"])
    assert r.exit_code == 2, r.output
    assert "witness_catalog must not be empty" in r.stderr


# -- a reader that leaves early ------------------------------------------------------

def _cli_args(tmp_path, block_path, command):
    if command == "laws":
        return ["laws", "--scenario", write(tmp_path, "laws.json", {
            "quantale": quantale_to_json(two_chain()), "seed": 1,
            "budgets": {"scenarios": 2}})]
    return ["counterexample", "--quantale", block_path, "--t", "3/8", "--s", "3/8",
            "--truncation", "50"]


@pytest.mark.parametrize("reader", ["one-line", "none"])
@pytest.mark.parametrize("command", ["counterexample", "laws"])
def test_a_closed_stdout_keeps_the_verdict_exit_code(tmp_path, block_path, command, reader):
    # both runs meet their expectations, so the verdict's exit code is 0
    args = [sys.executable, "-m", "quantalab.cli", *_cli_args(tmp_path, block_path, command),
            "--format", "structured"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(quantalab.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if reader == "one-line":
        with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as p:
            first = p.stdout.readline()
            p.stdout.close()
            err = p.stderr.read().decode()
            code = p.wait(timeout=120)
        assert first == b"{\n"
    else:
        # a pipe whose reader has gone before the report is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            p = subprocess.run(args, stdout=write_end, stderr=subprocess.PIPE, env=env,
                               timeout=120, text=True)
        finally:
            os.close(write_end)
        err, code = p.stderr, p.returncode
    assert (code, err) == (0, "")


# -- the plain command-line reader against argparse -----------------------------------

def argparse_options(argv):
    """What argparse makes of argv: its options dict, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main.parse(argv)
        except SystemExit as e:
            return e.code


def good_values(kwargs):
    if "choices" in kwargs:
        return list(kwargs["choices"])
    if "type" in kwargs:
        return ["0", "7", "12", " 3"]
    return ["f.json", "3/8", "1/64", "", "a b", "x=1"]


BAD_VALUES = ["nope", "x", "1.5", "-1", "-3/8", "--out", "-h", "--", "-"]


def flag_forms(flag, value):
    """Spellings of ``flag value`` that argparse takes and the reader leaves
    to it: an abbreviation, and the ``=`` form."""
    return [[flag[:k], value] for k in range(3, len(flag))] + [[f"{flag}={value}"]]


def generated_argv(command, rng):
    """A well-formed command line of ``command``, with duplicates and
    repeated ``--check``s, changed half the time in one to three places:
    a pair respelled as an abbreviation or in the ``=`` form, or a pair
    added or put in place of another, with a full, abbreviated, ``=`` or
    unknown flag, a good or bad value, or a lone token or help flag."""
    options = main.commands[command].options
    pairs = []
    for flags, kwargs in options:
        if kwargs.get("required") or rng.random() < 0.5:
            pairs += [[flags[0], rng.choice(good_values(kwargs))]
                      for _ in range(rng.choice((1, 1, 2, 3)))]
    for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
        if pairs and rng.random() < 0.4:
            i = rng.randrange(len(pairs))
            if len(pairs[i]) == 2 and pairs[i][0].startswith("--"):
                pairs[i] = rng.choice(flag_forms(*pairs[i]))
            continue
        flags, kwargs = rng.choice(options)
        value = rng.choice(good_values(kwargs) + BAD_VALUES)
        pair = rng.choice([[flags[0], value], *flag_forms(flags[0], value),
                           ["--nope", value], ["-h"], ["--help"], [value]])
        if pairs and rng.random() < 0.3:
            pairs[rng.randrange(len(pairs))] = pair
        else:
            pairs.append(pair)
    rng.shuffle(pairs)
    return [command] + [token for pair in pairs for token in pair]


@pytest.mark.parametrize("command", ["quantale", "laws", "counterexample"])
def test_the_plain_reader_agrees_with_argparse(command):
    rng = random.Random(f"plain-reader:{command}")
    read = accepted = refused = 0
    for _ in range(300):
        argv = generated_argv(command, rng)
        plain = main.commands[command].read(argv[1:])
        want = argparse_options(argv)
        if plain is not None:
            read += 1
            assert plain == want, argv
            assert list(plain) == list(want), argv
        elif isinstance(want, dict):
            accepted += 1
        else:
            refused += 1
    # each side of the reader is reached: read, left to argparse and run,
    # and left to argparse and refused
    assert min(read, accepted, refused) >= 20, (read, accepted, refused)


@pytest.mark.parametrize("argv,code", [
    (["laws", "--scenario", "s.json", "--budget", "-1"], 2),
    (["laws", "--scenario", "s.json", "--budget", "two"], 2),
    (["laws", "--scenario", "s.json", "--seed", "1.5"], 2),
    (["laws", "--scenario", "s.json", "--seed", "-1"], None),
    (["laws", "--scen", "s.json"], None),
    (["laws", "--scenario=s.json"], None),
    (["laws", "--seed", "3"], 2),
    (["laws", "--scenario", "s.json", "-h"], 0),
    (["laws", "--scenario"], 2),
    (["counterexample", "--t", "3/8", "--s", "3/8", "--variant", "nope"], 2),
    (["counterexample", "--t", "-3/8", "--s", "3/8"], 2),
    (["counterexample", "--t", "3/8", "--s", "3/8", "--truncation", "x"], 2),
    (["quantale", "--quantale", "q.json", "--check", "t"], 2),
    (["quantale", "--quantale", "q.json", "--grid-step", "--out"], 2),
])
def test_the_plain_reader_leaves_every_other_line_to_argparse(argv, code):
    # code None: argparse reads the line, which the plain reader leaves to it
    assert main.commands[argv[0]].read(argv[1:]) is None
    want = argparse_options(argv)
    assert want == code if code is not None else isinstance(want, dict)


@pytest.mark.parametrize("argv", [[], ["--help"], ["lawz", "--scenario", "s.json"],
                                  ["--scenario", "s.json"]])
def test_a_line_without_a_command_goes_to_argparse(runner, argv):
    r = runner.invoke(main, argv)
    assert r.exit_code == (0 if argv == ["--help"] else 2)
    assert r.output.startswith("usage: quantalab")


def test_a_plain_line_runs_the_callback_without_argparse(runner, block_path, monkeypatch):
    # as bench/tracer.py does: wrap the command's callback, then run main.main
    def refuse(*args, **kwargs):
        raise AssertionError("a plain command line reached argparse")
    seen = []
    command = main.commands["counterexample"]
    callback = command.callback
    monkeypatch.setattr(type(main), "parse", refuse)
    monkeypatch.setattr(command, "callback",
                        lambda **options: seen.append(options) or callback(**options))
    args = ["counterexample", "--quantale", block_path, "--t", "3/8", "--s", "3/8",
            "--truncation", "50", "--variant", "filter", "--truncation", "40"]
    r = runner.invoke(lambda a: main.main(args=a, prog_name="quantalab"), args)
    assert r.exit_code == 0
    assert seen == [{"path": block_path, "scenario_path": None, "t_par": "3/8",
                     "s_par": "3/8", "truncation": 40, "variant": "filter",
                     "epsilon": "1/8", "out": None, "fmt": "text"}]


def test_an_argparse_line_reports_as_the_plain_one(runner, block_path):
    plain = ["counterexample", "--quantale", block_path, "--t", "3/8", "--s", "3/8",
             "--truncation", "50"]
    spelled = ["counterexample", f"--quantale={block_path}", "--t", "3/8", "--s=3/8",
               "--trunc", "50"]
    assert main.commands["counterexample"].read(spelled[1:]) is None
    a, b = runner.invoke(main, plain), runner.invoke(main, spelled)
    assert (a.exit_code, a.output) == (b.exit_code, b.output)
    assert a.exit_code == 0
