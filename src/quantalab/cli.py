"""Command-line front end.

Three subcommands: ``quantale`` runs axiom/adjunction/condition-(S) checks
on a definition file, ``laws`` runs the monad law and naturality suites on a
scenario file, and ``counterexample`` replays the associativity-failure
script.  Exit codes are a stable contract: 0 when expectations are met, 1 on
a mathematical failure, 2 on input errors, 3 on budget exhaustion.  Reports
are deterministic given inputs and seeds, and the structured output mirrors
the text output exactly.

A plain command line, ``COMMAND (--option VALUE)*``, is read without
``argparse`` (``Command.read``): every flag is spelled out in full as one
of that command's option strings, no value starts with ``-``, every value
passes its option's ``type`` and ``choices``, and every required option is
given.  It yields the options ``argparse`` would, and the same callback
runs.  Every other command line (help, an abbreviated flag, ``--opt=value``,
a value starting with ``-``, a bad value, a missing option) goes to the
``argparse`` parser, which prints the usage and help and exits 2 on a
usage error, as on an input error; only that path imports ``argparse``.
``bench/tracer.py`` wraps each ``main.commands[name].callback`` and runs
``main.main(args=..., prog_name=...)``, so both stay as they are.

A report that cannot be written to ``--out`` is an input error too.  Each
subcommand imports the layers it runs when it runs: ``counterexample``
never loads the finite carrier (``finite``) nor the finite function,
filter and monad modules, ``laws`` never loads the interval carrier
(``quantale``), and ``quantale`` loads ``finite`` only for a finite
definition.  The grid scans of ``quantale`` live in ``grid``, which no
other subcommand loads.  Scenario files are read by ``scenario``, which
``laws`` and ``counterexample --scenario`` load through
``serialize.load_scenario``; the reader gates a scenario's pinned maps,
which ``laws`` does not run yet.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .base import Variant
from .errors import BudgetError, PreconditionError, QuantalabError, UsageError
from .serialize import (format_fraction, load_quantale, load_scenario,
                        parse_fraction, render_text)

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
# The most grid points ``quantale --grid-step`` scans.  The adjunction scan
# is cubic in them: the default step 1/64 has 65 points, about 275 000
# triples, and the cap admits 1/128, about 2.1 million.
GRID_CAP = 129


class Command:
    """One subcommand: its name, the function that runs it, and the
    ``add_argument`` calls of its options as (flags, keywords) pairs."""

    __slots__ = ("name", "callback", "options", "_by_flag")

    def __init__(self, name: str, callback, options: tuple):
        self.name = name
        self.callback = callback
        self.options = options
        # each flag's option: its dest, named as argparse names it from
        # the first flag, and its keywords
        self._by_flag = {flag: (kwargs.get("dest") or flags[0][2:].replace("-", "_"), kwargs)
                         for flags, kwargs in options for flag in flags}

    def read(self, pairs: list) -> dict | None:
        """The options ``argparse`` would parse from ``--option VALUE``
        pairs, with the ``command`` entry first, or None unless every
        flag is an option string of this command, no value starts with
        ``-``, every value passes its ``type`` and ``choices``, and every
        required option is given.  A repeated option keeps its last
        value, or collects them all under ``action="append"``."""
        if len(pairs) % 2:
            return None
        by_flag, given = self._by_flag, {}
        for flag, value in zip(pairs[::2], pairs[1::2]):
            if flag not in by_flag or value.startswith("-"):
                return None
            dest, kwargs = by_flag[flag]
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except Exception:
                    # argparse calls the type again and reports the error
                    return None
            if value not in kwargs.get("choices", (value,)):
                return None
            if kwargs.get("action") == "append":
                given.setdefault(dest, []).append(value)
            else:
                given[dest] = value
        options = {"command": self.name}
        for dest, kwargs in by_flag.values():
            if dest not in given and kwargs.get("required"):
                return None
            options[dest] = given.get(dest, kwargs.get("default"))
        return options


class Group:
    """The ``quantalab`` command.  ``main`` reads the arguments and calls
    the subcommand's ``callback`` with the parsed options as keywords: a
    plain command line through ``Command.read``, any other through
    ``argparse``.  A library error that the callback raises ends the run:
    a ``BudgetError`` with exit 3, any other with exit 2, its message on
    stderr."""

    def __init__(self, description: str):
        self.description = description
        self.commands: dict[str, Command] = {}

    def command(self, name: str, *options):
        """Register the decorated function as the subcommand ``name``."""
        def register(fn):
            self.commands[name] = Command(name, fn, options)
            return fn
        return register

    def main(self, args=None, prog_name: str = "quantalab"):
        argv = sys.argv[1:] if args is None else list(args)
        command = self.commands.get(argv[0]) if argv else None
        options = command.read(argv[1:]) if command is not None else None
        if options is None:
            options = self.parse(argv, prog_name)
        try:
            self.commands[options.pop("command")].callback(**options)
        except BudgetError as e:
            print(f"budget exhausted: {e}", file=sys.stderr)
            sys.exit(EXIT_BUDGET)
        except QuantalabError as e:
            print(f"input error: {e}", file=sys.stderr)
            sys.exit(EXIT_INPUT_ERROR)

    def parse(self, argv: list, prog_name: str = "quantalab") -> dict:
        """The options ``argparse`` parses from argv, with the ``command``
        entry; on a usage error, or for help, it exits."""
        import argparse
        parser = argparse.ArgumentParser(prog=prog_name, description=self.description)
        subparsers = parser.add_subparsers(dest="command", metavar="COMMAND",
                                           required=True)
        for cmd in self.commands.values():
            doc = cmd.callback.__doc__
            sub = subparsers.add_parser(cmd.name, help=doc, description=doc)
            for flags, kwargs in cmd.options:
                sub.add_argument(*flags, **kwargs)
        return vars(parser.parse_args(argv))

    def __call__(self, args=None):
        self.main(args)


def _option(*flags, **kwargs):
    return flags, kwargs


def _count(value: str) -> int:
    """A count of at least 0; ``argparse`` is imported only to refuse one."""
    try:
        n = int(value)
    except ValueError:
        n = None
    if n is not None and n >= 0:
        return n
    import argparse
    raise argparse.ArgumentTypeError(f"invalid int value: {value!r}" if n is None
                                     else f"must not be negative, got {n}")


_OUT = _option("--out", default=None, metavar="FILE", help="Also write the report to this file.")
_FORMAT = _option("--format", dest="fmt", default="text", choices=["text", "structured"],
                  help="Report format (default: text).")


def _emit(report: dict, out: str | None, fmt: str):
    text = render_text(report) if fmt == "text" else json.dumps(report, indent=2)
    if out:
        try:
            Path(out).write_text(text + "\n")
        except OSError as e:
            # an input error, not a verdict: nothing is printed
            raise UsageError(f"cannot write {out}: {e.strerror or e}") from None
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone; the verdict still sets the exit code, and
        # what is left of stdout goes to devnull, so that the flush at exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


main = Group("Exact checks for quantale-valued filter structures and their monads.")


@main.command(
    "quantale",
    _option("--quantale", dest="path", required=True, metavar="FILE"),
    _option("--check", dest="checks", action="append",
            choices=["axioms", "adjunction", "s", "probe"],
            help="A check to run, repeatable; defaults to every applicable one. "
                 "s and probe need a t-norm definition."),
    _option("--grid-step", default="1/64", help="Grid step 1/2^n (default: 1/64)."),
    _OUT, _FORMAT)
def cmd_quantale(path, checks, grid_step, out, fmt):
    """Check a quantale definition file."""
    from .grid import (adjunction_witness, grid, pow2_step,
                       residuum_continuity_probe, tnorm_axiom_probe)
    from .quantale import TNorm, check_condition_s
    q = load_quantale(path)
    step = parse_fraction(grid_step)
    # refused whatever checks run
    points = pow2_step(step) + 1
    if points > GRID_CAP:
        raise BudgetError(f"grid step {format_fraction(step)} would scan {points} "
                          f"points (cap {GRID_CAP})", count=points)
    if not checks:
        checks = ("axioms", "adjunction", "s", "probe") if isinstance(q, TNorm) \
            else ("axioms", "adjunction")
    tnorm_only = [c for c in ("s", "probe") if c in checks]
    if tnorm_only and not isinstance(q, TNorm):
        raise PreconditionError(
            f"--check {tnorm_only[0]} needs a t-norm definition, "
            f"and {path} defines a finite quantale")
    report: dict = {"input": str(path), "kind": "tnorm" if isinstance(q, TNorm) else "finite"}
    failed = False

    if "axioms" in checks:
        if not isinstance(q, TNorm):
            from .finite import check_quantale_axioms
            violations = check_quantale_axioms(q)
            report["axioms"] = {
                "status": "ok" if not violations else "violated",
                "violations": [{"law": v.law,
                                "witness": [format_fraction(w) for w in v.witness]}
                               for v in violations]}
            failed = failed or bool(violations)
        else:
            bad = tnorm_axiom_probe(q, grid(step), grid(max(step, Fraction(1, 16))))
            report["axioms"] = {"status": "ok" if bad is None else "violated",
                                "probe": "grid"}
            if bad is not None:
                report["axioms"]["witness"] = [format_fraction(v) for v in bad]
                failed = True
    if "adjunction" in checks:
        bad = adjunction_witness(q, grid(step) if isinstance(q, TNorm) else q.elements)
        report["adjunction"] = {"status": "ok" if bad is None else "violated"}
        if bad is not None:
            report["adjunction"]["witness"] = [format_fraction(v) for v in bad]
            failed = True
    if "s" in checks:
        ok, block = check_condition_s(q)
        entry = {"status": "satisfied" if ok else "violated"}
        if block is not None:
            entry["witness_block"] = {"lo": format_fraction(block.lo),
                                      "hi": format_fraction(block.hi),
                                      "kind": block.kind.value}
        report["condition (S)"] = entry
        failed = failed or not ok
    if "probe" in checks:
        jump, where = residuum_continuity_probe(q, step)
        report["continuity probe"] = {
            "max_offdiagonal_jump": format_fraction(jump),
            "at": [[format_fraction(v) for v in pt] for pt in where] if where else None}
    _emit(report, out, fmt)
    sys.exit(EXIT_MATH_FAILURE if failed else EXIT_OK)


@main.command(
    "laws",
    _option("--scenario", dest="path", required=True, metavar="FILE"),
    _option("--seed", default=None, type=int, help="Overrides the file's seed."),
    _option("--budget", default=None, type=_count,
            help="Cap on the number of law scenarios actually run."),
    _OUT, _FORMAT)
def cmd_laws(path, seed, budget, out, fmt):
    """Run the monad-law and naturality suites from a scenario file."""
    from .finite import FiniteQuantale, check_quantale_axioms, two_chain
    from .monad import check_monad_laws, check_naturality, classical_correspondence_report
    scenario = load_scenario(path)
    if not isinstance(scenario.carrier, FiniteQuantale):
        raise PreconditionError("law suites need a finite carrier")
    violations = check_quantale_axioms(scenario.carrier)
    if violations:
        first = violations[0]
        witness = ", ".join(format_fraction(w) for w in first.witness)
        raise PreconditionError(
            f"carrier is not a quantale: {first.law} fails at ({witness})")
    seed = scenario.seed if seed is None else seed
    budget = scenario.budget if budget is None else budget

    # pinned maps are read and gated by the reader, not yet run
    scenario.explicit_maps()
    sizes = (len(scenario.x_set), len(scenario.y_set), len(scenario.z_set))
    law = check_monad_laws(scenario.carrier, sizes, scenario.scenarios, seed,
                           scenario.variant, budget=budget)
    nat = check_naturality(scenario.carrier, samples=8, seed=seed)
    report = {
        "input": str(path),
        "variant": scenario.variant.value,
        "seed": seed,
        "sizes": list(sizes),
        "laws": {"scenarios_run": law.scenarios_run,
                 "checks": law.checks,
                 "incomplete": law.incomplete,
                 "failures": [{"law": f.law, "scenario": f.scenario,
                               "detail": f.detail} for f in law.failures]},
        "naturality": {"checks": nat.checks, "failures": nat.failures},
    }
    if nat.not_applicable:
        report["naturality"]["not_applicable"] = nat.not_applicable
    if scenario.carrier == two_chain():
        cor = classical_correspondence_report(max_size=3)
        report["classical_filter_oracle"] = {
            "status": "match" if cor.passed else "mismatch",
            "checks": cor.checks, "failures": cor.failures}
    _emit(report, out, fmt)
    if law.incomplete:
        sys.exit(EXIT_BUDGET)
    failed = law.failures or nat.failures \
        or report.get("classical_filter_oracle", {}).get("status") == "mismatch"
    sys.exit(EXIT_MATH_FAILURE if failed else EXIT_OK)


@main.command(
    "counterexample",
    _option("--quantale", dest="path", default=None, metavar="FILE"),
    _option("--scenario", dest="scenario_path", default=None, metavar="FILE",
            help="Scenario file supplying the quantale, variant and an "
                 "optional witness catalog; flags take precedence."),
    _option("--t", dest="t_par", required=True, metavar="P"),
    _option("--s", dest="s_par", required=True, metavar="P"),
    _option("--truncation", default=1000, type=int, help="Default: 1000."),
    _option("--variant", default=None, choices=[v.value for v in Variant],
            help="Defaults to the scenario's variant, else plain."),
    _option("--epsilon", default="1/8", help="Default: 1/8."),
    _OUT, _FORMAT)
def cmd_counterexample(path, scenario_path, t_par, s_par, truncation, variant,
                       epsilon, out, fmt):
    """Replay the associativity-failure script on a t-norm definition."""
    from .counterexample import (NO_VIOLATION_EXPECTED, VIOLATION,
                                 run_counterexample)
    from .quantale import TNorm
    catalog = None
    if scenario_path is not None:
        scenario = load_scenario(scenario_path)
        q = scenario.carrier
        catalog = scenario.witness_catalog
        if variant is None:
            variant = scenario.variant.value
        if path is not None:
            q = load_quantale(path)
    elif path is not None:
        q = load_quantale(path)
    else:
        raise PreconditionError("need --quantale or --scenario")
    if variant is None:
        variant = Variant.PLAIN.value
    if not isinstance(q, TNorm):
        raise PreconditionError("the counterexample runs on t-norm specs")
    rep = run_counterexample(q, t_par, s_par, depth=truncation,
                             variant=Variant(variant), epsilon=epsilon,
                             catalog_exprs=catalog)
    report = {
        "input": str(path or scenario_path),
        "variant": rep.variant.value,
        "condition (S)": rep.condition_s,
        "certified": rep.certified,
        "routed_to_plain": rep.routed_to_plain,
        "p": format_fraction(rep.p),
        "q": format_fraction(rep.q) if rep.q is not None else None,
        "t": format_fraction(rep.t_par),
        "s": format_fraction(rep.s_par),
        "truncation": rep.depth,
        "catalog_size": rep.catalog_size,
        "step1_value": format_fraction(rep.step1_value),
        "step1_exact": rep.step1_exact,
        "step1_witness": rep.step1_witness,
        "step2_bound": format_fraction(rep.step2_bound),
        "coincide_on_catalog": rep.coincide_on_catalog,
        "claims": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in rep.claims],
        "verdict": rep.verdict,
    }
    _emit(report, out, fmt)
    expected = (rep.verdict == NO_VIOLATION_EXPECTED) if rep.condition_s \
        else (rep.verdict == VIOLATION and rep.all_claims_ok)
    sys.exit(EXIT_OK if expected else EXIT_MATH_FAILURE)


if __name__ == "__main__":
    main()
