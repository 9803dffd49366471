"""Outside-in tracing bootstrap: run one CLI op with every layer wrapped.

Usage: python bench/tracer.py TRACE_OUT OP_ID CLI_ARG...

Wraps the public functions of each quantalab module, and a few methods, from
outside, then calls `quantalab.cli.main` with CLI_ARG.  Calls at a layer
boundary become spans (name, start, end, parent span, op id) kept in memory;
calls made around 10^5 times per op (carrier arithmetic, `sub`, `eval_at`)
only bump a count and, where it is cheap enough, a busy time.  The trace is
written to TRACE_OUT as JSON when the op ends.  The op's report on stdout is
untouched.

Functions imported by name into other modules (`sub` into prefilter and
semifilter; `conical_coreflection` and `eval_degree` into monad; ...) are
rebound in every module, so no call path escapes its wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

from quantalab.errors import BudgetError

LAYERS = ("quantale", "qfun", "prefilter", "semifilter", "monad", "classical",
          "counterexample", "serialize", "cli")

# Hot calls: count (and time) only, never a span.
COUNT_AND_TIME = {"qfun.sub", "prefilter.eval_degree",
                  "quantale.FiniteQuantale.residuum", "quantale.TNorm.residuum"}
COUNT_ONLY = {"counterexample.eval_at", "quantale.FiniteQuantale.tensor",
              "quantale.TNorm.tensor", "prefilter.is_bounded_function",
              "qfun.constant", "qfun.unit_constant", "qfun.precompose",
              "qfun.image", "semifilter.residuate_function",
              "counterexample.sampled_sub_bound", "counterexample.left_limit_residuum",
              "serialize.format_fraction", "serialize.parse_fraction",
              "quantale.as_fraction"}
# Methods traced besides public module-level functions, by span name.
METHOD_SPANS = {("semifilter", "SemifilterTable", "__init__"): "semifilter.table.init"}


def _len_result(args, kwargs, result):
    return len(result)


# A number taken from each call of a span, kept with the span as its "size".
SIZES = {
    "semifilter.level_prefilter": _len_result,
    "prefilter.normalize_basis": _len_result,
    "counterexample.close_catalog": _len_result,
    "semifilter.table.init": lambda a, k, r: len(a[0].entries),
    "counterexample.build_catalog": lambda a, k, r: [len(a[0]), len(r)],
    "counterexample.describe": lambda a, k, r: len(r.samples),
    "semifilter.enumerate_semifilters": lambda a, k, r: [
        len(a[1].elements) ** (len(a[1].elements) ** len(a[0])), len(r)],
    "monad.check_monad_laws": lambda a, k, r: r.scenarios_run,
    "counterexample.run_counterexample":
        lambda a, k, r: sum(n for _, _, n in r.step2_details),
}


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list = []
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.residuum_hits = 0
        self.budget_refusals = 0

    def span(self, name: str, fn):
        spans, stack, size = self.spans, self.stack, SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            except BudgetError as e:
                # count each refusal once, not at every span it unwinds
                if not getattr(e, "_bench_counted", False):
                    e._bench_counted = True
                    self.budget_refusals += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, None]
            if size is not None:
                spans[idx][4] = size(args, kwargs, result)
            if name == "monad.kleisli_extend":
                return self.span("monad.kleisli_extend.apply", result)
            return result
        return wrapper

    def count(self, name: str, fn, timed: bool):
        counts, busy = self.counts, self.busy
        counts[name] = busy[name] = 0
        if name == "quantale.FiniteQuantale.residuum":
            @functools.wraps(fn)
            def residuum(q, x, y):
                if (x, y) in getattr(q, "_residuum", ()):
                    self.residuum_hits += 1
                counts[name] += 1
                start = perf_counter()
                result = fn(q, x, y)
                busy[name] += perf_counter() - start
                return result
            return residuum
        if timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                start = perf_counter()
                result = fn(*args, **kwargs)
                busy[name] += perf_counter() - start
                return result
            return wrapper
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[name] += 1
                    yield item
            return gen

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def wrap(self, name: str, fn):
        if name in COUNT_AND_TIME:
            return self.count(name, fn, timed=True)
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self.count(name, fn, timed=False)
        return self.span(name, fn)

    def install(self):
        modules = {m: importlib.import_module(f"quantalab.{m}") for m in LAYERS}
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                replaced[obj] = self.wrap(f"{short}.{attr}", obj)
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        name = f"{short}.{attr}.{meth}"
                        if name in COUNT_AND_TIME or name in COUNT_ONLY:
                            setattr(obj, meth, self.wrap(name, fn))
                        elif (short, attr, meth) in METHOD_SPANS:
                            setattr(obj, meth,
                                    self.span(METHOD_SPANS[(short, attr, meth)], fn))
        # Rebind every module-level name that refers to a wrapped function.
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        cli = modules["cli"]
        cli._emit = self.span("serialize.render", cli._emit)
        for cmd in cli.main.commands.values():
            cmd.callback = self.span(f"cli.{cmd.name}", cmd.callback)
        return cli

    def dump(self, path: str):
        counts = dict(self.counts)
        counts["quantale.FiniteQuantale.residuum.hits"] = self.residuum_hits
        counts["semifilter.budget_refusals"] = self.budget_refusals
        with open(path, "w") as f:
            json.dump({"op_id": self.op_id, "spans": self.spans,
                       "counts": counts, "busy": self.busy}, f)


def main(argv: list[str]) -> None:
    out, op_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(op_id)
    cli = tracer.install()
    try:
        cli.main.main(args=cli_args, prog_name="quantalab")
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    main(sys.argv[1:])
