"""quantalab: an exact verification laboratory for quantale-valued filters.

Continuous t-norms with exact residuation, finite quantales, prefilters and
their saturations, semifilter tables with conical and bounded coreflections,
the derived monad structures with law suites, and proof-guided replication of
the monad-law counterexamples.

The modules follow the mathematics, and the paper's two carriers: the unit
interval with a continuous t-norm, on which the monad question is decided,
and the finite quantales on which the law suites run.  ``quantale`` holds
the interval carrier (t-norms, residuation, condition (S)), ``finite`` the
finite carrier and its shipped chains, and ``base`` what both carriers
share (``Record``, ``ZERO``/``ONE`` and the monad ``Variant``).  Over the
finite carrier: ``qfun`` (functions into a carrier and their enrichment),
``prefilter`` and ``semifilter`` (the two filter notions and the Galois
connection between them), ``monad`` (units, multiplication, Kleisli
extension, law suites) and ``classical`` (the set-filter oracle).  The law
verdict is computed on generator rows, where the Kleisli extension is a
matrix product; its link to the paper's definition on tables is an
identity the tests check.  Over the interval: ``counterexample`` (exact
symbolic replication, and the JSON of its witness expressions) and
``grid`` (the grid scans of the ``quantale`` command).  Then
``serialize`` (the rational coercion ``as_fraction``, quantale JSON and
reports), ``scenario`` (scenario files, and the function and table JSON
they pin) and ``cli``.

Importing the package loads none of them.  Each public name below, and each
module, is imported on first access (PEP 562), so ``from quantalab import
TNorm`` loads ``quantale`` and what it imports, and ``from quantalab import
five_chain`` loads ``finite`` but not ``quantale``, which only the call
``five_chain()`` loads, to cut the chain from its t-norm.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "base": ("Variant",),
    "quantale": ("TNorm", "build_ordinal_sum", "check_condition_s",
                 "godel_tnorm", "lukasiewicz_tnorm", "product_tnorm"),
    "finite": ("FiniteQuantale", "check_quantale_axioms", "five_chain", "godel3",
               "mv3", "two_chain"),
    "qfun": ("FiniteSet", "QFunction", "SetMap", "finite_set", "image",
             "precompose", "sub"),
    "prefilter": ("PrefilterBasis", "bounded_coreflection", "image_prefilter",
                  "member", "normalize_basis", "saturation_member"),
    "semifilter": ("SemifilterFamily", "SemifilterTable", "check_axioms",
                   "conical_bounded_coreflection", "conical_coreflection",
                   "conical_semifilters", "enumerate_semifilters",
                   "evaluation_unit", "image_semifilter", "kowalsky_sum",
                   "level_prefilter", "residuate", "semifilter_of"),
    "monad": ("KleisliScenario", "check_monad_laws", "check_naturality",
              "classical_correspondence_report", "kleisli_extend",
              "monad_multiplication", "monad_units"),
    "counterexample": ("FunctionDescriptor", "run_counterexample"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"classical", "cli", "errors", "grid",
                                      "scenario", "serialize"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(_MODULE_OF))
