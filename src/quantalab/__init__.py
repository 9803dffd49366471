"""quantalab: an exact verification laboratory for quantale-valued filters.

Continuous t-norms with exact residuation, finite quantales, prefilters and
their saturations, semifilter tables with conical and bounded coreflections,
the derived monad structures with law suites, and proof-guided replication of
the monad-law counterexamples.

The modules follow the mathematics: ``quantale`` (carriers and residuation),
``qfun`` (functions into a carrier and their enrichment), ``prefilter`` and
``semifilter`` (the two filter notions and the Galois connection between
them), ``monad`` (units, multiplication, Kleisli extension, law suites),
``counterexample`` (exact symbolic replication on the unit interval),
``classical`` (the set-filter oracle), ``serialize`` and ``cli``.
"""

from .quantale import (FiniteQuantale, TNorm, build_ordinal_sum,
                       check_condition_s, check_quantale_axioms, five_chain,
                       godel3, godel_tnorm, lukasiewicz_tnorm, mv3,
                       product_tnorm, two_chain)
from .qfun import FiniteSet, QFunction, SetMap, finite_set, image, precompose, sub
from .prefilter import (PrefilterBasis, bounded_coreflection, eval_degree,
                        image_prefilter, is_top_filter, member,
                        normalize_basis, saturation_member)
from .semifilter import (ConicalTest, SemifilterFamily, SemifilterTable,
                         check_axioms, conical_bounded_coreflection,
                         conical_coreflection, conical_semifilters,
                         enumerate_semifilters, evaluation_unit,
                         image_semifilter, is_bounded, is_conical,
                         kowalsky_sum, level_prefilter, meet, residuate,
                         semifilter_of)
from .monad import (KleisliScenario, Variant, check_monad_laws,
                    check_naturality, classical_correspondence_report,
                    kleisli_extend, monad_multiplication, monad_units)
from .counterexample import FunctionDescriptor, run_counterexample

__version__ = "0.1.0"
