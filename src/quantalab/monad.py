"""Monad assembly over finite carriers: units, multiplication, Kleisli
extension, the law checker, naturality spot checks and the classical
filter correspondence.

The unit at a point is the evaluation table (already conical); the
multiplication is the Kowalsky sum over a declared family.  Under PLAIN and
FILTER that sum is the multiplication itself: a Kowalsky sum of conical
tables is the conical table of the generator product, so the conical
coreflection would fix it (the proof is the docstring of
``tests/test_monad.py::test_a_kowalsky_sum_of_conical_tables_is_conical``).
Under BOUNDED the sum can be unbounded, and it passes through the bounded
coreflection.  The Kleisli extension of ``h`` is the multiplication over
``h``'s values as a family labelled by its domain, so it never materializes
second-level tables: the sum at ``lam`` is just ``T`` applied to
``x |-> h(x)(lam)``.  Both trust their tables to lie in the variant.  This
table path is the paper's definition, and naturality runs on it.

The law verdict is computed on generator rows.  Every table of the monad
is conical, ``sub(g, -)`` for one generator ``g`` (``table_generator``),
and the Kleisli extension of a map into such tables is then a ``(x)``-join
matrix product of generator rows, joined with the least positive element
under BOUNDED (``extend_rows``); the units are rows too (``unit_rows``).
That this is the table path's extension is an identity the tests check
against ``kleisli_extend`` on every scenario of small sizes, and on a
carrier that passes ``check_quantale_axioms`` the laws on rows follow
from the quantale axioms; so the suite checks this implementation, not
the theorem.

The monad laws are checked in one place, ``check_scenario``, on one
``KleisliScenario`` and the generator row of one table; only a failure
fills that table, to show it, and a table beyond ``TABLE_CAP`` is shown
as its generator row instead.  Whether a conical semifilter lies in a
variant is decided once, on its generator row (``row_satisfies``), and
``KleisliScenario`` holds rows that lie in the variant already: the
seeded maps of ``check_monad_laws`` are drawn so, and the maps pinned in
a scenario file are gated by its reader (``ScenarioSpec.explicit_maps``).
Pinned maps are not yet run.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Mapping, Sequence

from .base import Record, Variant
from .errors import UsageError
from .finite import FiniteQuantale
from .prefilter import (PrefilterBasis, bounded_coreflection, image_prefilter,
                        normalize_basis, saturation_member)
from .qfun import (FiniteSet, QFunction, SetMap, all_qfunctions, indicator,
                   sub, unit_constant)
from .semifilter import (TABLE_CAP, SemifilterFamily, SemifilterTable,
                         conical_bounded_coreflection, conical_coreflection,
                         conical_semifilters, enumerate_semifilters,
                         evaluation_unit, image_semifilter,
                         is_conical_semifilter, kowalsky_sum,
                         level_prefilter, require_bounded_carrier,
                         row_satisfies, semifilter_of, table_generator)
from .serialize import format_fraction, format_generator


def table_satisfies(table: SemifilterTable, variant: Variant) -> bool:
    """Whether a table is a conical semifilter (F1-F3) whose generator row
    lies in the variant (``row_satisfies``)."""
    return is_conical_semifilter(table) and row_satisfies(
        table_generator(table), table.carrier, variant)


def monad_units(domain: FiniteSet, carrier: FiniteQuantale,
                variant: Variant = Variant.PLAIN) -> dict:
    """The unit at every point: evaluation tables, coreflected for BOUNDED.

    BOUNDED needs an integral carrier with a least positive element
    (``require_bounded_carrier``); any other carrier is refused, even on an
    empty domain.
    """
    if variant is Variant.BOUNDED:
        require_bounded_carrier(carrier)
    out = {}
    for x in domain:
        e = evaluation_unit(domain, carrier, x)
        out[x] = conical_bounded_coreflection(e) if variant is Variant.BOUNDED else e
    return out


def monad_multiplication(outer: SemifilterTable | PrefilterBasis,
                         family: SemifilterFamily,
                         variant: Variant = Variant.PLAIN) -> SemifilterTable:
    """The Kowalsky sum over the declared family, coreflected under BOUNDED.

    The outer semifilter is read only at the evaluation functionals of the
    functions on the base set (see ``kowalsky_sum``); a ``PrefilterBasis``
    on the family's labels stands for ``semifilter_of(basis)``.  The outer
    table and the members are trusted to lie in the variant, as
    ``table_satisfies`` checks them; then a PLAIN or FILTER sum is conical
    already, and only a BOUNDED one can change under its coreflection.
    """
    total = kowalsky_sum(outer, family)
    return conical_bounded_coreflection(total) if variant is Variant.BOUNDED else total


class KleisliScenario:
    """One instance of the associativity data: maps into table spaces,
    carried by generator rows.

    ``f`` maps each point of x_set to the generator row of a table on y_set
    (``table_generator``: the carrier positions of the table's generator,
    in y_set's order), ``g`` likewise from y_set into rows on z_set.  The
    rows must lie in the variant (``row_satisfies``), as the seeded draws
    of ``random_variant_row`` and the maps that
    ``scenario.ScenarioSpec.explicit_maps`` reads do; the row extension
    trusts them.  x_set and y_set must not be empty.
    """

    __slots__ = ("x_set", "y_set", "z_set", "f", "g", "carrier", "variant")

    def __init__(self, x_set: FiniteSet, y_set: FiniteSet, z_set: FiniteSet,
                 f: dict, g: dict, carrier: FiniteQuantale,
                 variant: Variant = Variant.PLAIN):
        for name, src in (("X", x_set), ("Y", y_set)):
            if not len(src):
                raise UsageError(f"{name} is empty: the laws extend maps over X and Y")
        self.x_set, self.y_set, self.z_set = x_set, y_set, z_set
        self.f, self.g, self.carrier, self.variant = f, g, carrier, variant


def kleisli_extend(h: Mapping, domain: FiniteSet, variant: Variant = Variant.PLAIN
                   ) -> Callable[[SemifilterTable], SemifilterTable]:
    """Lift a map into tables to a map between table spaces.

    The extension is the multiplication over h's values as a family
    labelled by the domain: its sum sends lam to T(x |-> h(x)(lam)).
    Equivalent to multiplying the pushed-forward outer table over any
    family containing h's values and the units (checked in the tests).
    h's values and the tables it is applied to are trusted to lie in the
    variant, as ``table_satisfies`` checks them.
    """
    values = tuple(h[x] for x in domain)
    if not values:
        raise UsageError("cannot extend over an empty domain")
    family = SemifilterFamily(domain, values)
    return lambda table: monad_multiplication(table, family, variant)


def _floor(carrier: FiniteQuantale, variant: Variant) -> int:
    """The position below every generator row of the variant: the bottom,
    or under BOUNDED the kernel's least positive element, on a carrier
    ``require_bounded_carrier`` passes."""
    if variant is not Variant.BOUNDED:
        return carrier.kernel.bottom
    require_bounded_carrier(carrier)
    return carrier.kernel.least_positive


def unit_rows(domain: FiniteSet, carrier: FiniteQuantale,
              variant: Variant = Variant.PLAIN) -> dict:
    """The generator row of the unit at every point: the unit at the point
    and the bottom elsewhere, joined with the least positive element under
    BOUNDED.  ``semifilter_of`` fills each into its table of ``monad_units``."""
    floor = _floor(carrier, variant)
    at = carrier.kernel.join[carrier.kernel.unit][floor]
    n = len(domain)
    return {x: (floor,) * i + (at,) + (floor,) * (n - 1 - i)
            for i, x in enumerate(domain)}


def extend_rows(h: Mapping, domain: FiniteSet, carrier: FiniteQuantale,
                variant: Variant = Variant.PLAIN) -> Callable[[tuple], tuple]:
    """The Kleisli extension on generator rows: a quantale matrix product.

    ``h`` maps each point x of the domain to the generator row ``g_x`` of a
    table on a common target; the extension sends the generator ``G`` of a
    table on the domain to ``\\/_x G(x) (x) g_x(y)`` at each target point
    y, joined with the least positive element under BOUNDED.  For tables
    in the variant this is the generator of ``kleisli_extend(h)`` applied
    to the table of ``G``: under PLAIN and FILTER by the proof of
    ``tests/test_monad.py::test_a_kowalsky_sum_of_conical_tables_is_conical``,
    and under BOUNDED because the bounded coreflection joins a generator
    with the least positive constant.  The tests check the identity against
    the table path on every scenario of small sizes.
    """
    rows = [h[x] for x in domain]
    if not rows:
        raise UsageError("cannot extend over an empty domain")
    k = carrier.kernel
    tensor, join = k.tensor, k.join
    start = [_floor(carrier, variant)] * len(rows[0])

    def extend(row: tuple) -> tuple:
        out = start
        for a, g in zip(row, rows):
            by_a = tensor[a]
            out = [join[o][by_a[b]] for o, b in zip(out, g)]
        return tuple(out)
    return extend


# -- sampling ----------------------------------------------------------------

def _labels(prefix: str, n: int) -> FiniteSet:
    return FiniteSet(tuple(f"{prefix}{i}" for i in range(n)))

def random_qfunction(rng: random.Random, domain: FiniteSet,
                     carrier: FiniteQuantale) -> QFunction:
    """Values drawn from the carrier as positions: the pool has the
    elements' order, so a seed draws the same function."""
    pool = range(len(carrier.elements))
    return QFunction.from_index(domain, carrier, tuple(rng.choice(pool) for _ in domain))


def _random_basis(rng: random.Random, domain: FiniteSet,
                  carrier: FiniteQuantale) -> PrefilterBasis:
    """The prefilter of one or two seeded functions."""
    return normalize_basis([random_qfunction(rng, domain, carrier)
                            for _ in range(rng.choice((1, 2)))], domain, carrier)


def random_variant_row(rng: random.Random, domain: FiniteSet,
                       carrier: FiniteQuantale,
                       variant: Variant = Variant.PLAIN) -> tuple:
    """A seeded generator row of the requested kind: the meet of the
    constant unit and one or two seeded functions, as positions.

    FILTER functions share a pivot point held at the top so meets stay at
    the top there (a top-filter basis); BOUNDED functions avoid the bottom
    value so the meet stays positive; they need an integral carrier with
    a least positive element (``require_bounded_carrier``), which is
    checked before any draw.
    """
    k = carrier.kernel
    # under BOUNDED the positions at least the floor are the positive ones
    floor = _floor(carrier, variant)
    pool = [i for i in range(len(carrier.elements)) if k.leq[floor][i]]
    n = len(domain)
    size = rng.choice((1, 2))
    pivot = rng.randrange(n) if n else 0
    row = (k.unit,) * n
    for _ in range(size):
        fn = [rng.choice(pool) for _ in range(n)]
        if variant is Variant.FILTER and n:
            fn[pivot] = k.top
        row = tuple(k.meet[a][b] for a, b in zip(row, fn))
    return row


def random_variant_table(rng: random.Random, domain: FiniteSet,
                         carrier: FiniteQuantale,
                         variant: Variant = Variant.PLAIN) -> SemifilterTable:
    """The conical table of ``random_variant_row``'s draw."""
    row = random_variant_row(rng, domain, carrier, variant)
    return semifilter_of([QFunction.from_index(domain, carrier, row)])


def random_scenario(rng: random.Random, carrier: FiniteQuantale,
                    sizes: tuple[int, int, int],
                    variant: Variant = Variant.PLAIN) -> KleisliScenario:
    nx, ny, nz = sizes
    xs, ys, zs = _labels("x", nx), _labels("y", ny), _labels("z", nz)
    f = {x: random_variant_row(rng, ys, carrier, variant) for x in xs}
    g = {y: random_variant_row(rng, zs, carrier, variant) for y in ys}
    return KleisliScenario(xs, ys, zs, f, g, carrier, variant)


# -- law suite ---------------------------------------------------------------

class LawFailure(Record):
    __slots__ = ("law", "scenario", "detail")


class SuiteReport:
    """What a suite ran: the law scenarios and the checks, the failures (a
    ``LawFailure`` each, or the label of a failed check), the names of the
    checks it skipped, and whether a budget cut the law scenarios short."""

    __slots__ = ("scenarios_run", "checks", "failures", "not_applicable", "incomplete")

    def __init__(self):
        self.scenarios_run = self.checks = 0
        self.failures: list = []
        self.not_applicable: list[str] = []
        self.incomplete = False

    @property
    def passed(self) -> bool:
        return not self.failures and not self.incomplete

    def record(self, ok: bool, label: str):
        self.checks += 1
        if not ok:
            self.failures.append(label)


def _shown(sc: KleisliScenario, t: tuple) -> str:
    """t as its table's values, or as the generator row itself where
    ``table_size`` would refuse the table."""
    if len(sc.carrier.elements) ** len(sc.x_set) > TABLE_CAP:
        return format_generator(sc.carrier.elements, t)
    table = semifilter_of([QFunction.from_index(sc.x_set, sc.carrier, t)])
    return f"table ({', '.join(format_fraction(v) for v in table.canonical_values())})"


def check_scenario(sc: KleisliScenario, t: tuple, index: int = 0) -> list[LawFailure]:
    """The failures of the monad laws on one scenario and the table on its
    x_set with generator row t, each carrying ``index`` for replay.

    Three laws, ``2 + |X|`` comparisons of generator rows, which are
    comparisons of tables (``table_generator``): the extension of the
    units is the identity at t, extending f then applying it to the unit
    at x returns f(x) at every x, and the two ways of composing the
    extensions of f and g agree at t.  Every extension is the row path,
    ``extend_rows``, which trusts the maps the scenario holds and t, which
    must lie in the scenario's variant, as every draw of
    ``random_variant_row`` does.  Only a failure fills t's table, to show
    it, and only where ``table_size`` admits it; a larger t is shown as
    its generator row.
    """
    variant, carrier = sc.variant, sc.carrier
    units_x = unit_rows(sc.x_set, carrier, variant)
    failures = []
    if extend_rows(units_x, sc.x_set, carrier, variant)(t) != t:
        failures.append(LawFailure("unit-extension-identity", index, _shown(sc, t)))
    f_sharp = extend_rows(sc.f, sc.x_set, carrier, variant)
    for x in sc.x_set:
        if f_sharp(units_x[x]) != sc.f[x]:
            failures.append(LawFailure("extension-after-unit", index, f"at point {x!r}"))
    g_sharp = extend_rows(sc.g, sc.y_set, carrier, variant)
    gf = {x: g_sharp(sc.f[x]) for x in sc.x_set}
    gf_sharp = extend_rows(gf, sc.x_set, carrier, variant)
    if g_sharp(f_sharp(t)) != gf_sharp(t):
        failures.append(LawFailure("associativity", index, _shown(sc, t)))
    return failures


def check_monad_laws(carrier: FiniteQuantale, sizes: tuple[int, int, int] = (2, 2, 2),
                     scenarios: int = 200, seed: int = 0,
                     variant: Variant = Variant.PLAIN,
                     budget: int | None = None) -> SuiteReport:
    """Seeded verification of the unit laws and Kleisli associativity.

    Scenario i and its table are drawn as generator rows from
    ``random.Random(seed * 1_000_003 + i)`` and checked by
    ``check_scenario``; failures carry i for replay.
    """
    to_run = scenarios
    report = SuiteReport()
    if budget is not None and scenarios > budget:
        to_run = budget
        report.incomplete = True
    for i in range(to_run):
        rng = random.Random(seed * 1_000_003 + i)
        sc = random_scenario(rng, carrier, sizes, variant)
        t = random_variant_row(rng, sc.x_set, carrier, variant)
        report.failures += check_scenario(sc, t, i)
        report.checks += 2 + len(sc.x_set)
        report.scenarios_run += 1
    return report


# -- prefilter-side formulas -------------------------------------------------

def functional_of(lam: QFunction, universe: Sequence[PrefilterBasis],
                  labels: FiniteSet) -> QFunction:
    """lam-tilde: each prefilter of the universe gets its degree of lam."""
    return QFunction.from_index(labels, lam.carrier, tuple(
        sub(f.generator, lam, position=True) for f in universe))


def multiplication_prefilter_members(universe: Sequence[PrefilterBasis],
                                     labels: FiniteSet,
                                     outer: PrefilterBasis) -> tuple[QFunction, ...]:
    """The flattened prefilter by the membership formula: lam belongs iff its
    functional over the universe lies in the saturation of the outer
    prefilter.  Exhaustive over the finite function space."""
    domain = universe[0].domain
    carrier = universe[0].carrier
    return tuple(lam for lam in all_qfunctions(domain, carrier)
                 if saturation_member(outer, functional_of(lam, universe, labels)))


# -- naturality --------------------------------------------------------------

def _saturated_prefilter_universe(
        domain: FiniteSet,
        carrier: FiniteQuantale) -> tuple[list[PrefilterBasis], SemifilterFamily]:
    """All saturated prefilters on the domain, each carried by its generator
    ``g`` below the constant unit, and the family of their tables
    ``sub(g, -)``, which ``conical_semifilters`` lists in the same order."""
    k_x = unit_constant(domain, carrier)
    bases = [normalize_basis([g]) for g in all_qfunctions(domain, carrier)
             if g.leq(k_x)]
    tables = conical_semifilters(domain, carrier)
    return bases, SemifilterFamily(_labels("F", len(tables)), tuple(tables))


def check_naturality(carrier: FiniteQuantale, samples: int = 12,
                     seed: int = 0) -> SuiteReport:
    """Spot checks tying the prefilter formulas to the table constructions.

    Covers: the unit formula, the flattening formula against the
    multiplication, retraction of the coreflection on conical tables, the
    bounded multiplication naturality square, and naturality of the two
    bounded coreflections.  The flattening check and the right side of the
    square pass the outer prefilter as its basis, which is read only at the
    evaluation functionals, never as a dense table over the family's
    labels.  The bounded checks need an integral carrier with a least
    positive element (``require_bounded_carrier``); on any other carrier
    they are skipped and listed in ``not_applicable``.
    """
    rep = SuiteReport()
    rng = random.Random(seed)
    X = _labels("x", 2)
    Y = _labels("y", 2)

    # unit formula: the level set of the evaluation unit; functions on one
    # domain and carrier are compared by their codes
    above_unit = carrier.kernel.leq[carrier.kernel.unit]
    for i, x in enumerate(X):
        expected = {lam.code for lam in all_qfunctions(X, carrier)
                    if above_unit[lam.index[i]]}
        got = {lam.code for lam in level_prefilter(evaluation_unit(X, carrier, x))}
        rep.record(got == expected, f"unit-formula at {x!r}")

    # flattening formula against the multiplication
    S = _labels("s", 1)
    universe, family = _saturated_prefilter_universe(S, carrier)
    labels = family.labels
    for i in range(samples):
        outer_basis = _random_basis(rng, labels, carrier)
        flattened = monad_multiplication(outer_basis, family)
        via_tables = {lam.code for lam in level_prefilter(flattened)}
        via_formula = {lam.code for lam in
                       multiplication_prefilter_members(universe, labels, outer_basis)}
        rep.record(via_tables == via_formula, f"flattening-formula #{i}")

    # the coreflection retracts the inclusion of conical tables
    rep.record(all(conical_coreflection(t) == t for t in family.members),
               "coreflection-retraction")

    try:
        require_bounded_carrier(carrier)
    except UsageError:
        rep.not_applicable = ["bounded-coreflection-naturality",
                              "bounded-multiplication-square"]
        return rep

    # naturality of both bounded coreflections along sampled maps
    for i in range(samples):
        f = SetMap(X, Y, tuple(rng.choice(Y.elements) for _ in X))
        table = random_variant_table(rng, X, carrier)
        lhs = conical_bounded_coreflection(image_semifilter(f, table))
        rhs = conical_bounded_coreflection(
            image_semifilter(f, conical_bounded_coreflection(table)))
        rep.record(lhs == rhs, f"bounded-table-coreflection-naturality #{i}")

        basis = _random_basis(rng, X, carrier)
        plhs = bounded_coreflection(image_prefilter(f, basis))
        prhs = image_prefilter(f, bounded_coreflection(basis))
        rep.record(plhs == bounded_coreflection(prhs),
                   f"bounded-prefilter-coreflection-naturality #{i}")

    # bounded multiplication naturality square
    for i in range(samples):
        f = SetMap(X, Y, tuple(rng.choice(Y.elements) for _ in X))
        inner = [random_variant_table(rng, X, carrier, Variant.BOUNDED)
                 for _ in range(rng.choice((1, 2)))]
        inner = list(dict.fromkeys(inner))
        fam_x = SemifilterFamily.of(inner)
        basis = bounded_coreflection(_random_basis(rng, fam_x.labels, carrier))
        outer = conical_bounded_coreflection(semifilter_of(basis))
        lhs = image_semifilter(
            f, monad_multiplication(outer, fam_x, Variant.BOUNDED), bounded=True)

        pushed = [image_semifilter(f, t, bounded=True) for t in inner]
        units_y = list(monad_units(Y, carrier, Variant.BOUNDED).values())
        members_y = list(dict.fromkeys(pushed + units_y))
        fam_y = SemifilterFamily.of(members_y, prefix="h")
        h = SetMap(fam_x.labels, fam_y.labels,
                   tuple(fam_y.labels.elements[members_y.index(t)] for t in pushed))
        # the outer image on the generator: image_prefilter is the prefilter
        # side of the outer table pushed along h, by the image/precompose
        # adjunction
        outer_y = bounded_coreflection(image_prefilter(h, basis))
        rhs = monad_multiplication(outer_y, fam_y, Variant.BOUNDED)
        rep.record(lhs == rhs, f"bounded-multiplication-square #{i}")
    return rep


# -- classical correspondence ------------------------------------------------

def _filter_of_table(table: SemifilterTable) -> frozenset:
    """The family of crisp sets the table holds at full degree, read at the
    codes of the functions whose positions are the kernel's bottom and top."""
    k = table.carrier.kernel
    domain = table.domain
    out = []
    for index in itertools.product((k.bottom, k.top), repeat=len(domain)):
        if table.index[QFunction.from_index(domain, table.carrier, index).code] == k.top:
            out.append(frozenset(x for x, i in zip(domain, index) if i == k.top))
    return frozenset(out)


def classical_correspondence_report(max_size: int = 3) -> SuiteReport:
    """Match the two-chain filter tables against the classical filter monad.

    Checks, for every base set up to the given size: the bijection between
    filter tables and proper set filters, the units, images along all maps,
    and Kowalsky sums over the full filter family against the classical
    multiplication.
    """
    from .classical import (all_proper_filters, filter_image,
                            filter_multiplication, filter_unit, principal)
    from .finite import two_chain
    q = two_chain()
    rep = SuiteReport()
    for n in range(1, max_size + 1):
        X = _labels("x", n)
        tables = enumerate_semifilters(X, q, "filter", budget=2 ** (2 ** n) + 1)
        classical = all_proper_filters(X.elements)
        rep.record(len(tables) == len(classical) == 2 ** n - 1,
                   f"count mismatch at size {n}")
        sets_of = {t: _filter_of_table(t) for t in tables}
        classical_sets = {frozenset(f.sets()) for f in classical}
        rep.record(set(sets_of.values()) == classical_sets,
                   f"bijection mismatch at size {n}")

        for x in X:
            rep.record(sets_of[evaluation_unit(X, q, x)]
                       == frozenset(filter_unit(X.elements, x).sets()),
                       f"unit mismatch at {x!r} size {n}")

        Y = _labels("y", max(1, n - 1))
        for values in itertools.product(Y.elements, repeat=len(X)):
            f = SetMap(X, Y, values)
            fd = {x: f(x) for x in X}
            for t in tables:
                lhs = _filter_of_table(image_semifilter(f, t))
                ct = principal(X.elements, _principal_base(sets_of[t]))
                rhs = frozenset(filter_image(fd, Y.elements, ct).sets())
                rep.record(lhs == rhs, f"image mismatch size {n}")

        family = SemifilterFamily.of(tables)
        for combo_size in (1, 2):
            for base in itertools.combinations(tables, combo_size):
                wanted = indicator(family.labels, q,
                                   [family.labels.elements[tables.index(t)]
                                    for t in base])
                got = kowalsky_sum(normalize_basis([wanted]), family)
                expect = filter_multiplication(
                    X.elements,
                    [principal(X.elements, _principal_base(sets_of[t])) for t in base])
                rep.record(_filter_of_table(got) == frozenset(expect.sets()),
                           f"multiplication mismatch size {n}")
    return rep


def _principal_base(sets: frozenset) -> frozenset:
    # never empty: a filter table holds the whole set at full degree
    return frozenset.intersection(*sets)
