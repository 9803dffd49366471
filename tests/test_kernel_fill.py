"""The table builders on the carrier kernel against their Fraction oracles.

Every builder fills its table as position lists (see the ``semifilter``
module docstring).  Here each one is compared, exhaustively over small
carriers and base sets, with the table the oracle ``from_function`` builds
from the ``Fraction`` formulas: ``sub``, the evaluation degree
``sub(generator, -)``, the evaluation functional ``hat`` and
``precompose``.  The coreflections are compared with the join over every
level member.
"""

import functools
import itertools
import random

import pytest

from quantalab.errors import UsageError
from quantalab.monad import (Variant, check_naturality, kleisli_extend,
                             monad_units, random_variant_table,
                             table_satisfies)
from quantalab.prefilter import (bounded_coreflection, image_prefilter,
                                 least_positive_position, normalize_basis)
from quantalab.qfun import (QFunction, SetMap, all_qfunctions, constant,
                            finite_set, precompose, sub, unit_constant)
from quantalab.finite import five_chain, godel3, mv3, two_chain
from quantalab.semifilter import (ENUM_BUDGET, SemifilterFamily,
                                  SemifilterTable, conical_bounded_coreflection,
                                  conical_coreflection, conical_semifilters,
                                  enumerate_semifilters, evaluation_unit,
                                  image_semifilter, kowalsky_sum,
                                  level_prefilter, require_bounded_carrier,
                                  semifilter_of)

from oracles import from_function, hat, image_outer, is_bounded, is_bounded_function
from test_quantale import half_unit_chain, square_lattice
from test_semifilter import _coreflection_oracle

CARRIERS = {"two": two_chain(), "godel3": godel3(), "mv3": mv3(),
            "five": five_chain(), "square": square_lattice()}
SIZES = (0, 1, 2)
CASES = [(name, n) for name in CARRIERS for n in SIZES]
IDS = [f"{name}-{n}" for name, n in CASES]


def domain(n, prefix="x"):
    return finite_set(*(f"{prefix}{i}" for i in range(n)))


def has_least_positive(q):
    return q != CARRIERS["square"]


@functools.lru_cache(maxsize=None)
def semifilters(name, n):
    """Every semifilter on n points, or () where the scan exceeds its budget."""
    q = CARRIERS[name]
    if len(q.elements) ** (len(q.elements) ** n) > ENUM_BUDGET:
        return ()
    return tuple(enumerate_semifilters(domain(n), q))


def random_tables(q, dom, count, seed):
    """Seeded tables with arbitrary values: most fail F1-F3."""
    rng = random.Random(seed)
    size = len(q.elements) ** len(dom)
    return [SemifilterTable(dom, q, [rng.randrange(len(q.elements))
                                     for _ in range(size)])
            for _ in range(count)]


def join_of_subs(members, dom, q):
    def degree(lam):
        out = q.bottom
        for mu in members:
            out = q.join(out, sub(mu, lam))
        return out
    return from_function(dom, q, degree)


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_evaluation_unit_matches_evaluation(name, n):
    q, dom = CARRIERS[name], domain(n)
    for x in dom:
        assert evaluation_unit(dom, q, x) == \
            from_function(dom, q, lambda lam: lam(x))


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_semifilter_of_every_function_and_pair(name, n):
    q, dom = CARRIERS[name], domain(n)
    fns = list(all_qfunctions(dom, q))
    for pair in itertools.combinations_with_replacement(fns, 2):
        for members in ([pair[0]], list(pair)):
            basis = normalize_basis(members)
            assert semifilter_of(basis) == from_function(
                dom, q, lambda lam: sub(basis.generator, lam))
            assert semifilter_of(members) == join_of_subs(members, dom, q)


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_coreflections_match_the_join_over_all_members(name, n):
    q, dom = CARRIERS[name], domain(n)
    tables = list(semifilters(name, n)) + random_tables(q, dom, 40, seed=n)
    for t in tables:
        assert conical_coreflection(t) == _coreflection_oracle(t)
        if has_least_positive(q):
            assert conical_bounded_coreflection(t) == \
                _coreflection_oracle(t, bounded=True)
        else:
            with pytest.raises(UsageError, match="no least positive element"):
                conical_bounded_coreflection(t)


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_is_bounded_matches_the_function_scan(name, n):
    q, dom = CARRIERS[name], domain(n)
    for t in list(semifilters(name, n)) + random_tables(q, dom, 40, seed=7 + n):
        expected = not any(not is_bounded_function(lam) and t(lam) == q.top
                           for lam in t.functions())
        assert is_bounded(t) == expected


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_conical_semifilters_and_f4_match_their_formulas(name, n):
    # at n = 0 the function space is one function, the empty one, and has
    # no column
    q, dom = CARRIERS[name], domain(n)
    unit = unit_constant(dom, q)
    assert conical_semifilters(dom, q) == [
        from_function(dom, q, lambda lam: sub(g, lam))
        for g in all_qfunctions(dom, q) if g.leq(unit)]
    for t in list(semifilters(name, n)) + random_tables(q, dom, 20, seed=n):
        assert t.f4_failures() == [i for i, p in enumerate(q.elements)
                                   if not q.leq(t(constant(dom, q, p)), p)]


def all_maps(source, target):
    for mapping in itertools.product(target.elements, repeat=len(source)):
        yield SetMap(source, target, mapping)


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_images_match_precomposition(name, n):
    q, dom = CARRIERS[name], domain(n)
    tables = list(semifilters(name, n))[:12] + random_tables(q, dom, 4, seed=n)
    for m in SIZES:
        for f in all_maps(dom, domain(m, "y")):
            for t in tables:
                plain = from_function(
                    f.target, q, lambda mu: t(precompose(f, mu)))
                assert image_semifilter(f, t) == plain
                if has_least_positive(q):
                    assert image_semifilter(f, t, bounded=True) == \
                        _coreflection_oracle(plain, bounded=True)


def families(name, n):
    """Families of conical semifilters on n points, labelled g0, g1, ...

    Unit tables where the enumeration is out of budget."""
    q, dom = CARRIERS[name], domain(n)
    conicals = [conical_coreflection(t) for t in semifilters(name, n)]
    members = list(dict.fromkeys(conicals)) or \
        [evaluation_unit(dom, q, x) for x in dom] or \
        [semifilter_of(normalize_basis([], dom, q))]
    return [SemifilterFamily.of(members[:1]), SemifilterFamily.of(members[:3])]


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_image_outer_matches_precomposition(name, n):
    q, dom = CARRIERS[name], domain(n)
    tables = list(semifilters(name, n))[:8] + random_tables(q, dom, 3, seed=n)
    for fam in families(name, n):
        for h in all_maps(dom, fam.labels):
            for t in tables:
                assert image_outer(t, h, fam) == from_function(
                    fam.labels, q, lambda xi: t(precompose(h, xi)))


@pytest.mark.parametrize("name", [name for name in CARRIERS
                                  if has_least_positive(CARRIERS[name])])
def test_bounded_outer_image_of_a_generator_matches_the_dense_route(name):
    # the bounded multiplication square of check_naturality pushes its outer
    # prefilter along h as a generator; the dense route, the outer table
    # pushed along h over the target family's labels and coreflected, is
    # the oracle
    q = CARRIERS[name]
    conicals = conical_semifilters(domain(2), q)
    for nx, ny in itertools.product((1, 2), (1, 2, 3)):
        fam_x = SemifilterFamily.of(conicals[:nx])
        fam_y = SemifilterFamily.of(conicals[-ny:])
        for g in all_qfunctions(fam_x.labels, q):
            basis = bounded_coreflection(normalize_basis([g]))
            outer = conical_bounded_coreflection(semifilter_of(basis))
            for h in all_maps(fam_x.labels, fam_y.labels):
                dense = conical_bounded_coreflection(image_outer(outer, h, fam_y))
                assert semifilter_of(bounded_coreflection(
                    image_prefilter(h, basis))) == dense


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_kowalsky_sum_matches_the_evaluation_functional(name, n):
    q = CARRIERS[name]
    rng = random.Random(n)
    for fam in families(name, n):
        outers = random_tables(q, fam.labels, 6, seed=n)
        for _ in range(6):
            raw = [QFunction(fam.labels, tuple(rng.choice(q.elements)
                                               for _ in fam.labels), q)
                   for _ in range(rng.choice((1, 2)))]
            basis = normalize_basis(raw, fam.labels, q)
            outers.append(semifilter_of(basis))
            assert kowalsky_sum(basis, fam) == from_function(
                fam.x_domain, q, lambda lam: sub(basis.generator, hat(fam, lam)))
        for outer in outers:
            assert kowalsky_sum(outer, fam) == from_function(
                fam.x_domain, q, lambda lam: outer(hat(fam, lam)))


KLEISLI_CASES = [(name, n, variant) for name, n in CASES if n
                 for variant in Variant
                 if variant is not Variant.BOUNDED
                 or has_least_positive(CARRIERS[name])]


@pytest.mark.parametrize("name,n,variant", KLEISLI_CASES,
                         ids=[f"{name}-{n}-{v.value}" for name, n, v in KLEISLI_CASES])
def test_kleisli_extend_matches_the_raw_sum(name, n, variant):
    # The extension trusts t and h's values to lie in the variant, so t is
    # drawn from it; the expected side still coreflects the raw sum over
    # every level member, which the extension leaves out under PLAIN and
    # FILTER.
    q, dom = CARRIERS[name], domain(n)
    rng = random.Random(n)
    for m in (1, 2):
        target = domain(m, "y")
        for _ in range(4):
            h = {x: random_variant_table(rng, target, q, variant) for x in dom}
            fam = SemifilterFamily(dom, tuple(h[x] for x in dom))
            extend = kleisli_extend(h, dom, variant)
            for _ in range(3):
                t = random_variant_table(rng, dom, q, variant)
                raw = from_function(
                    target, q, lambda lam: t(hat(fam, lam)))
                assert extend(t) == _coreflection_oracle(
                    raw, bounded=variant is Variant.BOUNDED)


LEMMA_CARRIERS = dict(CARRIERS, half=half_unit_chain())
LEMMA_CASES = [(name, variant) for name in LEMMA_CARRIERS for variant in Variant
               if variant is not Variant.BOUNDED
               or name not in ("square", "half")]


@pytest.mark.parametrize("name,variant", LEMMA_CASES,
                         ids=[f"{name}-{v.value}" for name, v in LEMMA_CASES])
def test_kleisli_extend_is_the_generator_product(name, variant):
    # The extension lemma, at every (h, t) with |X| in {1, 2} and |Y| <= 2:
    # the extension of t along h is the conical table sub(g, -) of the
    # quantale matrix product g(y) = join_x g_t(x) (x) g_h(x)(y) of the
    # generators, joined with the least positive element under BOUNDED.
    # The extension itself is the table path, kowalsky_sum coreflected
    # under BOUNDED; each generator is read off its table as the meet of
    # the level set.
    q = LEMMA_CARRIERS[name]
    k = q.kernel
    floor = (least_positive_position(q) if variant is Variant.BOUNDED
             else k.bottom)

    def listed(dom):
        """The variant's conical tables on dom, each with its generator."""
        return [(table, functools.reduce(QFunction.meet,
                                         level_prefilter(table)).index)
                for table in conical_semifilters(dom, q)
                if table_satisfies(table, variant)]

    compared = 0
    for n in (1, 2):
        dom, sources = domain(n), listed(domain(n))
        for m in (0, 1, 2):
            target = domain(m, "y")
            expected = {}
            for choice in itertools.product(listed(target), repeat=n):
                h = {x: table for x, (table, _) in zip(dom, choice)}
                extend = kleisli_extend(h, dom, variant)
                for t, g_t in sources:
                    g = [floor] * m
                    for a, (_, g_h) in zip(g_t, choice):
                        g = [k.join[v][k.tensor[a][b]] for v, b in zip(g, g_h)]
                    g = tuple(g)
                    if g not in expected:
                        expected[g] = semifilter_of(normalize_basis(
                            [QFunction.from_index(target, q, g)]))
                    assert extend(t) == expected[g], (h, t)
                    compared += 1
    assert compared > 0


def test_bounded_constructions_refuse_a_carrier_without_least_positive():
    q = CARRIERS["square"]
    dom = domain(1)
    message = f"carrier {q!r} has no least positive element"
    top = SemifilterTable(dom, q, [q.kernel.top] * 4)
    for refused in (lambda: conical_bounded_coreflection(top),
                    lambda: monad_units(dom, q, Variant.BOUNDED),
                    lambda: monad_units(domain(0), q, Variant.BOUNDED),
                    lambda: random_variant_table(random.Random(0), dom, q,
                                                 Variant.BOUNDED),
                    lambda: image_semifilter(SetMap.identity(dom), top, bounded=True),
                    lambda: bounded_coreflection(normalize_basis([], dom, q))):
        with pytest.raises(UsageError) as err:
            refused()
        assert str(err.value) == message
    # the plain constructions are unaffected
    assert conical_coreflection(top) == _coreflection_oracle(top)
    assert monad_units(dom, q)[dom.elements[0]] == evaluation_unit(dom, q, "x0")


def test_bounded_constructions_refuse_a_non_integral_carrier():
    # 1/2 is the least positive element, but the unit 1/2 lies below the
    # top: the refusal names the carrier, and the sampler draws nothing first
    q = half_unit_chain()
    dom = domain(1)
    message = f"carrier {q!r} is not integral, which boundedness needs"
    top = SemifilterTable(dom, q, [q.kernel.top] * 3)
    rng = random.Random(0)
    state = rng.getstate()
    for refused in (lambda: require_bounded_carrier(q),
                    lambda: conical_bounded_coreflection(top),
                    lambda: is_bounded(top),
                    lambda: table_satisfies(top, Variant.BOUNDED),
                    lambda: monad_units(dom, q, Variant.BOUNDED),
                    lambda: monad_units(domain(0), q, Variant.BOUNDED),
                    lambda: random_variant_table(rng, dom, q, Variant.BOUNDED),
                    lambda: image_semifilter(SetMap.identity(dom), top, bounded=True)):
        with pytest.raises(UsageError) as err:
            refused()
        assert str(err.value) == message
    assert rng.getstate() == state
    rep = check_naturality(q, samples=2)
    assert rep.passed
    assert rep.not_applicable == ["bounded-coreflection-naturality",
                                  "bounded-multiplication-square"]
