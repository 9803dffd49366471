import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantalab.base import Variant
from quantalab.errors import UsageError
from quantalab.monad import extend_rows, random_variant_row, unit_rows
from quantalab.prefilter import (bounded_coreflection, image_prefilter,
                                 least_positive_position, member,
                                 normalize_basis, saturation_member)
from quantalab.qfun import (QFunction, SetMap, all_qfunctions, constant,
                            finite_set, precompose, sub, unit_constant)
from quantalab.finite import FiniteQuantale, five_chain, godel3, mv3, two_chain

from oracles import is_bounded_function, is_top_filter
from test_quantale import square_lattice

G3 = godel3()
M3 = mv3()
X = finite_set("a", "b")
S = finite_set("s")


def qf(values, domain=X, carrier=G3):
    return QFunction(domain, tuple(F(v) for v in values), carrier)


def generated_set(pf):
    """Brute-force the generated prefilter over the finite function space."""
    return [lam for lam in all_qfunctions(pf.domain, pf.carrier) if member(pf, lam)]


def random_bases(carrier, domain):
    values = st.sampled_from(carrier.elements)
    fn = st.tuples(*[values for _ in domain]).map(
        lambda vs: QFunction(domain, vs, carrier))
    return st.lists(fn, min_size=0, max_size=3)


# -- the meet-closure oracle ---------------------------------------------------

def closure_basis(raw, domain, carrier):
    """The meet closure of a family and the constant unit, by worklist."""
    k = unit_constant(domain, carrier)
    seen = {f.code: f for f in [*raw, k]}
    work = list(seen.values())
    while work:
        f = work.pop()
        for g in list(seen.values()):
            m = f.meet(g)
            if m.code not in seen:
                seen[m.code] = m
                work.append(m)
    return list(seen.values())


def minimal_members(fns):
    """The pointwise-minimal members of a finite family, duplicates dropped.

    Every member dominates one of them.  The result is an antichain and may
    have several elements; it is not the meet of the family, which need not
    belong to it.
    """
    distinct = list({f.code: f for f in fns}.values())
    return [f for f in distinct
            if not any(g is not f and g.leq(f) for g in distinct)]


def assert_generator_is_closure_minimum(raw, domain, carrier):
    pf = normalize_basis(raw, domain, carrier)
    assert minimal_members(closure_basis(raw, domain, carrier)) == [pf.generator]


ORACLE_CARRIERS = [two_chain(), G3, M3, five_chain(), square_lattice()]


@pytest.mark.parametrize("n", (0, 1, 2))
@pytest.mark.parametrize("carrier", ORACLE_CARRIERS,
                         ids=["two", "godel3", "mv3", "five", "square"])
def test_generator_is_the_meet_closure_minimum(carrier, n):
    dom = finite_set(*(f"x{i}" for i in range(n)))
    fns = list(all_qfunctions(dom, carrier))
    for f in fns:
        assert_generator_is_closure_minimum([f], dom, carrier)
    for pair in itertools.combinations(fns, 2):
        assert_generator_is_closure_minimum(list(pair), dom, carrier)


# -- normalization -----------------------------------------------------------

def test_empty_basis_is_smallest_prefilter():
    pf = normalize_basis([], X, G3)
    assert pf.generator.values == (F(1), F(1))
    assert member(pf, unit_constant(X, G3))
    assert not member(pf, qf([1, F(1, 2)]))


def test_meet_closure_and_reduction():
    pf = normalize_basis([qf([1, F(1, 2)]), qf([F(1, 2), 1])])
    assert pf.generator.values == (F(1, 2), F(1, 2))


def test_dominated_generators_removed():
    pf = normalize_basis([qf([F(1, 2), F(1, 2)]), qf([1, 1])])
    assert pf.generator.values == (F(1, 2), F(1, 2))


def test_mixed_domains_rejected():
    with pytest.raises(UsageError):
        normalize_basis([qf([1, 1]), qf([1], finite_set("a"))])


@settings(max_examples=60, deadline=None)
@given(random_bases(G3, X))
def test_normalization_preserves_generated_prefilter(raw):
    pf = normalize_basis(raw, X, G3)
    k = unit_constant(X, G3)
    for lam in all_qfunctions(X, G3):
        direct = any(b.leq(lam) for b in raw) or k.leq(lam)
        closed = member(pf, lam)
        # closure may add meets of generators, never remove anything
        if direct:
            assert closed
    # the generated set is meet-closed and upper-closed
    gen = generated_set(pf)
    for lam in gen:
        for mu in gen:
            assert member(pf, lam.meet(mu))


# -- membership and evaluation ----------------------------------------------

def test_member_examples():
    pf = normalize_basis([qf([F(1, 2), F(1, 2)])])
    assert member(pf, unit_constant(X, G3))
    assert member(pf, qf([1, F(1, 2)]))
    assert not member(pf, qf([F(1, 2), 0]))


def test_eval_degree_examples():
    half_g = normalize_basis([qf([F(1, 2)], S, G3)])
    half_m = normalize_basis([QFunction(S, (F(1, 2),), M3)])
    assert sub(half_g.generator, qf([0], S, G3)) == 0
    assert sub(half_m.generator, QFunction(S, (F(0),), M3)) == F(1, 2)
    assert sub(half_g.generator, half_g.generator) == 1


@settings(max_examples=40, deadline=None)
@given(random_bases(G3, X))
def test_eval_degree_matches_bruteforce_sup(raw):
    pf = normalize_basis(raw, X, G3)
    gen = generated_set(pf)
    for lam in all_qfunctions(X, G3):
        brute = max(sub(mu, lam) for mu in gen)
        assert sub(pf.generator, lam) == brute


# -- saturation --------------------------------------------------------------

def test_saturation_examples():
    half_m = normalize_basis([QFunction(S, (F(1, 2),), M3)])
    assert saturation_member(half_m, QFunction(S, (F(1, 2),), M3))
    half_g = normalize_basis([qf([F(1, 2)], S, G3)])
    assert not saturation_member(half_g, qf([0], S, G3))


@settings(max_examples=40, deadline=None)
@given(random_bases(M3, X))
def test_saturation_is_a_closure_operator(raw):
    pf = normalize_basis(raw, X, M3)
    sat = [lam for lam in all_qfunctions(X, M3) if saturation_member(pf, lam)]
    # extensive
    for lam in generated_set(pf):
        assert saturation_member(pf, lam)
    # idempotent: enlarging the basis by saturation members changes nothing
    enlarged = normalize_basis([pf.generator] + sat[:4], X, M3)
    for lam in all_qfunctions(X, M3):
        assert saturation_member(pf, lam) == saturation_member(enlarged, lam)


def test_saturation_monotone():
    small = normalize_basis([qf([1, F(1, 2)])])
    large = normalize_basis([qf([F(1, 2), F(1, 2)])])
    for lam in all_qfunctions(X, G3):
        if saturation_member(small, lam):
            assert saturation_member(large, lam)


# -- top filters ---------------------------------------------------------------

def test_top_filter_examples():
    assert is_top_filter(normalize_basis([], X, G3))
    assert is_top_filter(normalize_basis([qf([1, 0])]))
    assert not is_top_filter(normalize_basis([qf([F(1, 2), 0])]))


def test_top_filter_empty_domain():
    e = finite_set()
    assert not is_top_filter(normalize_basis([], e, G3))


# -- image -------------------------------------------------------------------

def test_image_prefilter_identity():
    pf = normalize_basis([qf([F(1, 2), 1])])
    out = image_prefilter(SetMap.identity(X), pf)
    assert out == pf


def test_image_prefilter_largest_pushes_to_largest():
    Y = finite_set("y")
    pf = normalize_basis([constant(X, G3, 0)])
    out = image_prefilter(SetMap(X, Y, ("y", "y")), pf)
    assert all(member(out, lam) for lam in all_qfunctions(Y, G3))


def test_image_prefilter_membership_is_pullback():
    Y = finite_set("u", "v")
    for mapping in (("u", "u"), ("u", "v"), ("v", "v")):
        f = SetMap(X, Y, mapping)
        pf = normalize_basis([qf([F(1, 2), F(1, 2)])])
        out = image_prefilter(f, pf)
        for lam in all_qfunctions(Y, G3):
            assert member(out, lam) == member(pf, precompose(f, lam))
            assert sub(out.generator, lam) == sub(pf.generator, precompose(f, lam))


def test_image_of_top_filter_is_top_filter():
    Y = finite_set("u", "v")
    pf = normalize_basis([qf([1, 0])])
    assert is_top_filter(pf)
    for mapping in (("u", "u"), ("u", "v"), ("v", "u")):
        assert is_top_filter(image_prefilter(SetMap(X, Y, mapping), pf))


# -- boundedness -------------------------------------------------------------

def test_bounded_function_on_finite_domain():
    assert is_bounded_function(qf([F(1, 2), 1]))
    assert not is_bounded_function(qf([F(1, 2), 0]))
    assert is_bounded_function(QFunction(finite_set(), (), G3))


def test_bounded_coreflection_examples():
    pf = normalize_basis([qf([1, 0])])
    out = bounded_coreflection(pf)
    assert out.generator.values == (F(1), F(1, 2))
    already = normalize_basis([qf([F(1, 2), F(1, 2)])])
    assert bounded_coreflection(already) == already
    assert bounded_coreflection(normalize_basis([], X, G3)) == normalize_basis([], X, G3)


@settings(max_examples=40, deadline=None)
@given(random_bases(G3, X))
def test_bounded_coreflection_is_largest_bounded_part(raw):
    pf = normalize_basis(raw, X, G3)
    out = bounded_coreflection(pf)
    oracle = {lam.values for lam in generated_set(pf) if is_bounded_function(lam)}
    got = {lam.values for lam in generated_set(out)}
    assert got == oracle
    assert min(out.generator.values) > 0




def test_a_one_element_carrier_has_no_positive_element():
    # the carrier {1} is integral, and its kernel holds no least positive
    # element; the refusal says there is no positive element at all, and
    # every bounded reader of the kernel gives it before any draw
    q = FiniteQuantale([1], [[1]], 1)
    assert q.is_integral and q.kernel.least_positive is None
    message = f"carrier {q!r} has no positive element"
    rng = random.Random(0)
    state = rng.getstate()
    for refused in (lambda: least_positive_position(q),
                    lambda: bounded_coreflection(normalize_basis([], S, q)),
                    lambda: unit_rows(S, q, Variant.BOUNDED),
                    lambda: extend_rows({"s": (0,)}, S, q, Variant.BOUNDED),
                    lambda: random_variant_row(rng, S, q, Variant.BOUNDED)):
        with pytest.raises(UsageError) as err:
            refused()
        assert str(err.value) == message
    assert rng.getstate() == state
