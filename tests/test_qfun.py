import itertools
from fractions import Fraction as F

import pytest

from quantalab.errors import UsageError
from quantalab.qfun import (QFunction, SetMap, all_qfunctions, constant,
                            finite_set, image, indicator, precompose, sub,
                            unit_constant)
from quantalab.finite import godel3, mv3

G3 = godel3()
X = finite_set("a", "b")
Y = finite_set("u", "v")


def qf(values, domain=X, carrier=G3):
    return QFunction(domain, tuple(F(v) for v in values), carrier)


def all_maps(src, dst):
    for values in itertools.product(dst.elements, repeat=len(src)):
        yield SetMap(src, dst, values)


def test_finite_set_rejects_duplicates():
    with pytest.raises(UsageError):
        finite_set("a", "a")


def test_a_bool_is_not_a_function_value():
    # True hashes as 1, so looking up its position alone would take it for 1
    for values in ((True,), (False,), (F(1, 2), True)):
        with pytest.raises(UsageError, match=rf"^not an exact rational: {values[-1]!r}$"):
            QFunction(finite_set(*"ab"[:len(values)]), values, G3)


def test_sub_examples():
    lam = qf([1, F(1, 2)])
    mu = qf([F(1, 2), 1])
    assert sub(lam, lam) == 1
    assert sub(lam, mu) == F(1, 2)


def test_sub_empty_domain_is_top():
    e = finite_set()
    assert sub(QFunction(e, (), G3), QFunction(e, (), G3)) == 1


def test_sub_domain_mismatch():
    with pytest.raises(UsageError):
        sub(qf([1, 1]), qf([1], finite_set("a")))


def test_sub_carrier_mismatch():
    with pytest.raises(UsageError):
        sub(qf([1, 1]), QFunction(X, (F(1), F(1)), mv3()))


def test_image_identity_and_constant():
    lam = qf([F(1, 2), 1])
    assert image(SetMap.identity(X), lam) == lam
    f = SetMap(X, finite_set("y"), ("y", "y"))
    assert image(f, lam).values == (F(1),)


def test_image_empty_fiber_is_bottom():
    f = SetMap(X, Y, ("u", "u"))
    assert image(f, qf([F(1, 2), 1]))("v") == 0


def test_image_rejects_values_outside_target():
    with pytest.raises(UsageError):
        SetMap(X, Y, ("u", "nope"))


def test_precompose():
    f = SetMap(X, Y, ("u", "u"))
    mu = qf([F(1, 2), 1], Y)
    assert precompose(f, mu).values == (F(1, 2), F(1, 2))
    assert precompose(SetMap.identity(Y), mu) == mu


def test_kan_adjunction_exhaustive():
    for f in all_maps(X, Y):
        for lam in all_qfunctions(X, G3):
            for mu in all_qfunctions(Y, G3):
                assert sub(image(f, lam), mu) == sub(lam, precompose(f, mu))


def test_triangle_inequality_exhaustive():
    fns = list(all_qfunctions(X, G3))
    for lam in fns:
        for mu in fns:
            for gam in fns:
                lhs = G3.tensor(sub(mu, gam), sub(lam, mu))
                assert G3.leq(lhs, sub(lam, gam))


def test_image_functorial():
    Z = finite_set("p", "q", "r")
    for f in all_maps(X, Y):
        for g in all_maps(Y, Z):
            for lam in all_qfunctions(X, G3):
                assert image(g.compose(f), lam) == image(g, image(f, lam))


def test_image_and_precompose_are_monotone():
    fns = list(all_qfunctions(X, G3))
    f = SetMap(X, Y, ("u", "v"))
    for lam in fns:
        for mu in fns:
            if lam.leq(mu):
                assert image(f, lam).leq(image(f, mu))
    for lam in all_qfunctions(Y, G3):
        for mu in all_qfunctions(Y, G3):
            if lam.leq(mu):
                assert precompose(f, lam).leq(precompose(f, mu))


def test_constants_and_indicator():
    k = unit_constant(X, G3)
    assert k.values == (F(1), F(1))
    assert constant(X, G3, F(1, 2)).values == (F(1, 2), F(1, 2))
    ind = indicator(X, G3, ["a"])
    assert ind.values == (F(1), F(0))


def test_canonical_enumeration_order():
    fns = [f.values for f in all_qfunctions(finite_set("a"), G3)]
    assert fns == [(F(0),), (F(1, 2),), (F(1),)]
    pairs = [f.values for f in all_qfunctions(X, G3)]
    assert pairs[0] == (F(0), F(0)) and pairs[1] == (F(0), F(1, 2))
    assert len(pairs) == 9
