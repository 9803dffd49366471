"""Prefilters represented by finite meet-closed bases.

A prefilter is an upper set of Q-valued functions containing the constant
unit function and closed under binary meets.  Here it is carried by a finite
generating basis, kept meet-closed and antichain-reduced, so membership is a
finite scan and the induced evaluation degree is a maximum over the basis.

Saturations of finitely generated prefilters need not be finitely generated,
so saturation is exposed only as a membership predicate and an evaluation
degree, never as a basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BudgetError, UsageError
from .qfun import (FiniteSet, QFunction, SetMap, constant, image, sub,
                   unit_constant)
from .quantale import Carrier, FiniteQuantale, ZERO

BASIS_CAP = 4096


@dataclass(frozen=True)
class PrefilterBasis:
    """A finite basis generating the prefilter of everything above it.

    The stored tuple is meet-closed up to domination, antichain-reduced and
    canonically sorted, so two bases are equal exactly when they generate the
    same prefilter.  Use ``normalize_basis`` to construct one.
    """

    domain: FiniteSet
    carrier: Carrier
    basis: tuple[QFunction, ...]

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def __call__(self, lam: QFunction) -> Fraction:
        """The degree of lam in ``semifilter_of(self)``: ``eval_degree``.

        Same contract as ``SemifilterTable.__call__``, so a basis can stand
        for its induced table wherever only some of the table's values are
        read, such as the outer argument of a Kowalsky sum.
        """
        return eval_degree(self, lam)

    def __repr__(self):
        return f"PrefilterBasis({list(self.basis)!r})"


def normalize_basis(raw: Iterable[QFunction], domain: FiniteSet | None = None,
                    carrier: Carrier | None = None,
                    cap: int = BASIS_CAP) -> PrefilterBasis:
    """Meet-close and antichain-reduce a generating family.

    The empty family (and any family none of whose members lies below the
    constant unit) gets the constant unit added, so the generated upper set
    is always a genuine prefilter.  Dominated generators are dropped; the
    result is the unique minimal basis of the generated prefilter.
    """
    fns = list(raw)
    if not fns:
        if domain is None or carrier is None:
            raise UsageError("an empty basis needs an explicit domain and carrier")
    else:
        domain = fns[0].domain
        carrier = fns[0].carrier
        for f in fns:
            if f.domain != domain or f.carrier != carrier:
                raise UsageError("basis functions live on different domains or carriers")
    k_x = unit_constant(domain, carrier)
    if not any(f.leq(k_x) for f in fns):
        fns.append(k_x)

    seen = {f.key: f for f in fns}
    work = list(seen.values())
    while work:
        if len(seen) > cap:
            raise BudgetError(f"meet closure exceeded the basis cap of {cap}",
                              count=len(seen))
        f = work.pop()
        for g in list(seen.values()):
            m = f.meet(g)
            if m.key not in seen:
                seen[m.key] = m
                work.append(m)
    minimal = minimal_members(seen.values())
    minimal.sort(key=lambda f: f.key)
    return PrefilterBasis(domain, carrier, tuple(minimal))


def minimal_members(fns: Iterable[QFunction]) -> list[QFunction]:
    """The pointwise-minimal members of a finite family, duplicates dropped.

    Every member dominates one of them.  A function antitone in its
    argument, such as graded inclusion ``sub(-, lam)``, therefore has the
    same join over the family as over these members.  The result is an
    antichain and may have several elements; it is not the meet of the
    family, which need not belong to it.
    """
    distinct = list({f.key: f for f in fns}.values())
    return [f for f in distinct
            if not any(g is not f and g.leq(f) for g in distinct)]


def smallest_prefilter(domain: FiniteSet, carrier: Carrier) -> PrefilterBasis:
    """The prefilter of everything above the constant unit."""
    return normalize_basis([], domain, carrier)


def member(pf: PrefilterBasis, lam: QFunction) -> bool:
    """lam belongs to the generated prefilter iff it dominates a basis element."""
    if lam.domain != pf.domain or lam.carrier != pf.carrier:
        raise UsageError("function does not live on the prefilter's domain")
    return any(b.leq(lam) for b in pf.basis)


def eval_degree(pf: PrefilterBasis, lam: QFunction) -> Fraction:
    """The join over the prefilter of graded inclusions into lam.

    Because graded inclusion is antitone in its first argument and every
    member dominates a basis element, the join over the whole prefilter is
    attained on the basis, so a maximum over the basis is exact.
    """
    if lam.domain != pf.domain or lam.carrier != pf.carrier:
        raise UsageError("function does not live on the prefilter's domain")
    c = pf.carrier
    out = c.bottom
    for b in pf.basis:
        out = c.join(out, sub(b, lam))
    return out


def saturation_member(pf: PrefilterBasis, lam: QFunction) -> bool:
    """Membership in the saturation: the evaluation degree reaches the unit."""
    return pf.carrier.leq(pf.carrier.unit, eval_degree(pf, lam))


def is_top_filter(pf: PrefilterBasis) -> bool:
    """Every member has pointwise join above the unit.

    It suffices to inspect the basis, since members dominate basis elements.
    Only meaningful over integral carriers (unit = top).
    """
    c = pf.carrier
    if c.unit != c.top:
        raise UsageError("the top-filter notion needs an integral carrier")
    return all(c.leq(c.unit, b.max_value()) for b in pf.basis)


def image_prefilter(f: SetMap, pf: PrefilterBasis) -> PrefilterBasis:
    """The prefilter of functions whose pullback along f is in pf.

    lam . f dominates a basis element b exactly when lam dominates the
    pushforward image(f, b), so the image prefilter is generated by the
    pushforwards of the basis; membership, saturation membership and the
    evaluation degree of the result all agree with the pullback formulas.
    """
    if f.source != pf.domain:
        raise UsageError("map source does not match the prefilter domain")
    return normalize_basis([image(f, b) for b in pf.basis],
                           f.target, pf.carrier)


# -- boundedness -------------------------------------------------------------

def is_bounded_function(lam: QFunction) -> bool:
    """Bounded below by a positive constant; vacuously true on an empty domain."""
    return len(lam.domain) == 0 or lam.min_value() > ZERO


def default_epsilon_schedule(depth: int = 20) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, 2 ** n) for n in range(1, depth + 1))


@dataclass(frozen=True)
class BoundedPrefilterFamily:
    """The bounded coreflection of a prefilter over the unit interval.

    The coreflection is a union over positive epsilons of prefilters
    generated by basis elements joined with the constant epsilon; over the
    real interval it has no finite basis, so it is exposed as the
    epsilon-indexed family together with an exact membership test (on a
    finite domain a function is bounded iff its minimum is positive).
    """

    base: PrefilterBasis
    epsilons: tuple[Fraction, ...]

    def basis_at(self, eps: Fraction) -> PrefilterBasis:
        eps_x = constant(self.base.domain, self.base.carrier, eps)
        return normalize_basis([b.join(eps_x) for b in self.base.basis])

    def member(self, lam: QFunction) -> bool:
        return member(self.base, lam) and is_bounded_function(lam)


def bounded_coreflection(pf: PrefilterBasis,
                         epsilons: Sequence[Fraction] | None = None):
    """The largest prefilter inside pf all of whose members are bounded.

    Over a finite carrier the answer is again a finite basis: join every
    basis element with the constant at the least nonzero carrier element.
    Over the unit interval the answer is the epsilon-indexed family above.
    """
    c = pf.carrier
    if not c.is_finite:
        schedule = tuple(epsilons) if epsilons is not None else default_epsilon_schedule()
        return BoundedPrefilterFamily(pf, schedule)
    eps_x = constant(pf.domain, c, least_positive(c))
    return normalize_basis([b.join(eps_x) for b in pf.basis])


def least_positive(carrier: FiniteQuantale) -> Fraction:
    """The least element above bottom of a finite carrier.

    Every bounded construction on a finite carrier needs it: positive
    values are then exactly those at least it, so bounded functions are
    closed under meets and each bounded coreflection has a largest result.
    A carrier without one is refused with a ``UsageError`` naming it.
    """
    k = carrier.kernel
    positive = [i for i in range(len(carrier.elements)) if i != k.bottom]
    if not positive:
        raise UsageError(f"carrier {carrier!r} has no positive element")
    eps0 = positive[0]
    for i in positive:
        if k.leq[i][eps0]:
            eps0 = i
    if not all(k.leq[eps0][i] for i in positive):
        raise UsageError(f"carrier {carrier!r} has no least positive element")
    return carrier.elements[eps0]
