"""Prefilters carried by their generators.

A prefilter is an upper set of Q-valued functions containing the constant
unit function and closed under binary meets.  A finitely generated prefilter
is principal: the meet of its generators and the constant unit belongs to it
and lies below every member.  Functions take their values in a finite
carrier (see ``qfun``), and on a finite base set every prefilter is then
finitely generated, so a prefilter is carried by that one generator.
Membership is one pointwise comparison with it, and the induced evaluation
degree of ``lam`` is one graded inclusion out of it, ``sub(generator, lam)``:
graded inclusion is antitone in its first argument and every member
dominates the generator, so the join over the prefilter is attained there.
The bounded coreflection is principal too: the generator joined with the
least positive constant, which the carrier's kernel holds; a value is
positive when it lies above the kernel's bottom.

Saturations of finitely generated prefilters need not be finitely generated,
so saturation is exposed only as a membership predicate and an evaluation
degree, never as a basis.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .base import Record
from .errors import UsageError
from .finite import FiniteQuantale
from .qfun import FiniteSet, QFunction, SetMap, image, sub, unit_constant


class PrefilterBasis(Record):
    """The prefilter of everything above one generator, on its space.

    Two bases are equal exactly when they generate the same prefilter.  Use
    ``normalize_basis`` to construct one.
    """

    __slots__ = ("generator",)

    @property
    def domain(self) -> FiniteSet:
        return self.generator.domain

    @property
    def carrier(self) -> FiniteQuantale:
        return self.generator.carrier

    def __len__(self):
        """The number of generators: always one."""
        return 1

    def __repr__(self):
        return f"PrefilterBasis({self.generator!r})"


def normalize_basis(raw: Iterable[QFunction], domain: FiniteSet | None = None,
                    carrier: FiniteQuantale | None = None) -> PrefilterBasis:
    """The prefilter generated by a family, carried by its one generator.

    The constant unit is always added, so the generated upper set is a
    genuine prefilter; the empty family generates the prefilter above the
    constant unit.  The generator is the pointwise meet of the family and
    the constant unit: it lies in the meet closure and below every member,
    and ``QFunction.meet`` refuses a member on another space.
    """
    fns = list(raw)
    if fns:
        domain, carrier = fns[0].domain, fns[0].carrier
    elif domain is None or carrier is None:
        raise UsageError("an empty basis needs an explicit domain and carrier")
    generator = functools.reduce(QFunction.meet, fns, unit_constant(domain, carrier))
    return PrefilterBasis(generator)


def member(pf: PrefilterBasis, lam: QFunction) -> bool:
    """lam belongs to the generated prefilter iff it dominates the generator."""
    return pf.generator.leq(lam)


def saturation_member(pf: PrefilterBasis, lam: QFunction) -> bool:
    """Membership in the saturation: the evaluation degree reaches the unit,
    read at its carrier position."""
    k = pf.carrier.kernel
    return k.leq[k.unit][sub(pf.generator, lam, position=True)]


def image_prefilter(f: SetMap, pf: PrefilterBasis) -> PrefilterBasis:
    """The prefilter of functions whose pullback along f is in pf.

    lam . f dominates the generator g exactly when lam dominates the
    pushforward image(f, g), so the image prefilter is generated by that
    pushforward; membership, saturation membership and the evaluation
    degree of the result all agree with the pullback formulas.
    """
    return normalize_basis([image(f, pf.generator)], f.target, pf.carrier)


# -- boundedness -------------------------------------------------------------

def bounded_coreflection(pf: PrefilterBasis) -> PrefilterBasis:
    """The largest prefilter inside pf all of whose members are bounded.

    The answer is again principal: join the generator with the constant at
    the least positive carrier element.
    """
    eps0 = least_positive_position(pf.carrier)
    eps_x = QFunction.from_index(pf.domain, pf.carrier, (eps0,) * len(pf.domain))
    return normalize_basis([pf.generator.join(eps_x)])


def least_positive_position(carrier: FiniteQuantale) -> int:
    """The kernel position of the least element above bottom of a finite
    carrier.

    Every bounded construction on a finite carrier needs it: positive
    values are then exactly those at least it, so bounded functions are
    closed under meets and each bounded coreflection has a largest result.
    A carrier without one is refused with a ``UsageError`` naming it.
    """
    eps0 = carrier.kernel.least_positive
    if eps0 is None:
        what = "positive" if len(carrier.elements) == 1 else "least positive"
        raise UsageError(f"carrier {carrier!r} has no {what} element")
    return eps0
