"""The grid scans of the ``quantale`` command.

A t-norm has no finite carrier to scan, so ``quantale`` checks it on the
rational grid {0, step, ..., 1} of a step 1/2^n: the axiom probe, the
residuation adjunction, and the continuity probe of the residuum off the
diagonal.  The adjunction scan runs on a finite carrier's elements too.
Only ``cmd_quantale`` imports this module, so no other command compiles it.
"""

from __future__ import annotations

from fractions import Fraction

from .base import ONE, ZERO
from .errors import UsageError


def pow2_step(step: Fraction) -> int:
    """The n of a grid step 1/n, refused unless n is a power of two."""
    n = step.denominator
    if step.numerator != 1 or n & (n - 1):
        raise UsageError(f"grid step must be 1/2^n, got {step}")
    return n


def grid(step: Fraction) -> list[Fraction]:
    """The rational grid {0, step, 2*step, ..., 1}."""
    n = pow2_step(step)
    return [Fraction(k, n) for k in range(n + 1)]


def tnorm_axiom_probe(t, points, coarse):
    """First witness on the grid ``points`` against commutativity or the
    unit law, or on the ``coarse`` grid against associativity; None when
    the probe is clean."""
    one = points[-1]
    for x in points:
        if t.tensor(x, one) != x:
            return (x,)
        for y in points:
            if t.tensor(x, y) != t.tensor(y, x):
                return (x, y)
    for x in coarse:
        for y in coarse:
            xy = t.tensor(x, y)
            for z in coarse:
                if t.tensor(xy, z) != t.tensor(x, t.tensor(y, z)):
                    return (x, y, z)
    return None


def adjunction_witness(q, points):
    """First triple of ``points`` violating the residuation adjunction, or None."""
    tensor, res, leq = q.tensor, q.residuum, q.leq
    for x in points:
        for y in points:
            r = res(x, y)
            for z in points:
                if leq(tensor(x, z), y) != leq(z, r):
                    return (x, y, z)
    return None


def residuum_continuity_probe(t, step: Fraction, min_gap: Fraction = Fraction(1, 8)):
    """Largest residuum jump between grid neighbours away from the diagonal.

    Only pairs whose both endpoints satisfy |x - y| >= min_gap participate;
    steep-but-continuous regions near the diagonal (the product t-norm close
    to the origin) are thereby excluded while a genuine interior jump stays
    visible at any resolution.  The threshold separating the two is an
    engineering choice, not a theorem; see the tests for the calibration.
    """
    points = grid(step)
    off = [(x, y) for x in points for y in points if abs(x - y) >= min_gap]
    offset = set(off)
    best = ZERO
    where = None
    for x, y in off:
        r = t.residuum(x, y)
        for dx, dy in ((step, ZERO), (ZERO, step)):
            x2, y2 = x + dx, y + dy
            if x2 > ONE or y2 > ONE or (x2, y2) not in offset:
                continue
            jump = abs(t.residuum(x2, y2) - r)
            if jump > best:
                best, where = jump, ((x, y), (x2, y2))
    return best, where
