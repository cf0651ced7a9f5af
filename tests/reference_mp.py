"""High-precision reference for the decay factor p(t) and its first crossing
time, for tests only.

    p(t) = exp(-b t) (cosh(d t) + (b / d) sinh(d t)),
    b = (2a + gamma) / 2,   d^2 = b^2 - 2aA,

with d imaginary in the oscillatory regime, real when overdamped, and the
d = 0 limit exp(-b t) (1 + b t) at critical damping. Everything is evaluated
in mpmath at a precision that holds the float inputs' sums and b*t exactly
enough that no cancellation is left, so one formula serves every regime. It
shares no code with belldyn.kernel, and belldyn does not depend on mpmath.
"""

from __future__ import annotations

import math

import mpmath

DIGITS = 60  # decimal digits kept beyond every cancellation


def _digits(a: float, A: float, gamma: float, t_max=0.0) -> int:
    """Working precision: DIGITS plus the most digits that one step loses at
    these magnitudes: 2a + gamma, b^2 - 2aA, or exp(-b t) cosh(d t) with
    b t up to b t_max. Each step's error is relative to the working
    precision, so the losses do not add up. Logs, so no float overflows;
    t_max may be an mpf past the float range."""
    log_b = math.log10(a + gamma / 2)
    lost = [abs(2 * log_b - math.log10(2 * a) - math.log10(A))]
    if gamma > 0:
        lost.append(abs(math.log10(2 * a) - math.log10(gamma)))
    if t_max > 0:
        lost.append(log_b + float(mpmath.log10(t_max)))
    return DIGITS + max(0, math.ceil(max(lost)))


def _p(a, A, gamma, t):
    """p(t) at the current precision, for mpf arguments."""
    b = (2 * a + gamma) / 2
    d = mpmath.sqrt(b * b - 2 * a * A)
    if d == 0:
        return mpmath.exp(-b * t) * (1 + b * t)
    return mpmath.re(mpmath.exp(-b * t) * (mpmath.cosh(d * t) + b / d * mpmath.sinh(d * t)))


def decay_factor(a: float, A: float, gamma: float, t: float) -> float:
    """p(t) rounded to a float."""
    with mpmath.workdps(_digits(a, A, gamma, t)):
        return float(_p(*(mpmath.mpf(x) for x in (a, A, gamma, t))))


def _bracket_end(a, A, gamma):
    """The first upper end of the root's bracket: p's first zero when p
    oscillates, where p <= any target; else the slow time 1/(b - d) =
    (b + d)/(2aA), without the cancellation in b - d, which the search
    doubles until p <= target."""
    b = (2 * a + gamma) / 2
    d2 = b * b - 2 * a * A
    if d2 < 0:
        w = mpmath.sqrt(-d2)
        return (mpmath.pi - mpmath.atan(w / b)) / w
    return (b + mpmath.sqrt(d2)) / (2 * a * A)


def crossing_time(a: float, A: float, gamma: float, target: float) -> float:
    """The first t with |p(t)| = target in (0, 1), to ~30 digits.

    p falls monotonically from 1 to 0 up to its first zero (or forever, when
    it does not oscillate), so the crossing is bisected on p itself between 0
    and a time where p <= target."""
    with mpmath.workdps(_digits(a, A, gamma)):
        end = _bracket_end(*(mpmath.mpf(x) for x in (a, A, gamma)))
    # room for six doublings of the end (p ~ exp(-64) past them); each
    # further one costs b t a third of a digit of the DIGITS margin
    with mpmath.workdps(_digits(a, A, gamma, end * 64)):
        a, A, gamma, target = (mpmath.mpf(x) for x in (a, A, gamma, target))
        lo, hi = mpmath.mpf(0), _bracket_end(a, A, gamma)
        while _p(a, A, gamma, hi) > target:
            lo, hi = hi, 2 * hi
        for _ in range(1000):
            if hi - lo <= hi * mpmath.mpf("1e-30"):
                break
            mid = (lo + hi) / 2
            if _p(a, A, gamma, mid) > target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)
