r"""Special functions for the closed-form references.

Only two functions are needed, the sine and cosine integrals

    Si(x) = int_0^x sin(t)/t dt,
    Ci(x) = gamma + ln(x) + int_0^x (cos(t) - 1)/t dt,

which enter the closed form of the ellipsoidal-phase reference integral.

Si and Ci are evaluated from their power series for ``x <= 4`` and through
the exponential integral ``E1(ix)`` (modified Lentz continued fraction) for
``x > 4``; both branches deliver better than 1e-13 absolute accuracy on the
supported range ``x <= 1e8``.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "EULER_GAMMA",
    "sin_int",
    "cos_int",
    "ellipsoid_reference",
]

EULER_GAMMA = 0.5772156649015328606

_SERIES_CUTOFF = 4.0


def _sici_series(x: float) -> tuple[float, float]:
    # Power series around 0:
    #   Si(x)  = sum_{k>=0} (-1)^k x^(2k+1) / ((2k+1)(2k+1)!)
    #   Ci(x)  = gamma + ln x + sum_{k>=1} (-1)^k x^(2k) / (2k (2k)!)
    x2 = x * x
    si = x
    t = x  # running sin-series term x^(2k+1)/(2k+1)! with sign
    for k in range(1, 200):
        t *= -x2 / ((2 * k) * (2 * k + 1))
        contrib = t / (2 * k + 1)
        si += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(si)):
            break
    ci = EULER_GAMMA + math.log(x)
    t = 1.0  # running cos-series term x^(2k)/(2k)! with sign
    for k in range(1, 200):
        t *= -x2 / ((2 * k - 1) * (2 * k))
        contrib = t / (2 * k)
        ci += contrib
        if abs(contrib) < 1e-18 * max(1.0, abs(ci)):
            break
    return si, ci


def _e1_continued_fraction(z: complex) -> complex:
    # E1(z) = exp(-z) * CF, evaluated by the modified Lentz algorithm.
    # Reliable for Re(z) >= 0 with |z| not small; used here for z = i x,
    # x > 4, where convergence takes a few dozen terms.
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -i * i * 1.0
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return cmath.exp(-z) * h


def _sici_asymptotic(x: float) -> tuple[float, float]:
    # For x > 0:  E1(ix) = -Ci(x) + i (Si(x) - pi/2),
    # i.e. Ci(x) = -Re E1(ix), Si(x) = pi/2 + Im E1(ix).
    e1 = _e1_continued_fraction(1j * x)
    ci = -e1.real
    si = 0.5 * math.pi + e1.imag
    return si, ci


def _sici(x: float) -> tuple[float, float]:
    if x <= _SERIES_CUTOFF:
        return _sici_series(x)
    return _sici_asymptotic(x)


def sin_int(x: float) -> float:
    """Sine integral Si(x) for ``0 <= x <= 1e8``."""
    if x < 0:
        raise ValueError(f"sin_int is defined for x >= 0, got {x}")
    if x > 1e8:
        raise ValueError(f"sin_int supports x <= 1e8, got {x}")
    if x == 0.0:
        return 0.0
    return float(_sici(x)[0])


def cos_int(x: float) -> float:
    """Cosine integral Ci(x) for ``0 < x <= 1e8``."""
    if not x > 0:
        raise ValueError(f"cos_int is defined for x > 0, got {x}")
    if x > 1e8:
        raise ValueError(f"cos_int supports x <= 1e8, got {x}")
    return float(_sici(x)[1])


def ellipsoid_reference(omega: float) -> complex:
    r"""Closed form of the full-space integral with phase ``sqrt(x^2+2y^2+3z^2)``.

    Evaluates ``sqrt(2/3) pi (i cos w + sin w)(pi + 2i Ci(w) - 2 Si(w))``,
    the exact value of

        int_R3 exp(i w sqrt(x^2+2y^2+3z^2))
               / ((x^2+2y^2+3z^2)(1 + sqrt(x^2+2y^2+3z^2))) dV.

    For large ``w`` the factor ``pi + 2i Ci - 2 Si`` is a difference of
    nearly equal quantities; it equals ``-2i conj(E1(i w))`` and is taken
    straight from the continued fraction there, which keeps the result
    accurate in a relative rather than absolute sense.
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise ValueError(f"ellipsoid_reference needs a finite omega > 0, got omega={omega}")
    osc = 1j * math.cos(omega) + math.sin(omega)
    if omega <= _SERIES_CUTOFF:
        tail = math.pi + 2j * cos_int(omega) - 2.0 * sin_int(omega)
    else:
        # Ci = -Re E1(iw), Si - pi/2 = Im E1(iw), so the bracket collapses
        tail = -2j * _e1_continued_fraction(1j * omega).conjugate()
    return math.sqrt(2.0 / 3.0) * math.pi * osc * tail
