r"""Quadrature rule construction.

Three families cover everything the steepest-descent integrators need:

* Gaussian rules for the half-line weights ``x^d exp(-x^alpha)``, used to
  resolve the radial descent integrals after the ``p -> q^alpha``
  substitution.  For ``alpha = 1`` these are the (generalized) Gauss-Laguerre
  rules; ``alpha = 2`` gives the half-range Gauss-Hermite rules.  The
  nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch), taken
  from numpy's dense symmetric eigensolver; the weights come from the
  orthonormal recurrence.
* Clenshaw-Curtis rules on finite intervals, used for the non-oscillatory
  outer (angular) integrations.
* The periodic trapezoidal rule, used when the outer integration runs over a
  full period.

A rule is its nodes and weights (``QuadRule``) and nothing else: which
family built it is the caller's business, and applying it is
``rule.weights @ f(rule.nodes)``.  Rules are memoized, one shared
read-only object per builder and arguments, because the convergence
experiments request the same small rules thousands of times.

Accuracy contracts used throughout the library:

* Gaussian rules reproduce the monomial moments
  ``Gamma((k + d + 1)/alpha)/alpha`` for ``k <= 2m - 1`` to 1e-10 relative.
* Clenshaw-Curtis with ``n`` points is exact on polynomials of degree
  ``n - 1`` to 1e-12 relative.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadRule",
    "exp_power_moment",
    "gauss_exp_power",
    "clenshaw_curtis",
    "trapezoid_periodic",
]

_MAX_POINTS = 64
_SUPPORTED_ALPHA = (1, 2, 3, 4)
_MAX_DEGREE = 8


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Frozen nodes and weights of a quadrature rule.

    The nodes increase strictly; both arrays are read-only, because one rule
    object is shared by every caller that asks for the same rule.  A rule
    compares and hashes by identity, so it can key what is built from it.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def exp_power_moment(k: int, alpha: int, degree: int = 0) -> float:
    """Moment ``int_0^inf x^(k+degree) exp(-x^alpha) dx = Gamma((k+degree+1)/alpha)/alpha``."""
    return math.gamma((k + degree + 1) / alpha) / alpha


def _laguerre_coefficients(m: int, degree: int):
    # Three-term recurrence of the generalized Laguerre polynomials for
    # x^degree e^{-x}: a_k = 2k + degree + 1, b_k = k (k + degree).
    k = np.arange(m, dtype=float)
    a = 2.0 * k + degree + 1.0
    b = k * (k + degree)
    b[0] = math.gamma(degree + 1.0)
    return a, b


def _discretized_measure(m: int, alpha: int, degree: int):
    # Composite Gauss-Legendre discretization of x^degree e^{-x^alpha} dx on
    # [0, L], accurate for polynomials up to degree ~2m.  L is chosen so the
    # relative tail mass of x^(2m+degree) e^{-x^alpha} is below 1e-34.
    dmax = 2 * m + degree + 2
    x_peak = (dmax / alpha) ** (1.0 / alpha)
    log_peak = dmax * math.log(x_peak) - x_peak**alpha
    L = x_peak
    while dmax * math.log(L) - L**alpha > log_peak - 80.0:
        L *= 1.1
    glx, glw = np.polynomial.legendre.leggauss(60)
    npanel = max(16, int(4 * L))
    edges = np.linspace(0.0, L, npanel + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        t = lo + half * (glx + 1.0)
        nodes.append(t)
        weights.append(half * glw * t**degree * np.exp(-(t**alpha)))
    return np.concatenate(nodes), np.concatenate(weights)


def _stieltjes_coefficients(m: int, alpha: int, degree: int):
    # Recurrence coefficients by the Stieltjes procedure over a discretized
    # measure, run in the numerically stable Lanczos form (orthonormal
    # polynomials on the grid).  Raw moment matrices are exponentially
    # ill-conditioned and are deliberately avoided.
    t, w = _discretized_measure(m, alpha, degree)
    a = np.empty(m)
    b = np.empty(m)
    b[0] = np.sum(w)
    p_prev = np.zeros_like(t)
    p_cur = np.full_like(t, 1.0 / math.sqrt(b[0]))
    beta = 0.0
    for k in range(m):
        a[k] = np.sum(w * t * p_cur**2)
        r = (t - a[k]) * p_cur - beta * p_prev
        norm2 = np.sum(w * r**2)
        if not norm2 > 0:
            raise ValueError(
                f"Stieltjes recurrence broke down at step {k} for weight "
                f"x^{degree} exp(-x^{alpha}); rule size {m} is beyond the stable range"
            )
        beta = math.sqrt(norm2)
        if k + 1 < m:
            b[k + 1] = norm2
        p_prev, p_cur = p_cur, r / beta
    return a, b


def _golub_welsch(a: np.ndarray, b: np.ndarray):
    # Nodes are the eigenvalues of the Jacobi matrix (at most 64 x 64), from
    # numpy's dense symmetric solver, which returns them ascending; on the
    # supported rules they equal LAPACK's tridiagonal solver bit for bit
    # (tests/test_rules.py).  Weights are NOT taken from the eigenvector
    # first components (those underflow for the extreme nodes of large
    # rules); instead w_j = 1 / sum_k p_k(x_j)^2 with p_k the orthonormal
    # recurrence, which keeps even 1e-100 weights relatively accurate.
    m = len(a)
    if m == 1:
        return np.array([a[0]]), np.array([b[0]])
    sqrt_b = np.sqrt(b)
    nodes = np.linalg.eigvalsh(np.diag(a) + np.diag(sqrt_b[1:], 1) + np.diag(sqrt_b[1:], -1))
    p_prev = np.zeros_like(nodes)
    p_cur = np.full_like(nodes, 1.0 / sqrt_b[0])
    total = p_cur**2
    for k in range(m - 1):
        p_next = ((nodes - a[k]) * p_cur - sqrt_b[k] * p_prev) / sqrt_b[k + 1]
        total += p_next**2
        p_prev, p_cur = p_cur, p_next
    weights = 1.0 / total
    return nodes, weights


def _count(builder: str, name: str, value, lo: int = 1, hi: int | None = None, reason: str = "") -> int:
    # a rule size is an int or a numpy integer in [lo, hi]: a float such as
    # 2.5 would build a rule of another size and memoize it under the float.
    # ``reason`` explains a bound that the builder takes from another rule
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{builder} needs an integer {name}, got {name}={value!r}")
    if value < lo or (hi is not None and value > hi):
        bounds = f"{lo} <= {name}" + ("" if hi is None else f" <= {hi}")
        raise ValueError(f"{builder} needs {bounds}{reason}, got {name}={value}")
    return int(value)


def _length(builder: str, length, got: str) -> None:
    # an interval length must be finite and positive: an infinite or NaN end
    # gives NaN nodes, which would be memoized like any other rule
    if not 0 < length < math.inf:
        raise ValueError(f"{builder} needs a finite interval of positive length, got {got}")


_cache: dict = {}
_cache_lock = threading.Lock()


def _memoized(key, build) -> QuadRule:
    """The cached rule under ``key``; on a miss ``build()`` gives its nodes and weights.

    The arrays are made read-only before the rule is shared.  The build
    runs outside the lock, so two threads may both build a rule; the first
    one stored is the one every caller gets.
    """
    with _cache_lock:
        rule = _cache.get(key)
    if rule is not None:
        return rule
    nodes, weights = build()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    with _cache_lock:
        return _cache.setdefault(key, QuadRule(nodes, weights))


def gauss_exp_power(m: int, alpha: int, degree: int = 0) -> QuadRule:
    """m-point Gaussian rule for the weight ``x^degree exp(-x^alpha)`` on ``[0, inf)``.

    Parameters
    ----------
    m : int
        Number of points, an integer ``1 <= m <= 64``.
    alpha : int
        Exponent of the exponential decay, one of 1, 2, 3, 4.
    degree : int
        Polynomial factor of the weight, ``0 <= degree <= 8``.

    Returns
    -------
    QuadRule
        Rule exact on monomials up to degree ``2m - 1`` against the moments
        ``Gamma((k + degree + 1)/alpha)/alpha``.

    Raises
    ------
    ValueError
        If ``m`` is not an integer, or the requested rule is outside the
        range for which construction is numerically stable in double
        precision (m > 64, alpha not in {1, 2, 3, 4}, or degree > 8).
    """
    m = _count("gauss_exp_power", "m", m, hi=_MAX_POINTS)
    if alpha not in _SUPPORTED_ALPHA:
        raise ValueError(
            f"gauss_exp_power supports alpha in {_SUPPORTED_ALPHA} "
            f"(construction unstable otherwise), got alpha={alpha}"
        )
    if not 0 <= degree <= _MAX_DEGREE:
        raise ValueError(f"gauss_exp_power supports 0 <= degree <= {_MAX_DEGREE}, got {degree}")

    def build():
        if alpha == 1:
            return _golub_welsch(*_laguerre_coefficients(m, degree))
        return _golub_welsch(*_stieltjes_coefficients(m, alpha, degree))

    return _memoized(("exp_power", m, alpha, degree), build)


def _in_p(rule: QuadRule, alpha: int, omega: float, degree: int = 0):
    # a built rule for x^degree exp(-x^alpha) read in the descent variable p = x^alpha / omega:
    # the nodes p_j and the weights w_j x_j^(alpha-1-degree), as every descent sum takes them
    return rule.nodes**alpha / omega, rule.weights * rule.nodes ** (alpha - 1 - degree)


def _node_sum(w, f, dz):
    # sum_j w_j f_j dz_j over the leading (node) axis, added in node order:
    # a BLAS contraction would reorder the additions and change the last bits
    total = 0.0
    for wj, fj, dzj in zip(w, f, dz):
        total = total + wj * fj * dzj
    return total


def clenshaw_curtis(n: int, a: float, b: float) -> QuadRule:
    """n-point Clenshaw-Curtis rule on ``[a, b]``, exact on degree ``n - 1``; n is an integer."""
    n = _count("clenshaw_curtis", "n", n, 2)
    _length("clenshaw_curtis", b - a, f"[a, b] = [{a}, {b}]")

    def build():
        if n == 2:
            return np.array([a, b], dtype=float), np.array([0.5, 0.5]) * (b - a)
        N = n - 1
        theta = np.pi * np.arange(n) / N
        weights = np.ones(n)
        jmax = N // 2
        j = np.arange(1, jmax + 1)
        coef = 2.0 / (1.0 - 4.0 * j**2)
        if N % 2 == 0:
            coef[-1] *= 0.5
        weights += coef @ np.cos(2.0 * np.outer(j, theta))
        weights *= 2.0 / N
        weights[0] *= 0.5
        weights[-1] *= 0.5
        # theta runs from 0 to pi, so cos(theta) descends; flip to ascend.
        nodes = np.ascontiguousarray((0.5 * (b - a) * (np.cos(theta) + 1.0) + a)[::-1])
        return nodes, np.ascontiguousarray((0.5 * (b - a) * weights)[::-1])

    return _memoized(("cc", n, float(a), float(b)), build)


def trapezoid_periodic(n: int, period: float) -> QuadRule:
    """n-point trapezoidal rule on one finite period ``[0, period)``.

    Exact on constants and on ``exp(2 pi i k x / period)`` for ``0 < |k| < n``;
    n is an integer.
    """
    n = _count("trapezoid_periodic", "n", n)
    _length("trapezoid_periodic", period, f"period={period}")

    def build():
        return period * np.arange(n) / n, np.full(n, period / n)

    return _memoized(("trap", n, float(period)), build)
