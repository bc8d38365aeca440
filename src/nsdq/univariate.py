r"""Univariate numerical steepest descent.

An oscillatory integral ``int_a^b f(x) exp(i w g(x)) dx`` with monotone
phase equals ``G(a) - G(b)`` up to exponentially small terms, where each
endpoint contribution

    G(x) = exp(i w g(x)) int_0^inf f(h_x(p)) h_x'(p) exp(-w p) dp

runs along the steepest-descent path ``g(h_x(p)) = g(x) + i p``.  When the
first ``alpha - 1`` derivatives of ``g`` vanish at the endpoint the path
behaves like ``p^(1/alpha)`` and the substitution ``p -> q^alpha`` restores
analyticity; the integral is then resolved by the Gaussian rule for the
weight ``exp(-q^alpha)``, giving an error of order ``w^-((2m-1)/alpha)``.

The paths of any number of endpoints are traced together: one Newton
continuation in ``p`` over the (m, E) array of descent parameters, with
``newton_descent`` solving one node row for all E endpoints at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .paths import PathError, complex_derivative, newton_descent
from .rules import gauss_exp_power

__all__ = ["Endpoint1D", "endpoint_contribution", "nsd_interval"]


@dataclass(frozen=True)
class Endpoint1D:
    """An endpoint of an oscillatory integral.

    Attributes
    ----------
    x : location of the endpoint.
    alpha_local : 1 + number of vanishing derivatives of the phase at x.
    side : +1 when the integration interval lies to the right of x,
        -1 when it lies to the left.  Selects the descent branch when
        alpha_local >= 2; irrelevant otherwise.
    """

    x: float
    alpha_local: int = 1
    side: int = +1

    def __post_init__(self):
        if self.alpha_local < 1:
            raise ValueError(f"alpha_local must be >= 1, got {self.alpha_local}")
        if self.side not in (+1, -1):
            raise ValueError(f"side must be +1 or -1, got {self.side}")


def _phase_coefficient(g, x, alpha, dg=None):
    # Leading Taylor coefficient g^(alpha)(x)/alpha! by finite differences;
    # only seeds Newton, so modest accuracy suffices.
    if alpha == 1:
        if dg is not None:
            return complex(dg(x))
        return complex_derivative(g, complex(x))
    h = 1e-2
    if alpha == 2:
        d2 = (complex(g(x + h)) - 2 * complex(g(x)) + complex(g(x - h))) / h**2
        return d2 / 2.0
    # generic stencil for the alpha-th derivative
    ks = np.arange(-alpha, alpha + 1)
    A = np.vander(ks * h, 2 * alpha + 1, increasing=True).T
    rhs = np.zeros(2 * alpha + 1)
    rhs[alpha] = math.factorial(alpha)
    coeffs = np.linalg.solve(A, rhs)
    vals = np.array([complex(g(x + k * h)) for k in ks])
    return (coeffs @ vals) / math.factorial(alpha)


def _branch_seed(p, alpha, lead_coeff, side):
    # Roots of z^alpha = i p alpha! / g^(alpha) = i p / lead_coeff; pick the
    # one pointing into the interval (Re > 0 for side=+1, Re < 0 for -1),
    # with the principal root as tie-break.
    c = 1j * p / lead_coeff
    base = c ** (1.0 / alpha)
    roots = [base * cmath.exp(2j * cmath.pi * k / alpha) for k in range(alpha)]
    key = (lambda z: z.real) if side > 0 else (lambda z: -z.real)
    return max(roots, key=key)


def _endpoint_list(endpoints):
    return ", ".join(f"(x={e.x!r}, alpha={e.alpha_local}, side={e.side:+d})" for e in endpoints)


def endpoint_contribution(f, g, endpoint, omega: float, m: int, dg=None):
    """Descent-path contribution G(x) of one endpoint, or of a sequence of them.

    Every endpoint's path is traced in one Newton continuation in ``p``:
    row j of the (m, E) array of descent parameters is one
    ``newton_descent`` call over all E endpoints, seeded from the previous
    row (the first from each endpoint's branch seed).  ``f`` and ``dg`` are
    then evaluated once on the (m, E) array of path points, and each
    endpoint's node sum is taken in node order.

    Parameters
    ----------
    f, g : callables accepting complex arrays, analytic near the paths;
        a scalar result is broadcast.
    endpoint : an :class:`Endpoint1D` (returns a complex) or a sequence of
        them (returns a complex array, one value per endpoint).
    omega : frequency (> 0).
    m : number of Gaussian points for the radial rule.
    dg : optional analytic derivative of g; a finite-difference fallback is
        used when omitted.

    Raises PathError naming omega and the failing endpoints as
    (x, alpha, side) when a path cannot be traced.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    single = isinstance(endpoint, Endpoint1D)
    ends = (endpoint,) if single else tuple(endpoint)
    dge = dg if dg is not None else (lambda z: complex_derivative(g, z))
    leads = [_phase_coefficient(g, e.x, e.alpha_local, dg=dg) for e in ends]
    flat = [e for e, lead in zip(ends, leads) if abs(lead) < 1e-14]
    if flat:
        raise PathError(
            f"omega={omega}: phase coefficient of the declared order vanishes at endpoints "
            f"{_endpoint_list(flat)}; alpha_local is wrong or the path is degenerate"
        )

    x = np.array([e.x for e in ends], dtype=float)
    alpha = np.array([e.alpha_local for e in ends])
    rules = [gauss_exp_power(m, e.alpha_local, 0) for e in ends]
    nodes = np.stack([r.nodes for r in rules], axis=1)            # (m, E)
    weights = np.stack([r.weights for r in rules], axis=1) * nodes ** (alpha - 1)
    p = nodes**alpha / omega
    gx = np.broadcast_to(np.asarray(g(x), dtype=complex), x.shape)
    z = x + np.array([_branch_seed(pe, e.alpha_local, lead, e.side)
                      for pe, e, lead in zip(p[0], ends, leads)])
    zs = []
    # below the asymptotic regime Newton's iterates can reach angles where g
    # overflows; newton_descent turns the non-finite values into PathError,
    # so numpy's warnings are silenced here
    with np.errstate(over="ignore", invalid="ignore"):
        for pj in p:
            try:
                z = newton_descent(g, dge, gx + 1j * pj, z, context="along the endpoint paths")
            except PathError as err:
                failed = ends if err.failed is None else [e for e, bad in zip(ends, err.failed) if bad]
                raise PathError(f"{err} at omega={omega}; failing endpoints {_endpoint_list(failed)}",
                                err.failed) from err
            zs.append(z)
    z = np.stack(zs)
    terms = weights * np.broadcast_to(f(z), z.shape) * (1j / np.broadcast_to(dge(z), z.shape))
    total = 0.0
    for term in terms:
        total = total + term
    values = np.exp(1j * omega * gx) * (alpha / omega) * total
    return complex(values[0]) if single else values


def nsd_interval(f, g, a, b, omega: float, m: int, *, dg=None, alpha_a=1, alpha_b=1) -> complex:
    """Steepest-descent value of ``int_a^b f exp(i w g) dx``.

    The phase must be monotone on ``[a, b]`` with nonvanishing derivative in
    the interior; endpoints with vanishing derivatives are declared through
    ``alpha_a`` and ``alpha_b``.  Returns G(a) - G(b); the error is of order
    ``w^-((2m-1)/alpha_max)`` plus exponentially small terms.

    ``a``, ``b``, ``alpha_a`` and ``alpha_b`` may also be equal-length
    sequences of intervals: every endpoint is then traced in one
    :func:`endpoint_contribution` call and the interval values are summed
    in order.
    """
    a, b, alpha_a, alpha_b = np.broadcast_arrays(a, b, alpha_a, alpha_b)
    ends = []
    for ai, bi, aa, ab in zip(a.ravel(), b.ravel(), alpha_a.ravel(), alpha_b.ravel()):
        ends += [Endpoint1D(float(ai), int(aa), side=+1), Endpoint1D(float(bi), int(ab), side=-1)]
    values = endpoint_contribution(f, g, ends, omega, m, dg=dg)
    total = 0.0 + 0.0j
    for i in range(0, len(ends), 2):
        total += complex(values[i] - values[i + 1])
    return total
