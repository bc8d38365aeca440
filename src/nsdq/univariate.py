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


def endpoint_contribution(f, g, endpoint: Endpoint1D, omega: float, m: int, dg=None) -> complex:
    """Descent-path contribution G(x) of one endpoint.

    Parameters
    ----------
    f, g : callables accepting complex arguments, analytic near the path.
    endpoint : location, local phase order and orientation.
    omega : frequency (> 0).
    m : number of Gaussian points for the radial rule.
    dg : optional analytic derivative of g; a finite-difference fallback is
        used when omitted.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    alpha = endpoint.alpha_local
    x = endpoint.x
    gx = complex(g(x))
    phase = cmath.exp(1j * omega * gx)
    rule = gauss_exp_power(m, alpha, 0)
    dge = dg if dg is not None else (lambda z: complex_derivative(g, z))
    lead = _phase_coefficient(g, x, alpha, dg=dg)
    if abs(lead) < 1e-14:
        raise PathError(
            f"endpoint x={x}: phase coefficient of declared order {alpha} vanishes; "
            "alpha_local is wrong or the path is degenerate"
        )

    total = 0.0 + 0.0j
    z = None
    for xj, wj in zip(rule.nodes, rule.weights):
        p = xj**alpha / omega
        guess = x + _branch_seed(p, alpha, lead, endpoint.side) if z is None else z
        z = newton_descent(g, dge, gx + 1j * p, guess, context=f"endpoint x={x}")
        hprime = 1j / complex(dge(z))
        total += wj * xj ** (alpha - 1) * complex(f(z)) * hprime
    return phase * (alpha / omega) * total


def nsd_interval(f, g, a: float, b: float, omega: float, m: int, *, dg=None,
                 alpha_a: int = 1, alpha_b: int = 1) -> complex:
    """Steepest-descent value of ``int_a^b f exp(i w g) dx``.

    The phase must be monotone on ``[a, b]`` with nonvanishing derivative in
    the interior; endpoints with vanishing derivatives are declared through
    ``alpha_a`` and ``alpha_b``.  Returns G(a) - G(b); the error is of order
    ``w^-((2m-1)/alpha_max)`` plus exponentially small terms.
    """
    ea = Endpoint1D(a, alpha_a, side=+1)
    eb = Endpoint1D(b, alpha_b, side=-1)
    return (
        endpoint_contribution(f, g, ea, omega, m, dg=dg)
        - endpoint_contribution(f, g, eb, omega, m, dg=dg)
    )
