r"""Steepest-descent paths for the radial direction of a polar integrand.

A :class:`RadialScene` packages an oscillatory integrand restricted to rays
through its special point: a per-direction complex-analytic amplitude
``f(z, angles)``, an oscillator ``g(z, angles)`` normalized to ``g(0) = 0``,
and the structural data the integrators need (dimension, frequency, the
vanishing order ``alpha`` of the oscillator at the origin, the amplitude
singularity order, the star-shaped boundary radius).

The descent path from the origin solves ``g(rho_0(p)) = i p``; the path from
a boundary point ``R`` solves ``g(rho_R(p)) = g(R) + i p``.  Along either,
``exp(i w g)`` decays like ``exp(-w p)``.  A scene either supplies these
paths in closed form or leaves them to :func:`newton_descent`, which the
one continuation in ``p`` (``univariate._trace``) runs row by row over
whole direction grids and over the endpoints of the boundary term.  The
leading Taylor coefficient that seeds a path of order ``alpha >= 2`` comes
from ``_taylor_coefficient``, the package's one difference stencil, which
``complex_derivative`` also uses.  ``complex_derivative`` is the dG/dtheta
of a boundary phase whose scene has no ``d_boundary_phase``, for the
stationary-point scan and the descent paths alike.

The module also holds the closed-form angle paths of the rectangle's corner
decomposition, ``corner_h11`` ... ``corner_h22``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RadialScene",
    "PathError",
    "newton_descent",
    "complex_derivative",
    "corner_h11",
    "corner_h12",
    "corner_h21",
    "corner_h22",
]

_NEWTON_MAXIT = 50
_DERIV_FLOOR = 1e-14


class PathError(RuntimeError):
    """Raised when a descent path cannot be traced.

    ``failed`` is None or, for a batched solve, the boolean mask of the
    elements that failed (same shape as the starting points).
    """

    def __init__(self, message: str, failed=None):
        super().__init__(message)
        self.failed = failed


@dataclass
class RadialScene:
    """Per-direction radial restriction of an oscillatory integrand.

    Callables take ``(z, *angles)`` with ``z`` a complex scalar or array and
    must be analytic in ``z`` wherever paths are traced.  They must also be
    elementwise under numpy broadcasting: the angles are scalars or arrays
    of one common shape, and ``z`` may carry leading node axes in front of
    that shape (the radial pre-quadrature passes every radial node of a
    direction grid as one ``(m,) + angle shape`` array).  Each element of
    the result may depend only on the matching elements of ``z`` and the
    angles.  Closed-form paths follow the same rule with ``p`` in place of
    ``z``.  Every callable is a pure function of its argument values: a
    result may not depend on earlier calls, on which array object holds
    the values, or on whether the caller mutated an array after an earlier
    call.  A scene may share work between its callables only within that
    rule, as the sphere scene does (``scenes.sphere_scatter_scene``).

    Attributes
    ----------
    n : dimension of the ambient space (>= 2).
    omega : oscillation frequency (> 0).
    amplitude : f(z, *angles), the full amplitude at the point z*Theta,
        singular kernels included.
    oscillator : g(z, *angles), normalized so g(0, .) == 0.
    d_oscillator : dg/dz(z, *angles).
    alpha : radial vanishing order of the oscillator at the origin.
    alpha_coeff : leading radial Taylor coefficient of the oscillator,
        (d^alpha g / dr^alpha)(0+) / alpha!, as a callable of the angles.
    singularity_order : nu with amplitude = O(r^-nu) at the origin; nu < n.
    boundary_radius : R(*angles) for star-shaped domains, None if unbounded.
    d_boundary_phase : optional dG/dtheta(theta) of the boundary phase
        G(theta) = g(R(theta), theta), analytic in a complex theta; n = 2
        only.  The boundary term's stationary-point scan and its univariate
        descent (Newton steps, path derivatives) use it; without it both
        use the one fallback ``complex_derivative`` of G.
        G and dG/dtheta must be real on real angles: ``integrate_star_shaped``
        checks both once on its outer grid before the descent in the angle.
    phase_at_origin : constant exp(i w g(x0)) factored out by normalization.
    origin_path / boundary_path : optional closed forms
        (p, *angles) -> (rho, drho_dp) used by the integrators when present.
    """

    n: int
    omega: float
    amplitude: Callable
    oscillator: Callable
    d_oscillator: Callable
    alpha: int = 1
    alpha_coeff: Callable = lambda *angles: 1.0
    singularity_order: float = 0.0
    boundary_radius: Callable | None = None
    d_boundary_phase: Callable | None = None
    phase_at_origin: complex = 1.0 + 0.0j
    origin_path: Callable | None = None
    boundary_path: Callable | None = None
    name: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"RadialScene needs n >= 2, got {self.n}")
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValueError(f"RadialScene needs a finite omega > 0, got omega={self.omega}")
        if self.alpha < 1:
            raise ValueError(f"RadialScene needs alpha >= 1, got {self.alpha}")
        if not self.singularity_order < self.n:
            raise ValueError(
                f"amplitude singularity order {self.singularity_order} must be < n={self.n} "
                "for the polar integrand to be integrable at the origin"
            )


def _taylor_coefficient(f, x, alpha: int, s):
    # f^(alpha)(x) / alpha! by the order-alpha central difference with
    # spacing s (a scalar or elementwise array), summed in binomial order;
    # the package's only difference formula
    total = 0
    for k in range(alpha + 1):
        total = total + (-1) ** k * math.comb(alpha, k) * f(x + (alpha / 2 - k) * s)
    return total / s**alpha / math.factorial(alpha)


def complex_derivative(f, z):
    """Fourth-order df/dz for analytic ``f`` (central differences at z +- h and
    z +- 2h, h = 1e-5 max(1, |z|), extrapolated); fallback when a scene has no
    closed-form derivative.  ``z`` may be a scalar or an array."""
    s = 2e-5 * np.maximum(1.0, np.abs(z))
    return (4 * _taylor_coefficient(f, z, 1, s) - _taylor_coefficient(f, z, 1, 2 * s)) / 3


def newton_descent(g, dg, target, z0, *, context: str = ""):
    """Solve ``g(z) = target`` by Newton from ``z0``.

    Works elementwise on numpy arrays; a scalar start returns a 0-d value,
    element 0 of the same solve from a one-element array.  Raises PathError,
    with the mask of the failing elements in ``failed``, when the derivative
    collapses or is NaN (degenerate path), or when an element has not
    converged after 50 iterations; a non-finite residual never converges.
    """
    z = np.asarray(z0, dtype=complex)
    tgt = np.asarray(target, dtype=complex)
    scale = np.maximum(1.0, np.abs(tgt))
    for _ in range(_NEWTON_MAXIT):
        res = np.asarray(g(z), dtype=complex) - tgt
        if np.all(np.abs(res) <= 1e-14 * scale):
            break
        dgz = np.asarray(dg(z), dtype=complex)
        # negated comparisons: NaN fails every comparison and must count as a failure
        small = ~(np.abs(dgz) >= _DERIV_FLOOR)
        if np.any(small):
            raise PathError(f"degenerate path: |dg/dz| < {_DERIV_FLOOR} or NaN {context}",
                            np.broadcast_to(small, z.shape))
        z = z - res / dgz
    else:
        res = np.abs(np.asarray(g(z), dtype=complex) - tgt)
        bad = ~(res <= 1e-12 * scale)
        if np.any(bad):
            raise PathError(f"Newton did not converge after {_NEWTON_MAXIT} iterations "
                            f"(worst residual {np.max(res):.3e}) {context}",
                            np.broadcast_to(bad, z.shape))
    return z


# --- the rectangle's corner angle paths -------------------------------------
# On [0,a] x [0,b] with phase sqrt(x^2 + y^2) the boundary radius R(theta) is
# a sec(theta) below the diagonal and b csc(theta) above it; eta = sqrt(a^2 +
# b^2) is R on the diagonal.  Each path h(q) solves R(h) = R(corner) + i q and
# is returned as (h(q), D(q)), with h'(q) = i a / D(q) on the sec side and
# -i b / D(q) on the csc side; the corner sum divides its amplitude by D.


def corner_h11(q, a):
    """Corner theta = 0: ``a sec(h) = a + i q``."""
    return np.arccos(1.0 / (1.0 + 1j * q / a)), (a + 1j * q) * np.sqrt(2j * q * a - q**2)


def corner_h12(q, a, b):
    """Diagonal corner from below: ``a sec(h) = eta + i q``."""
    eta = math.hypot(a, b)
    return np.arccos(a / (eta + 1j * q)), (eta + 1j * q) * np.sqrt(b**2 - q**2 + 2j * q * eta)


def corner_h21(q, a, b):
    """Diagonal corner from above: ``b csc(h) = eta + i q``."""
    eta = math.hypot(a, b)
    return np.arcsin(b / (eta + 1j * q)), (eta + 1j * q) * np.sqrt(a**2 - q**2 + 2j * q * eta)


def corner_h22(q, b):
    """Corner theta = pi/2: ``b csc(h) = b + i q``."""
    return np.arcsin(1.0 / (1.0 + 1j * q / b)), (b + 1j * q) * np.sqrt(2j * q * b - q**2)
