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
one tracer (``univariate._trace``) runs on every node row of whole
direction grids, and of the endpoints of the boundary term, at once.  The
leading Taylor coefficient that seeds a path of order ``alpha >= 2`` comes
from ``_taylor_coefficient``, the package's one difference stencil.

The module also holds ``edge_path``, the closed-form angle path of any straight
edge, which the rectangle's corner decomposition reads on its two edges.
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
    "edge_path",
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
    direction grid as one ``(m,) + angle shape`` array).  Angle arrays are
    the shared, read-only arrays of the outer grid.  Each element of
    the result may depend only on the matching elements of ``z`` and the
    angles.  Closed-form paths follow the same rule with ``p`` in place of
    ``z``.  Every callable is a pure function of its argument values: a
    result may not depend on earlier calls, on which array object holds
    the values, or on whether the caller mutated an array after an earlier
    call.  A scene may share work, between its callables or with scenes of
    other omega, only within that rule, as the sphere and ellipsoid do.

    Attributes
    ----------
    n : dimension of the ambient space (>= 2).
    omega : oscillation frequency (> 0).
    amplitude : f(z, *angles), the full amplitude at the point z*Theta,
        singular kernels and any constant phase factor included
        (``polar.normalize_scene`` puts exp(i w g(x0)) there).
    oscillator : g(z, *angles), normalized so g(0, .) == 0.
    d_oscillator : dg/dz(z, *angles).
    alpha : radial vanishing order of the oscillator at the origin.
    alpha_coeff : leading radial Taylor coefficient of the oscillator,
        (d^alpha g / dr^alpha)(0+) / alpha!, as a callable of the angles.
    singularity_order : nu with amplitude = O(r^-nu) at the origin; nu < n.
    boundary_radius : R(*angles) for star-shaped domains, None if unbounded.
    d_boundary_phase : dG/dtheta(theta) of the boundary phase
        G(theta) = g(R(theta), theta), analytic in a complex theta; n = 2
        only.  Required where G varies: the boundary term's stationary-point
        scan and its univariate descent (Newton steps, path derivatives)
        read it, and ``integrate_star_shaped`` raises ValueError without it.
        G and dG/dtheta must be real on real angles: ``integrate_star_shaped``
        checks both once on its outer grid before the descent in the angle.
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


def newton_descent(g, dg, target, z0, *, context: str = ""):
    """Solve ``g(z) = target`` by Newton from ``z0``, reporting each element.

    Works elementwise on numpy arrays; a scalar start returns a 0-d value,
    element 0 of the same solve from a one-element array.  Every element is
    stepped until all residuals are below 1e-14 max(1, |target|), and then
    once more: a chord step with the last g', which costs no evaluation, or
    a Newton step when the start already passed.  So a root is good to full
    precision, not just to the residual test.

    Returns ``(z, error)``.  ``error`` is None when every element converged;
    otherwise it is the PathError the caller raises, with the mask of the
    failing elements in ``failed``: those whose derivative collapses or is
    NaN (degenerate path) or that have not converged after 50 iterations.
    A non-finite residual never converges, so its element is given up at
    once.  Failing elements never stop the others, and numpy's floating
    point warnings are silenced: every non-finite value ends as a failure.
    """
    z = np.asarray(z0, dtype=complex)
    tgt = np.asarray(target, dtype=complex)
    scale = np.maximum(1.0, np.abs(tgt))
    dead = degenerate = False  # elements given up, and those of them with a bad g'
    dgz = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(_NEWTON_MAXIT + 1):
            res = np.asarray(g(z), dtype=complex) - tgt
            dead = dead | ~np.isfinite(res)
            # after the last iteration an element passes at 1e-12
            done = np.abs(res) <= (1e-14 if it < _NEWTON_MAXIT else 1e-12) * scale
            last = it == _NEWTON_MAXIT or np.all(done | dead)
            if not last or dgz is None:
                dgz = np.asarray(dg(z), dtype=complex)
                # negated comparisons: NaN fails every comparison and must count as a failure
                degenerate = degenerate | (~dead & ~(np.abs(dgz) >= _DERIV_FLOOR))
                dead = dead | degenerate
            z = z - res / dgz
            if last:
                break
    failed = np.broadcast_to(dead | ~done, np.shape(z))
    if not np.any(failed):
        return z, None
    if np.any(degenerate):
        message = f"degenerate path: |dg/dz| < {_DERIV_FLOOR} or NaN {context}"
    else:
        message = (f"Newton did not converge after {_NEWTON_MAXIT} iterations "
                   f"(worst residual {np.max(np.abs(res)):.3e}) {context}")
    return z, PathError(message, failed)


# --- the angle path of a straight edge ---------------------------------------


def edge_path(q, d, phi, start, sign):
    """Angle path of the edge ``R(theta) = d / cos(theta - phi)`` from the point where R = start.

    h(q) solves R(h) = start + i q: with w = start + i q, ``h = phi + sign
    arccos(d / w)``, sign = +1 on an edge whose angles lie above its foot
    phi and -1 below.  Returns ``(h, D)``, ``D = w sqrt((start^2 - d^2) -
    q^2 + 2 i q start)``, so that ``h' = sign i d / D``; at the foot
    (start = d, a stationary point of R) D vanishes like sqrt(q).
    """
    w = start + 1j * q
    return phi + sign * np.arccos(d / w), w * np.sqrt((start**2 - d**2) - q**2 + 2j * q * start)
