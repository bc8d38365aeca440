r"""Steepest-descent paths for the radial direction of a polar integrand.

A :class:`RadialScene` packages an oscillatory integrand restricted to rays
through its special point: a per-direction complex-analytic amplitude
``f(z, angles)``, an oscillator ``g(z, angles)`` normalized to ``g(0) = 0``,
and the structural data the integrators need (dimension, frequency, the
vanishing order ``alpha`` of the oscillator at the origin, the amplitude
singularity order, the star-shaped boundary radius).

The descent path from the origin solves ``g(rho_0(p)) = i p``; the path from
a boundary point ``R`` solves ``g(rho_R(p)) = g(R) + i p``.  Along either,
``exp(i w g)`` decays like ``exp(-w p)``.  Paths are traced by Newton
continuation: smallest ``p`` first, seeded by the leading term of the series
expansion, then warm-started for each following ``p``.  Closed-form paths
used by the experiments are kept in a registry so they can be cross-checked
against the tracer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Direction",
    "RadialScene",
    "PathSample",
    "PathError",
    "newton_descent",
    "trace_origin_path",
    "trace_boundary_path",
    "closed_form_path",
    "register_path",
    "complex_derivative",
]

_NEWTON_MAXIT = 50
_DERIV_FLOOR = 1e-14


class PathError(RuntimeError):
    """Raised when a descent path cannot be traced."""


@dataclass(frozen=True)
class Direction:
    """A point on the (n-1)-sphere stored as its angle tuple.

    For n = 2 a single angle theta; for n = 3 the pair (phi1, phi2) with
    phi1 in [0, pi] and phi2 in [0, 2 pi].
    """

    angles: tuple

    def __init__(self, *angles):
        if len(angles) == 1 and isinstance(angles[0], (tuple, list)):
            angles = tuple(angles[0])
        object.__setattr__(self, "angles", tuple(float(a) for a in angles))

    @property
    def n(self) -> int:
        return len(self.angles) + 1

    @property
    def vector(self) -> np.ndarray:
        """Unit vector of the n-spherical angle map."""
        from .polar import spherical_map

        x, _ = spherical_map(1.0, self.angles)
        return x


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
    ``z``.

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
    phase_at_origin : constant exp(i w g(x0)) factored out by normalization.
    origin_path / boundary_path : optional closed forms
        (p, *angles) -> (rho, drho_dp) used by the integrators when present.
    analytic_radius : caller-declared radius of z-analyticity per direction.
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
    phase_at_origin: complex = 1.0 + 0.0j
    origin_path: Callable | None = None
    boundary_path: Callable | None = None
    analytic_radius: Callable | None = None
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

    def validate(self, directions: Sequence[Direction], h: float = 1e-4) -> None:
        """Check the scene's structural assumptions at sampled directions.

        Verifies g(0) = 0, the vanishing of the first alpha-1 radial
        derivatives (finite differences, tolerance 1e-6), positivity of the
        alpha-th, and radial monotonicity of the oscillator on a few sample
        radii inside the domain.
        """
        for th in directions:
            ang = th.angles
            g0 = complex(self.oscillator(0.0, *ang))
            if abs(g0) > 1e-14:
                raise ValueError(f"oscillator not normalized: g(0, {ang}) = {g0}")
            for l in range(1, self.alpha):
                d = _radial_derivative(self.oscillator, ang, l, h)
                if abs(d) > 1e-6:
                    raise ValueError(
                        f"radial derivative of order {l} does not vanish at 0 for {ang}: {d}"
                    )
            lead = _radial_derivative(self.oscillator, ang, self.alpha, h) / math.factorial(self.alpha)
            if not lead.real > 0 or abs(lead.imag) > 1e-8:
                raise ValueError(f"leading radial coefficient not positive at {ang}: {lead}")
            declared = self.alpha_coeff(*ang)
            if abs(lead.real - declared) > 1e-4 * max(1.0, abs(declared)):
                raise ValueError(
                    f"alpha_coeff({ang}) = {declared} disagrees with measured {lead.real}"
                )
            rmax = 1.0
            if self.boundary_radius is not None:
                rmax = float(self.boundary_radius(*ang))
            for r in np.linspace(0.05, min(rmax, 10.0) * 0.95, 7):
                dg = complex(self.d_oscillator(r, *ang))
                if not dg.real > 0:
                    raise ValueError(f"oscillator not radially increasing at r={r}, {ang}")


@dataclass(frozen=True)
class PathSample:
    """One traced point of a steepest-descent path.

    ``jac`` is the polar Jacobian factor d(rho^n)/dp = n rho^(n-1) drho_dp.
    """

    p: float
    rho: complex
    drho_dp: complex
    jac: complex
    residual: float


def _radial_derivative(g, angles, order, h):
    # Central finite-difference radial derivative at 0+ using a one-sided
    # sample set (the scene may be undefined for r < 0 only in spirit; the
    # callables are analytic, so symmetric stencils are fine).
    if order == 1:
        vals = (complex(g(h, *angles)) - complex(g(-h, *angles))) / (2 * h)
        return vals
    if order == 2:
        return (complex(g(h, *angles)) - 2 * complex(g(0.0, *angles)) + complex(g(-h, *angles))) / h**2
    # higher orders via repeated first differences of the next-lower order
    f = lambda r: _radial_derivative_at(g, angles, order - 1, h, r)
    return (f(h) - f(-h)) / (2 * h)


def _radial_derivative_at(g, angles, order, h, r0):
    if order == 1:
        return (complex(g(r0 + h, *angles)) - complex(g(r0 - h, *angles))) / (2 * h)
    if order == 2:
        return (
            complex(g(r0 + h, *angles)) - 2 * complex(g(r0, *angles)) + complex(g(r0 - h, *angles))
        ) / h**2
    f = lambda r: _radial_derivative_at(g, angles, order - 1, h, r)
    return (f(r0 + h) - f(r0 - h)) / (2 * h)


def complex_derivative(f, z, h: float = 1e-5):
    """Fourth-order central difference df/dz for analytic ``f``; fallback when
    a scene has no closed-form derivative.  ``z`` may be a scalar or an array
    (elementwise steps)."""
    if np.ndim(z):
        step = h * np.maximum(1.0, np.abs(z))
    else:
        step = h * max(1.0, abs(z))
    return (
        -f(z + 2 * step) + 8 * f(z + step) - 8 * f(z - step) + f(z - 2 * step)
    ) / (12 * step)


def newton_descent(g, dg, target, z0, *, context: str = ""):
    """Solve ``g(z) = target`` by Newton from ``z0``.

    Works elementwise on numpy arrays.  Raises PathError on non-convergence
    after 50 iterations or when the derivative collapses (degenerate path).
    """
    z = np.asarray(z0, dtype=complex)
    target = np.asarray(target, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).copy()
    tgt = np.atleast_1d(target).astype(complex)
    if tgt.shape != z.shape:
        tgt = np.broadcast_to(tgt, z.shape).copy()
    scale = np.maximum(1.0, np.abs(tgt))
    for _ in range(_NEWTON_MAXIT):
        gz = np.atleast_1d(np.asarray(g(z), dtype=complex))
        res = gz - tgt
        if np.all(np.abs(res) <= 1e-14 * scale):
            break
        dgz = np.atleast_1d(np.asarray(dg(z), dtype=complex))
        small = np.abs(dgz) < _DERIV_FLOOR
        if np.any(small):
            raise PathError(f"degenerate path: |dg/dz| < {_DERIV_FLOOR} {context}")
        z = z - res / dgz
    else:
        res = np.abs(np.atleast_1d(np.asarray(g(z), dtype=complex)) - tgt)
        bad = res > 1e-12 * scale
        if np.any(bad):
            raise PathError(
                f"Newton did not converge after {_NEWTON_MAXIT} iterations "
                f"(worst residual {res.max():.3e}) {context}"
            )
    return complex(z[0]) if scalar else z


def _series_seed(p, alpha, coeff, side=+1):
    # Leading term of the expansion rho ~ (i p / coeff)^(1/alpha); the branch
    # with argument in (0, pi/alpha) for side=+1, its mirror for side=-1.
    c = 1j * p / coeff
    root = np.power(np.asarray(c, dtype=complex), 1.0 / alpha)
    if alpha > 1 and side < 0:
        # rotate to the root heading in the negative real direction
        root = root * np.exp(2j * np.pi * (alpha - 1) / alpha)
    return root


def _trace(scene, angles, p_list, base_z, base_g, seed_fn, context):
    g = lambda z: scene.oscillator(z, *angles)
    dg = lambda z: scene.d_oscillator(z, *angles)
    samples = []
    z = None
    for p in p_list:
        if p <= 0:
            raise ValueError(f"descent parameters must be positive, got p={p}")
        target = base_g + 1j * p
        guess = seed_fn(p) if z is None else z
        try:
            z = newton_descent(g, dg, target, guess, context=f"{context} p={p}")
        except PathError:
            if z is None:
                # retry the first point with a short continuation ramp
                zz = None
                for q in np.geomspace(p / 64.0, p, 8):
                    zz = newton_descent(
                        g, dg, base_g + 1j * q, seed_fn(q) if zz is None else zz,
                        context=f"{context} p={q}",
                    )
                z = zz
            else:
                raise
        dgz = complex(dg(z))
        if abs(dgz) < _DERIV_FLOOR:
            raise PathError(f"degenerate path at p={p} {context}")
        drho = 1j / dgz
        jac = scene.n * z ** (scene.n - 1) * drho
        residual = abs(complex(g(z)) - target)
        samples.append(PathSample(float(p), complex(z), drho, complex(jac), float(residual)))
    return samples


def trace_origin_path(scene: RadialScene, direction: Direction, p_list) -> list[PathSample]:
    """Trace ``g(rho_0(p)) = i p`` at ascending descent parameters ``p_list``."""
    angles = direction.angles if isinstance(direction, Direction) else tuple(direction)
    coeff = float(scene.alpha_coeff(*angles))
    if not coeff > _DERIV_FLOOR:
        raise PathError(f"degenerate direction {angles}: leading coefficient {coeff}")
    seed = lambda p: _series_seed(p, scene.alpha, coeff)
    return _trace(scene, angles, p_list, 0.0, 0.0 + 0.0j, seed, f"origin path {angles}")


def trace_boundary_path(scene: RadialScene, direction: Direction, p_list) -> list[PathSample]:
    """Trace ``g(rho_R(p)) = g(R) + i p`` from the boundary point of a direction."""
    angles = direction.angles if isinstance(direction, Direction) else tuple(direction)
    if scene.boundary_radius is None:
        raise ValueError("scene has no boundary radius; boundary paths undefined")
    R = float(scene.boundary_radius(*angles))
    if not (R > 0 and math.isfinite(R)):
        raise ValueError(f"boundary radius must be finite and positive, got {R}")
    gR = complex(scene.oscillator(R, *angles))
    dgR = complex(scene.d_oscillator(R, *angles))
    seed = lambda p: R + 1j * p / dgR
    return _trace(scene, angles, p_list, R, gR, seed, f"boundary path {angles}")


# --- closed-form path registry -------------------------------------------

_path_registry: dict = {}


def register_path(key: str, factory: Callable) -> None:
    """Register a closed-form path factory under ``key``."""
    _path_registry[key] = factory


def closed_form_path(key: str, **params) -> Callable:
    """Return the registered closed-form path ``p -> (rho, drho_dp)``.

    Raises KeyError for unknown keys.  Every registered form is covered by a
    test cross-checking it against the Newton tracer.
    """
    try:
        factory = _path_registry[key]
    except KeyError:
        raise KeyError(
            f"unknown closed-form path {key!r}; registered: {sorted(_path_registry)}"
        ) from None
    return factory(**params)


def _linear_radial(slope: float):
    s = float(slope)

    def path(p):
        p = np.asarray(p, dtype=float)
        return 1j * p / s, np.broadcast_to(1j / s, p.shape).copy() if p.ndim else 1j / s

    return path


def _linear_boundary(base: float, slope: float = 1.0):
    R, s = float(base), float(slope)

    def path(p):
        p = np.asarray(p, dtype=float)
        return R + 1j * p / s, np.broadcast_to(1j / s, p.shape).copy() if p.ndim else 1j / s

    return path


def _duct_h11(a: float):
    def path(q):
        u = 1.0 + 1j * q / a
        rho = np.arccos(1.0 / u) if isinstance(q, np.ndarray) else cmath.acos(1.0 / u)
        drho = 1j * a / ((a + 1j * q) * np.sqrt(2j * q * a - q * q))
        return rho, drho

    return path


def _duct_h12(a: float, b: float):
    eta = math.hypot(a, b)

    def path(q):
        u = (eta + 1j * q) / a
        rho = np.arccos(1.0 / u) if isinstance(q, np.ndarray) else cmath.acos(1.0 / u)
        drho = 1j * a / ((eta + 1j * q) * np.sqrt(b * b - q * q + 2j * q * eta))
        return rho, drho

    return path


def _duct_h21(a: float, b: float):
    eta = math.hypot(a, b)

    def path(q):
        u = (eta + 1j * q) / b
        rho = np.arcsin(1.0 / u) if isinstance(q, np.ndarray) else cmath.asin(1.0 / u)
        drho = -1j * b / ((eta + 1j * q) * np.sqrt(a * a - q * q + 2j * q * eta))
        return rho, drho

    return path


def _duct_h22(b: float):
    def path(q):
        u = 1.0 + 1j * q / b
        rho = np.arcsin(1.0 / u) if isinstance(q, np.ndarray) else cmath.asin(1.0 / u)
        drho = -1j * b / ((b + 1j * q) * np.sqrt(2j * q * b - q * q))
        return rho, drho

    return path


register_path("linear-radial", _linear_radial)
register_path("linear-boundary", _linear_boundary)
register_path("duct-corner-h11", _duct_h11)
register_path("duct-corner-h12", _duct_h12)
register_path("duct-corner-h21", _duct_h21)
register_path("duct-corner-h22", _duct_h22)
