r"""Registered integrand scenes used by the experiments and cross-checks.

Each builder returns a :class:`~nsdq.paths.RadialScene` written directly in
polar form, with analytic oscillator derivatives and, where one exists, the
closed-form descent path.  The test suite also traces every registered scene
with the integrators' Newton tracer and checks the residuals.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .paths import PathError, RadialScene
from .polar import AngularRegion

__all__ = [
    "quarter_plane_scene",
    "disk_scene",
    "quarter_disk_scene",
    "ellipse_scene",
    "duct_scene",
    "ellipsoid_scene",
    "sphere_scatter_scene",
    "scene_registry",
    "default_region",
]

def _ones(z):
    return np.ones_like(np.asarray(z, dtype=complex))


def _linear_path(p, th):
    # descent path of the phase g = r, broadcast against the angles
    shape = 1.0 + 0.0 * np.asarray(th, dtype=complex)
    return 1j * p * shape, 1j * shape


def _unit_radial_scene(omega, boundary_radius, name, d_boundary_phase=None):
    # unit amplitude and phase r; unbounded when boundary_radius is None
    return RadialScene(
        n=2,
        omega=omega,
        amplitude=lambda z, th: _ones(z),
        oscillator=lambda z, th: z,
        d_oscillator=lambda z, th: _ones(z),
        alpha=1,
        alpha_coeff=lambda th: 1.0,
        singularity_order=0.0,
        boundary_radius=boundary_radius,
        d_boundary_phase=d_boundary_phase,
        origin_path=_linear_path,
        boundary_path=None if boundary_radius is None else (
            lambda p, th: (boundary_radius(th) + 1j * p + 0j * np.asarray(th, complex),
                           1j + 0j * np.asarray(th, complex))),
        name=name,
    )


def quarter_plane_scene(omega: float) -> RadialScene:
    """Unit amplitude, phase r, over the first quadrant (unbounded)."""
    return _unit_radial_scene(omega, None, "quarter-plane")


def disk_scene(omega: float) -> RadialScene:
    """Unit amplitude, phase r, on the unit disk."""
    return _unit_radial_scene(omega, lambda th: 1.0 + 0.0 * np.asarray(th, float), "disk")


def quarter_disk_scene(omega: float) -> RadialScene:
    """The unit disk's scene under the name of its first-quadrant region."""
    scene = disk_scene(omega)
    scene.name = "quarter-disk"
    return scene


def _ellipse_radius(th):
    return 1.0 / np.sqrt(1.0 + np.sin(th) ** 2)


def _ellipse_d_radius(th):
    s = np.sin(th)
    return -s * np.cos(th) * (1.0 + s**2) ** -1.5


def ellipse_scene(omega: float) -> RadialScene:
    """Unit amplitude, phase r, on the star-shaped ellipse x^2 + 2 y^2 <= 1.

    The boundary radius R(theta) = 1/sqrt(1 + sin^2 theta) is analytic in
    the angle, so the oscillatory boundary term can be deformed in theta.
    With g = z the boundary phase is R itself, and its derivative
    R'(theta) = -sin theta cos theta (1 + sin^2 theta)^(-3/2) is given in
    closed form, by one function for every omega (``polar`` keeps its scan).
    """
    return _unit_radial_scene(omega, _ellipse_radius, "ellipse", _ellipse_d_radius)


def duct_scene(omega: float, a: float = 1.0, b: float = 2.0) -> RadialScene:
    r"""Rectangle ``[0,a] x [0,b]`` with the singular acoustic kernel.

    Point amplitude ``y cos(x)/sqrt(x^2+y^2)``, phase ``sqrt(x^2+y^2)``.  On
    the ray through angle theta the kernel's 1/r cancels against the zero of
    y, leaving ``sin(theta) cos(z cos(theta))``.  It is the disk's phase-r
    scene, closed-form paths included, with this amplitude.  The boundary
    radius and its derivative (the boundary phase's dG/dtheta) are defined
    on real angles only: the oscillatory boundary term goes through the
    corner decomposition of ``experiments.run_duct``.
    """
    beta = math.atan2(b, a)

    def boundary_radius(th):
        if np.iscomplexobj(th):
            raise PathError(
                "duct boundary radius a sec(theta) | b csc(theta) is not analytic across "
                f"theta = atan(b/a) = {beta:.6g}, so its boundary term cannot be deformed in the "
                "angle; use the corner decomposition of run_duct (mode 'corner')")
        th = np.asarray(th, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(th <= beta, a / np.cos(th), b / np.sin(th))

    def d_boundary_radius(th):
        # R' = R tan(theta) below beta and -R cot(theta) above it
        with np.errstate(divide="ignore", invalid="ignore"):
            return boundary_radius(th) * np.where(th <= beta, np.tan(th), -1.0 / np.tan(th))

    return dataclasses.replace(_unit_radial_scene(omega, boundary_radius, "duct", d_boundary_radius),
                               amplitude=lambda z, th: np.sin(th) * np.cos(z * np.cos(th)),
                               singularity_order=1.0)


def _value_key(*args):
    # the exact values of the arguments: dtype, shape and bytes of a copy.
    # Unlike ==, it tells 1+0j from 1-0j (their sphere amplitudes differ in
    # the sign of a zero) and a float from a complex array, and an array
    # the caller mutates in place no longer matches
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, args))


def _ellipsoid_slope(phi1, phi2):
    return np.sqrt(np.cos(phi1) ** 2 + 0.5 * (5.0 + np.cos(2.0 * phi2)) * np.sin(phi1) ** 2)


_last_slope = [None]  # (key, s, 1/s) of the last distinct (phi1, phi2); replaced, never changed


def _slope(phi1, phi2):
    key = _value_key(phi1, phi2)
    entry = _last_slope[0]
    if entry is None or entry[0] != key:
        s = _ellipsoid_slope(phi1, phi2)
        if isinstance(s, np.ndarray):
            s.setflags(write=False)
        _last_slope[0] = entry = key, s, 1.0 / s
    return entry


def ellipsoid_scene(omega: float) -> RadialScene:
    r"""Full-space integrand with phase ``sqrt(x^2 + 2y^2 + 3z^2)``.

    In spherical coordinates the phase is ``r s(phi1, phi2)`` with
    ``s = sqrt(cos^2 phi1 + (5 + cos 2 phi2)/2 sin^2 phi1)`` and the
    amplitude ``1/((r s)^2 (1 + r s))`` carries a second-order kernel
    singularity.  The descent path is the closed form ``i p / s``, formed
    as ``i (p (1/s))``: numpy's ``1j * p / s`` bit for bit on an array p,
    less its complex division (CPython divides a Python-scalar p at scalar
    angles, which can differ by an ulp).  The scenes of every omega share
    s and 1/s of the last distinct angle pair, cached read-only on a copy
    of the argument values (as the sphere scene caches its kernel terms).
    """

    def amplitude(z, phi1, phi2):
        # 1/(zs zs (1 + zs)) in that order, in place on arrays: zs is a new array
        zs = z * _slope(phi1, phi2)[1]
        den = zs * zs
        zs += 1.0
        den *= zs
        return np.divide(1.0, den, out=den) if isinstance(den, np.ndarray) else 1.0 / den

    def origin_path(p, phi1, phi2):
        inv = _slope(phi1, phi2)[2]
        return 1j * (p * inv), 1j * inv

    return RadialScene(
        n=3,
        omega=omega,
        amplitude=amplitude,
        oscillator=lambda z, phi1, phi2: z * _slope(phi1, phi2)[1],
        d_oscillator=lambda z, phi1, phi2: _slope(phi1, phi2)[1] + 0.0 * z,
        alpha=1,
        alpha_coeff=lambda phi1, phi2: _slope(phi1, phi2)[1],
        singularity_order=2.0,
        origin_path=origin_path,
        name="ellipsoid",
    )


def _sin_cos(w):
    # sin w and cos w of a complex array from one set of real sin, cos, sinh
    # and cosh calls: sin(x + iy) = sin x cosh y + i cos x sinh y and
    # cos(x + iy) = cos x cosh y - i sin x sinh y
    w = np.asarray(w, dtype=complex)
    x, y = w.real, w.imag
    sx, cx, sh, ch = np.sin(x), np.cos(x), np.sinh(y), np.cosh(y)
    sin, cos = np.empty_like(w), np.empty_like(w)
    sin.real, sin.imag = sx * ch, cx * sh
    cos.real, cos.imag = cx * ch, -(sx * sh)
    return sin, cos


def _sphere_offset(z, c, s):
    # the surface point less the singular one, r = (1 - cos u cos v,
    # -cos u sin v, -sin u), its z-derivative t and cos u, from the sines
    # and cosines of the half-angle offsets a = z A and b = z B (u = b - a,
    # v = a + b); 1 - cos u cos v = sin^2 a + sin^2 b has no cancellation
    A, B = 0.5 * (c + s), 0.5 * (s - c)
    (sa, ca), (sb, cb) = _sin_cos(z * A), _sin_cos(z * B)
    cu, su = ca * cb + sa * sb, sb * ca - cb * sa
    cv, sv = ca * cb - sa * sb, sa * cb + ca * sb
    r = sa * sa + sb * sb, -cu * sv, -su
    t = 2.0 * (A * sa * ca + B * sb * cb), -(c * su * sv + s * cu * cv), c * cu
    return r, t, cu


def sphere_scatter_scene(k: float, psi: float) -> RadialScene:
    r"""Kernel of the phase-extracted sphere-scattering integral equation.

    The surface integral over the unit sphere, written in the parameter
    plane ``(phi1, phi2)``, with the observation point at the kernel's
    singular point and incident direction ``d = [-cos psi, 0, sin psi]``.
    Polar coordinates are centred at the singular point, with the first
    local axis oriented so that

        dg/dr|_0+ = 1 + [-d3, d2] . Theta.

    The leading coefficient ``1 - sin(psi) cos(theta)`` is at least
    ``1 - sin(psi) > 0`` for every psi in [0, pi/2).  Near pi/2 it is small
    around theta = 0, so the series seed of the first path point lies far
    from its root and Newton from it can land on another root; the tracer's
    branch check sees that, and the continuation starts lower in p and
    continues up (``test_first_point_ramp`` checks the branch at psi = 1.3
    and 1.5 against a fine continuation).
    psi = pi/2 puts the observation point on the shadow boundary and the
    scene degenerates.

    The kernel is written on the half-angle offsets a = z(c + s)/2 and
    b = z(s - c)/2, with c = cos(theta) and s = sin(theta), so that the
    local parameter-plane offsets are u = b - a and v = a + b.  The sines
    and cosines of a and b (from real sin, cos, sinh and cosh calls) give
    every term.  The surface point less the singular one is
    r = (1 - cos u cos v, -cos u sin v, -sin u), with
    1 - cos u cos v = sin^2 a + sin^2 b, which has no cancellation; the
    distance is |r| = sqrt(2 (sin^2 a + sin^2 b)) on the branch of
    z sqrt(C), C(0) = 1.  g = |r| - d.r takes the form
    |r x d|^2 / (|r| + d.r) where d.r leans along |r|, and
    g' = ((r x d).(t x d) - g d.t)/|r| with t = dr/dz, so neither cancels
    where 1 - sin(psi) cos(theta) is small: both keep a round-off of a few
    eps relative, at every |z| and psi.  The amplitude, the oscillator and
    its derivative share these terms of one ``(z, theta)``: the last
    distinct argument pair and its terms sit in a one-slot cache, keyed on
    a copy of the argument values, so a Newton step's g and g' and the
    path derivative i/g' on a converged root cost one kernel evaluation.
    The terms of d2 = 0 are left out.

    With d2 = 0 the kernel is even in theta: theta -> -theta swaps c + s
    and c - s, so it maps (a, b) to (-b, -a), which leaves u, r1, r3, t1
    and t3 alone and flips v, r2 and t2.  g, g' and the amplitude read r2
    and t2 only as r2^2 and r2 t2, so they are even, and
    ``run_sphere_scatter`` traces half the directions of its trapezoid.
    """
    if not 0 <= psi < math.pi / 2:
        raise ValueError(
            f"sphere scattering scene needs 0 <= psi < pi/2 (shadow boundary at pi/2), got {psi}"
        )
    d1, d3 = -math.cos(psi), math.sin(psi)
    last = [None]  # (key, terms) of the last distinct (z, theta)

    def _terms(z, th):
        # every miss computes every term.  An entry of the slot is replaced,
        # never changed, so a thread that reads it sees a key and the terms
        # of that key
        key = _value_key(z, th)
        entry = last[0]
        if entry is None or entry[0] != key:
            last[0] = entry = None  # drop the old terms first: one set is held at a time
            (r1, r2, r3), (t1, t2, t3), cu = _sphere_offset(z, np.cos(th), np.sin(th))
            # |r| = z sqrt(|r|^2 / z^2) on the principal branch: Re(|r| conj z) >= 0
            dist = np.sqrt(2.0 * r1)
            dist *= np.copysign(1.0, dist.real * z.real + dist.imag * z.imag)
            dr, Y = d1 * r1 + d3 * r3, d1 * r3 - d3 * r1  # d.r and (r x d)_2
            along = dr.real * dist.real + dr.imag * dist.imag > 0
            g = np.where(along, (r2 * r2 + Y * Y) / np.where(along, dist + dr, 1.0), dist - dr)
            dg = ((-d3 * Y - d1 * g) * t1 + r2 * t2 + (d1 * Y - d3 * g) * t3) / dist
            entry = key, {"g": g, "dg": dg, "cu": cu, "dist": dist}
            last[0] = entry
        return entry[1]

    def oscillator(z, th):
        return _terms(z, th)["g"]

    def d_oscillator(z, th):
        return _terms(z, th)["dg"]

    def amplitude(z, th):
        t = _terms(z, th)
        return t["cu"] / (4.0 * math.pi * t["dist"])

    return RadialScene(
        n=2,
        omega=k,
        amplitude=amplitude,
        oscillator=oscillator,
        d_oscillator=d_oscillator,
        alpha=1,
        alpha_coeff=lambda th: 1.0 - d3 * np.cos(th),
        singularity_order=1.0,
        name="sphere-scatter",
    )


_QUARTER, _PLANE, _SPACE = (AngularRegion.box(2, (0.0, 0.5 * math.pi)), AngularRegion.full(2),
                            AngularRegion.full(3))


def _table() -> dict:
    # name -> (builder, region), built on each call so that a builder
    # replaced after import (perfbench/layertrace.py wraps them) is the one
    # returned; the regions are built once, at import
    return {
        "quarter-plane": (quarter_plane_scene, _QUARTER),
        "disk": (disk_scene, _PLANE),
        "quarter-disk": (quarter_disk_scene, _QUARTER),
        "ellipse": (ellipse_scene, _PLANE),
        "duct": (duct_scene, _QUARTER),
        "ellipsoid": (ellipsoid_scene, _SPACE),
        "sphere-scatter": (lambda omega: sphere_scatter_scene(omega, math.pi / 5), _PLANE),
    }


def scene_registry() -> dict:
    """Builders of every registered scene, keyed by name."""
    return {name: build for name, (build, _) in _table().items()}


def default_region(name: str) -> AngularRegion:
    """The angular region each registered scene is integrated over."""
    return _table()[name][1]
