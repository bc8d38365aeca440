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


def disk_scene(omega: float, radius: float = 1.0) -> RadialScene:
    """Unit amplitude, phase r, on a disk of the given radius."""
    R = float(radius)
    return _unit_radial_scene(omega, lambda th: R + 0.0 * np.asarray(th, float), "disk")


def quarter_disk_scene(omega: float, radius: float = 1.0) -> RadialScene:
    scene = disk_scene(omega, radius)
    scene.name = "quarter-disk"
    return scene


def ellipse_scene(omega: float) -> RadialScene:
    """Unit amplitude, phase r, on the star-shaped ellipse x^2 + 2 y^2 <= 1.

    The boundary radius R(theta) = 1/sqrt(1 + sin^2 theta) is analytic in
    the angle, so the oscillatory boundary term can be deformed in theta.
    With g = z the boundary phase is R itself, and its derivative
    R'(theta) = -sin theta cos theta (1 + sin^2 theta)^(-3/2) is given in
    closed form.
    """

    def R(th):
        return 1.0 / np.sqrt(1.0 + np.sin(th) ** 2)

    def dR(th):
        s = np.sin(th)
        return -s * np.cos(th) * (1.0 + s**2) ** -1.5

    return _unit_radial_scene(omega, R, "ellipse", dR)


def duct_scene(omega: float, a: float = 1.0, b: float = 2.0) -> RadialScene:
    r"""Rectangle ``[0,a] x [0,b]`` with the singular acoustic kernel.

    Point amplitude ``y cos(x)/sqrt(x^2+y^2)``, phase ``sqrt(x^2+y^2)``.  On
    the ray through angle theta the kernel's 1/r cancels against the zero of
    y, leaving ``sin(theta) cos(z cos(theta))``.  It is the disk's phase-r
    scene, closed-form paths included, with this amplitude.  The boundary
    radius is defined on real angles only: the oscillatory boundary term
    goes through the corner decomposition of ``experiments.run_duct``.
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

    return dataclasses.replace(_unit_radial_scene(omega, boundary_radius, "duct"),
                               amplitude=lambda z, th: np.sin(th) * np.cos(z * np.cos(th)),
                               singularity_order=1.0)


def _ellipsoid_slope(phi1, phi2):
    return np.sqrt(np.cos(phi1) ** 2 + 0.5 * (5.0 + np.cos(2.0 * phi2)) * np.sin(phi1) ** 2)


def ellipsoid_scene(omega: float) -> RadialScene:
    r"""Full-space integrand with phase ``sqrt(x^2 + 2y^2 + 3z^2)``.

    In spherical coordinates the phase is ``r s(phi1, phi2)`` with
    ``s = sqrt(cos^2 phi1 + (5 + cos 2 phi2)/2 sin^2 phi1)`` and the
    amplitude ``1/((r s)^2 (1 + r s))`` carries a second-order kernel
    singularity.  The descent path is the closed form ``i p / s``.
    """

    def amplitude(z, phi1, phi2):
        zs = z * _ellipsoid_slope(phi1, phi2)
        return 1.0 / (zs * zs * (1.0 + zs))

    def origin_path(p, phi1, phi2):
        s = _ellipsoid_slope(phi1, phi2)
        return 1j * p / s, 1j / s

    return RadialScene(
        n=3,
        omega=omega,
        amplitude=amplitude,
        oscillator=lambda z, phi1, phi2: z * _ellipsoid_slope(phi1, phi2),
        d_oscillator=lambda z, phi1, phi2: _ellipsoid_slope(phi1, phi2) + 0.0 * z,
        alpha=1,
        alpha_coeff=_ellipsoid_slope,
        singularity_order=2.0,
        origin_path=origin_path,
        name="ellipsoid",
    )


def _csinc(w):
    # sin(w)/w, safe at w = 0, complex-capable; the series only where |w| is small
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    if not small.any():
        return np.sin(w) / w
    out = np.empty_like(w)
    big = ~small
    out[big] = np.sin(w[big]) / w[big]
    ws = w[small]
    out[small] = 1.0 - ws * ws / 6.0 + ws**4 / 120.0
    return out


def _value_key(*args):
    # the exact values of the arguments: dtype, shape and bytes of a copy.
    # Unlike ==, it tells 1+0j from 1-0j (their sphere amplitudes differ in
    # the sign of a zero) and a float from a complex array, and an array
    # the caller mutates in place no longer matches
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, args))


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
    from its root and Newton from it can land on another root; the tracer
    then starts lower in p and continues up (``test_first_point_ramp``
    checks the branch at psi = 1.3 and 1.5 against a fine continuation).
    psi = pi/2 puts the observation point on the shadow boundary and the
    scene degenerates.

    The amplitude, the oscillator and its derivative share the kernel
    terms of one ``(z, theta)``: cos(theta), sin(theta), both ``_csinc``
    terms, the square-root distance and the sines and cosines of the local
    offsets u, v.  The last distinct argument pair and its terms sit in a
    one-slot cache, keyed on a copy of the argument values, so a Newton
    step's g and g' and the path derivative i/g' on a converged root cost
    one kernel evaluation.  The amplitude needs only cos u and the distance
    and computes nothing more when it misses.  The terms of d2 = 0 are left
    out.
    """
    if not 0 <= psi < math.pi / 2:
        raise ValueError(
            f"sphere scattering scene needs 0 <= psi < pi/2 (shadow boundary at pi/2), got {psi}"
        )
    d1, d3 = -math.cos(psi), math.sin(psi)
    last = [None]  # (key, terms) of the last distinct (z, theta)

    def _terms(z, th, newton):
        # local parameter-plane offsets phi1 = pi/2 + u, phi2 = pi + v, then
        # sqrt(2 - 2 cos u cos v) continued analytically through the origin:
        # 2 - 2 cos u cos v = 2 sin^2(z(c+s)/2) + 2 sin^2(z(s-c)/2) = z^2 C(z)
        # with C(0) = 1; take z sqrt(C) on the principal branch of C.  The
        # terms only g and g' read are added when one of them first asks.
        # An entry of the slot is replaced, never changed, so a thread that
        # reads it sees a key and the terms of that key
        key = _value_key(z, th)
        entry = last[0]
        if entry is None or entry[0] != key:
            c, s = np.cos(th), np.sin(th)
            A, B = 0.5 * (c + s), 0.5 * (s - c)
            C = 2.0 * (A**2 * _csinc(z * A) ** 2 + B**2 * _csinc(z * B) ** 2)
            u = -z * c
            entry = key, {"c": c, "s": s, "u": u, "dist": z * np.sqrt(C), "cu": np.cos(u)}
            last[0] = entry
        t = entry[1]
        if newton and "sv" not in t:
            v = z * t["s"]
            t = {**t, "su": np.sin(t["u"]), "sv": np.sin(v), "cv": np.cos(v)}
            last[0] = key, t
        return t

    def oscillator(z, th):
        t = _terms(z, th, True)
        return t["dist"] + d1 * (t["cu"] * t["cv"] - 1.0) + d3 * t["su"]

    def d_oscillator(z, th):
        t = _terms(z, th, True)
        c, s, su, cu, sv, cv = (t[name] for name in ("c", "s", "su", "cu", "sv", "cv"))
        dE = -2.0 * c * su * cv + 2.0 * s * cu * sv
        return dE / (2.0 * t["dist"]) + d1 * (c * su * cv - s * cu * sv) - d3 * c * cu

    def amplitude(z, th):
        t = _terms(z, th, False)
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


def _table() -> dict:
    # name -> (builder, region), built on each call so that a builder
    # replaced after import (perfbench/layertrace.py wraps them) is the one
    # returned
    return {
        "quarter-plane": (quarter_plane_scene, AngularRegion.box(2, (0.0, 0.5 * math.pi))),
        "disk": (disk_scene, AngularRegion.full(2)),
        "quarter-disk": (quarter_disk_scene, AngularRegion.box(2, (0.0, 0.5 * math.pi))),
        "ellipse": (ellipse_scene, AngularRegion.full(2)),
        "duct": (duct_scene, AngularRegion.box(2, (0.0, 0.5 * math.pi))),
        "ellipsoid": (ellipsoid_scene, AngularRegion.full(3)),
        "sphere-scatter": (lambda omega: sphere_scatter_scene(omega, math.pi / 5), AngularRegion.full(2)),
    }


def scene_registry() -> dict:
    """Builders of every registered scene, keyed by name."""
    return {name: build for name, (build, _) in _table().items()}


def default_region(name: str) -> AngularRegion:
    """The angular region each registered scene is integrated over."""
    return _table()[name][1]
