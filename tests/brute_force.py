"""Nested brute-force integration of planar polar integrands, the tests'
reference for bounded scenes at moderate frequencies.

It uses only ``nsdq.oracle.adaptive_quad_1d`` and the scene's callables,
never the steepest-descent machinery, so it is an independent second route.
``stencil_derivative`` is the tests' fourth-order difference, a reference
(or deliberately noisy) derivative where no analytic one is at hand.
"""

import numpy as np

from nsdq.oracle import OracleNotConverged, adaptive_quad_1d
from nsdq.paths import _taylor_coefficient
from nsdq.polar import AngularRegion


def stencil_derivative(f, z):
    """Fourth-order df/dz for analytic ``f``: central differences at z +- h
    and z +- 2h, h = 1e-5 max(1, |z|), extrapolated.  ``z`` may be a scalar
    or an array."""
    s = 2e-5 * np.maximum(1.0, np.abs(z))
    return (4 * _taylor_coefficient(f, z, 1, s) - _taylor_coefficient(f, z, 1, 2 * s)) / 3


def brute_force_polar(scene, region, tol: float = 1e-8) -> complex:
    """Nested adaptive integration of a bounded polar integrand in two dimensions.

    Integrates ``f(r, th) exp(i w g(r, th)) r`` over the star-shaped domain
    of the scene and the angular interval of ``region``.  Independent of
    all steepest-descent machinery; practical up to roughly ``w = 200``.
    Other dimensions raise ``NotImplementedError``: 3-D accuracy is checked
    against the closed form ``specfun.ellipsoid_reference``.

    Unbounded scenes are rejected: adaptive quadrature cannot certify the
    oscillatory tail, so unbounded references must come from closed forms.
    """
    if scene.boundary_radius is None:
        raise ValueError("brute_force_polar requires a bounded (star-shaped) scene")
    if not isinstance(region, AngularRegion):
        raise TypeError(f"expected AngularRegion, got {type(region).__name__}")
    if scene.n != region.n:
        raise ValueError(f"scene and region disagree: scene.n = {scene.n}, region.n = {region.n}")
    if scene.n != 2:
        raise NotImplementedError(f"brute force only covers n = 2; got n = {scene.n}")
    omega = scene.omega

    def radial(th):
        R = float(scene.boundary_radius(th))

        def f_r(r):
            rr = np.asarray(r, dtype=float)
            amp = scene.amplitude(rr, th)
            osc = np.exp(1j * omega * np.asarray(scene.oscillator(rr, th), dtype=complex))
            return amp * osc * rr

        res = adaptive_quad_1d(f_r, 0.0, R, tol * 0.1)
        if not res.converged:
            raise OracleNotConverged(f"radial integral stalled at angle={th}")
        return res.value

    def f_theta(th):
        return np.array([radial(t) for t in np.atleast_1d(th)])

    (lo, hi), = region.intervals
    res = adaptive_quad_1d(f_theta, lo, hi, tol)
    if not res.converged:
        raise OracleNotConverged("angular integral did not converge")
    return res.value
