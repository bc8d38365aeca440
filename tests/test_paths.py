"""Descent paths: the grid tracer the integrators run, and the corner paths.

Traced paths are checked through ``polar._origin_samples`` and
``polar._boundary_samples``, the Newton continuation the integrators call,
with residuals computed from the scene's own oscillator.  The rectangle's
corner angle paths are the definitions ``rectangle_corner_contributions``
evaluates.
"""

import cmath
import math

import numpy as np
import pytest

from nsdq import polar, scenes
from nsdq.paths import (
    PathError,
    RadialScene,
    corner_h11,
    corner_h12,
    corner_h21,
    corner_h22,
    newton_descent,
)
from nsdq.polar import _boundary_samples, _origin_samples, _weight_degree
from nsdq.rules import gauss_exp_power, trapezoid_periodic


def _sample_ps():
    return np.geomspace(1e-3, 0.5, 10)


def _column(ps, angles):
    # descent parameters shaped to broadcast against the traced (m,) + grid arrays
    return np.reshape(ps, (-1,) + (1,) * np.ndim(angles[0]))


def test_linear_phase_origin_path():
    sc = scenes.quarter_plane_scene(10.0)
    sc.origin_path = None
    ps = _sample_ps()
    rho, drho = _origin_samples(sc, (0.3,), ps)
    assert np.all(np.abs(rho - 1j * ps) < 1e-14)
    # d(rho^2)/dp = -2p for the n = 2 linear phase
    assert np.all(np.abs(2.0 * rho * drho + 2.0 * ps) < 1e-13)


def test_ellipsoid_origin_path_matches_closed_form():
    sc = scenes.ellipsoid_scene(100.0)
    sc.origin_path = None
    angles = (np.array([0.7, 2.1, 1.5707963]), np.array([1.3, 4.0, 0.0]))
    ps = _column(_sample_ps(), angles)
    rho, _ = _origin_samples(sc, angles, _sample_ps())
    assert rho.shape == (10, 3)
    assert np.all(np.abs(rho - 1j * ps / scenes._ellipsoid_slope(*angles)) <= 1e-12)
    assert np.all(np.abs(sc.oscillator(rho, *angles) - 1j * ps) <= 1e-12 * (1 + ps))


def test_quadratic_phase_branch():
    # g = z^2 has alpha = 2; the principal branch is exp(i pi/4) sqrt(p)
    sc = RadialScene(
        n=2, omega=50.0,
        amplitude=lambda z, th: 1.0 + 0.0 * z,
        oscillator=lambda z, th: z * z,
        d_oscillator=lambda z, th: 2.0 * z,
        alpha=2,
        alpha_coeff=lambda th: 1.0,
    )
    ps = _sample_ps()
    rho, _ = _origin_samples(sc, (0.1,), ps)
    assert np.all(np.abs(rho - cmath.exp(1j * math.pi / 4) * np.sqrt(ps)) < 1e-12)


def test_boundary_paths_linear_phase():
    sc = scenes.duct_scene(10.0, 1.0, 2.0)
    sc.boundary_path = None
    th = 0.4
    R = float(sc.boundary_radius(th))
    assert abs(R - 1.0 / math.cos(th)) < 1e-14
    ps = _sample_ps()
    rho, _ = _boundary_samples(sc, (th,), ps)
    assert np.all(np.abs(rho - (R + 1j * ps)) < 1e-12)

    disk = scenes.disk_scene(10.0)
    disk.boundary_path = None
    angles = (np.linspace(0.0, 2 * math.pi, 7),)
    rho, _ = _boundary_samples(disk, angles, ps)
    assert np.all(np.abs(rho - (1.0 + 1j * _column(ps, angles))) < 1e-13)


def test_ellipse_boundary_linear_ansatz():
    sc = scenes.ellipse_scene(30.0)
    sc.boundary_path = None
    angles = (np.array([0.9, 2.5]),)
    R = sc.boundary_radius(*angles)
    ps = _column(_sample_ps(), angles)
    rho, _ = _boundary_samples(sc, angles, _sample_ps())
    assert np.all(np.abs(rho - (R + 1j * ps)) < 1e-12)


def test_path_sample_invariants():
    sc = scenes.sphere_scatter_scene(50.0, math.pi / 5)
    angles = (np.linspace(0.0, 2 * math.pi, 9),)
    ps = np.geomspace(1e-3, 0.4, 24)
    rho, drho = _origin_samples(sc, angles, ps)
    p = _column(ps, angles)
    g = sc.oscillator(rho, *angles)
    assert np.all(np.abs(g - 1j * p) <= 1e-12 * (1 + p))
    assert np.all(np.abs(drho * sc.d_oscillator(rho, *angles) - 1j) <= 1e-12)
    # exp(i w g(rho)) decays exactly like exp(-w p) at convergence
    decay = np.exp(-sc.omega * p)
    assert np.all(np.abs(np.abs(np.exp(1j * sc.omega * g)) - decay) <= 1e-12 * decay)
    # branch continuity along the ascending parameters
    step = np.abs(np.diff(rho, axis=0))
    bound = 2.0 * np.maximum(np.abs(drho[:-1]), np.abs(drho[1:])) * np.diff(p, axis=0)
    assert np.all(step <= bound)


def _fine_continuation(sc, angles, ps):
    # the branch every traced path must follow: Newton from the series seed at
    # p0 / 2^16, where the seed is accurate, then 16 geometric steps per
    # octave through every p
    coeff = np.asarray(sc.alpha_coeff(*angles), dtype=float)
    g = lambda z: sc.oscillator(z, *angles)
    dg = lambda z: sc.d_oscillator(z, *angles)
    prev = ps[0] / 2.0**16
    z = newton_descent(g, dg, 1j * prev, np.power(1j * prev / coeff, 1.0 / sc.alpha))
    out = []
    for p in ps:
        steps = max(1, math.ceil(16 * math.log2(p / prev)))
        for q in np.geomspace(prev, p, steps + 1)[1:]:
            z = newton_descent(g, dg, 1j * q, z)
        out.append(z)
        prev = p
    return np.stack(out)


# quarterings of p before the first root lies within 0.1 |seed| of its seed
_RAMP_QUARTERS = {1.5: 8, 1.3: 6}


@pytest.mark.parametrize("psi, ps", [(1.5, [0.3, 0.33]), (1.3, [2.0, 2.2])])
@pytest.mark.parametrize("angles", [(0.0,), (np.linspace(0.0, 2 * math.pi, 12, endpoint=False),)],
                         ids=["one-direction", "grid"])
def test_first_point_ramp(psi, ps, angles, monkeypatch):
    # Newton from the series seed at the first p lands on another root here
    # (or diverges); the tracer divides p by 4 until the seed is trusted, then
    # ramps up geometrically, 8 steps per quartering.  The roots must be the
    # branch of a fine continuation, not just any root of g = i p.
    sc = scenes.sphere_scatter_scene(50.0, psi)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return newton_descent(*args, **kwargs)

    monkeypatch.setattr(polar, "newton_descent", counted)
    rho, _ = _origin_samples(sc, angles, np.array(ps))
    k = _RAMP_QUARTERS[psi]
    assert len(calls) == 1 + k + 8 * k + (len(ps) - 1)
    p = _column(np.array(ps), angles)
    assert np.all(np.abs(sc.oscillator(rho, *angles) - 1j * p) <= 1e-12 * (1 + p))
    monkeypatch.undo()
    assert np.max(np.abs(rho - _fine_continuation(sc, angles, ps))) <= 1e-10


def test_sphere_near_shadow_boundary_traces_the_continued_branch():
    # the series seed at the first node converges to another root at theta = 0
    # (w0 was off by 4%); every node of the (8, 200) grid must follow the
    # continued branch
    sc = scenes.sphere_scatter_scene(50.0, 1.5)
    rule = gauss_exp_power(8, sc.alpha, _weight_degree(sc))
    ps = rule.nodes**sc.alpha / sc.omega
    angles = (trapezoid_periodic(200, 2 * math.pi).nodes,)
    rho, _ = _origin_samples(sc, angles, ps)
    assert np.max(np.abs(rho - _fine_continuation(sc, angles, ps))) <= 1e-10


def test_negative_leading_coefficient_traced():
    # g = -(x + 2y) on the quarter plane: the leading coefficient is negative
    # in every direction, and the traced paths give the Abel-summed value
    # -1 / (2 w^2) of int exp(-i w (x + 2y)).
    omega = 20.0
    sc = polar.normalize_scene(np.zeros(2), lambda x: 1.0 + 0.0 * x[0],
                               lambda x: -(x[0] + 2.0 * x[1]), omega)
    region = polar.AngularRegion.box(2, (0.0, 0.5 * math.pi))
    value = polar.integrate_unbounded(sc, region, polar.OuterPlan.for_region(region, cc=20), 8)
    exact = -1.0 / (2.0 * omega**2)
    assert abs(value - exact) <= 1e-10 * abs(exact)


def _corner_path(key, a=None, b=None):
    # (theta(q), theta'(q)) of one corner from the definitions the corner sum uses
    def path(q):
        if key == "duct-corner-h11":
            th, D = corner_h11(q, a)
            return th, 1j * a / D
        if key == "duct-corner-h12":
            th, D = corner_h12(q, a, b)
            return th, 1j * a / D
        if key == "duct-corner-h21":
            th, D = corner_h21(q, a, b)
            return th, -1j * b / D
        th, D = corner_h22(q, b)
        return th, -1j * b / D

    return path


@pytest.mark.parametrize("key, params, oscillator, base_val", [
    ("duct-corner-h11", {"a": 1.0}, lambda th: 1.0 / np.cos(th), 1.0),
    ("duct-corner-h12", {"a": 1.0, "b": 2.0}, lambda th: 1.0 / np.cos(th), math.sqrt(5.0)),
    ("duct-corner-h21", {"a": 1.0, "b": 2.0}, lambda th: 2.0 / np.sin(th), math.sqrt(5.0)),
    ("duct-corner-h22", {"b": 2.0}, lambda th: 2.0 / np.sin(th), 2.0),
])
def test_duct_corner_paths_satisfy_their_equation(key, params, oscillator, base_val):
    # each angle path h(q) must satisfy oscillator(h(q)) = base + i q
    path = _corner_path(key, **params)
    for q in np.geomspace(1e-4, 0.8, 10):
        h, dh = path(q)
        assert abs(complex(oscillator(h)) - (base_val + 1j * q)) < 1e-12
        # derivative consistency by a central difference scaled to q (the
        # resonance corners behave like sqrt(q), so a fixed step is useless)
        step = 1e-5 * q
        hp, _ = path(q + step)
        hm, _ = path(q - step)
        assert abs((hp - hm) / (2 * step) - dh) < 1e-6 * abs(dh)


def test_duct_corner_paths_against_newton():
    # Newton continuation on the angular oscillators reproduces the closed
    # forms: theta = 0 and pi/2 are order-2 (resonance) endpoints, beta is
    # regular.
    a, b = 1.0, 2.0
    eta = math.hypot(a, b)
    qs = np.geomspace(1e-4, 0.5, 10)

    cases = [
        ("duct-corner-h11", lambda z: a / np.cos(z), lambda z: a * np.sin(z) / np.cos(z) ** 2, a),
        ("duct-corner-h12", lambda z: a / np.cos(z), lambda z: a * np.sin(z) / np.cos(z) ** 2, eta),
        ("duct-corner-h21", lambda z: b / np.sin(z), lambda z: -b * np.cos(z) / np.sin(z) ** 2, eta),
        ("duct-corner-h22", lambda z: b / np.sin(z), lambda z: -b * np.cos(z) / np.sin(z) ** 2, b),
    ]
    for key, g, dg, base in cases:
        path = _corner_path(key, a, b)
        z = None
        for q in qs:
            h, _ = path(q)
            z = h if z is None else newton_descent(g, dg, base + 1j * q, z)
            zn = newton_descent(g, dg, base + 1j * q, z)
            assert abs(zn - h) <= 1e-12, (key, q)
            z = zn


def test_degenerate_direction_rejected():
    sc = scenes.sphere_scatter_scene(50.0, 0.0)
    sc.alpha_coeff = lambda th: 0.0
    with pytest.raises(PathError, match="degenerate"):
        _origin_samples(sc, (0.0,), [0.1])


def test_newton_failure_reports_context():
    # z^3 - 2z + 2 from z = 0 is the classic Newton 2-cycle: no convergence
    with pytest.raises(PathError, match="did not converge"):
        newton_descent(
            lambda z: z**3 - 2 * z + 2, lambda z: 3 * z**2 - 2, 0.0, 0.0 + 0.0j,
            context="cycle test",
        )
    with pytest.raises(PathError, match="degenerate"):
        newton_descent(lambda z: 0.0 * z + 1.0, lambda z: 0.0 * z, 0.0, 1.0 + 0.0j)


def test_newton_rejects_non_finite_values():
    # NaN fails every comparison, so it must not pass as converged or as a
    # usable derivative
    with pytest.raises(PathError, match="did not converge") as err:
        newton_descent(lambda z: z + np.nan, lambda z: np.ones_like(z), [1j, 2j], [0, 0])
    assert err.value.failed.tolist() == [True, True]
    with pytest.raises(PathError, match="degenerate") as err:
        newton_descent(lambda z: z, lambda z: np.array([1.0, np.nan]), [1j, 2j], [0, 0])
    assert err.value.failed.tolist() == [False, True]


def test_scene_rejects_non_integrable_singularity():
    with pytest.raises(ValueError, match="singularity order"):
        RadialScene(
            n=2, omega=1.0,
            amplitude=lambda z, th: 1.0 / z**2,
            oscillator=lambda z, th: z,
            d_oscillator=lambda z, th: 1.0,
            singularity_order=2.0,
        )
