"""Descent paths: the grid tracer the integrators run, and the edge paths.

Traced paths are checked through ``polar._origin_samples`` and
``polar._boundary_samples``, the Newton continuation the integrators call,
with residuals computed from the scene's own oscillator.  The angle paths
of a straight edge are ``paths.edge_path``, which
``rectangle_corner_contributions`` evaluates on the rectangle's two edges.
"""

import cmath
import math
import re

import numpy as np
import pytest

from nsdq import polar, scenes, univariate
from nsdq.paths import (
    PathError,
    RadialScene,
    edge_path,
    newton_descent,
)
from nsdq.polar import _boundary_samples, _origin_samples, _weight_degree
from nsdq.rules import gauss_exp_power, trapezoid_periodic


def _newton_root(*args):
    # the roots of newton_descent, which reports a failure instead of raising it
    z, err = newton_descent(*args)
    if err is not None:
        raise err
    return z


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
    z = _newton_root(g, dg, 1j * prev, np.power(1j * prev / coeff, 1.0 / sc.alpha))
    out = []
    for p in ps:
        steps = max(1, math.ceil(16 * math.log2(p / prev)))
        for q in np.geomspace(prev, p, steps + 1)[1:]:
            z = _newton_root(g, dg, 1j * q, z)
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
    # (or diverges), so the path fails the branch check of the one solve of
    # all rows; its continuation divides p by 4 until the seed is trusted
    # (from p/4: the first p is not solved again), then ramps up
    # geometrically, 8 steps per quartering.  The roots must be
    # the branch of a fine continuation, not just any root of g = i p.
    sc = scenes.sphere_scatter_scene(50.0, psi)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return newton_descent(*args, **kwargs)

    monkeypatch.setattr(univariate, "newton_descent", counted)
    rho, _ = _origin_samples(sc, angles, np.array(ps))
    k = _RAMP_QUARTERS[psi]
    assert len(calls) == 1 + (k + 8 * k + (len(ps) - 1))
    p = _column(np.array(ps), angles)
    assert np.all(np.abs(sc.oscillator(rho, *angles) - 1j * p) <= 1e-12 * (1 + p))
    monkeypatch.undo()
    assert np.max(np.abs(rho - _fine_continuation(sc, angles, ps))) <= 1e-10


@pytest.mark.parametrize("k", [50.0, 200.0])
@pytest.mark.parametrize("psi", [1.3, 1.45, 1.5, 1.55])
def test_sphere_near_shadow_boundary_traces_the_continued_branch(psi, k):
    # the series seed at the first node converges to another root near
    # theta = 0 (at psi = 1.5, k = 50 w0 was off by 4%); every node of the
    # (8, 200) grid must follow the continued branch, also where the first
    # row is ramped and every later row starts from the tangent step
    sc = scenes.sphere_scatter_scene(k, psi)
    rule = gauss_exp_power(8, sc.alpha, _weight_degree(sc))
    ps = rule.nodes**sc.alpha / sc.omega
    angles = (trapezoid_periodic(200, 2 * math.pi).nodes,)
    rho, _ = _origin_samples(sc, angles, ps)
    assert np.max(np.abs(rho - _fine_continuation(sc, angles, ps))) <= 1e-10


def _sphere_traces(k, psi, grids, monkeypatch, forced):
    # roots, derivatives and (w0, approx) of one sphere row, and the number
    # of newton_descent calls; ``forced`` fails every path's branch check,
    # so every path goes through the row-by-row continuation
    from nsdq import experiments

    calls = []
    newton = univariate.newton_descent
    monkeypatch.setattr(univariate, "newton_descent",
                        lambda *args, **kwargs: calls.append(1) or newton(*args, **kwargs))
    if forced:
        monkeypatch.setattr(univariate, "_on_branch",
                            lambda z, *args: np.zeros(z.shape, dtype=bool))
    sc = scenes.sphere_scatter_scene(k, psi)
    samples = []
    for m, n in grids:
        ps = gauss_exp_power(m, sc.alpha, _weight_degree(sc)).nodes ** sc.alpha / sc.omega
        samples.append(_origin_samples(sc, (trapezoid_periodic(n, 2 * math.pi).nodes,), ps))
    row, = experiments.run_sphere_scatter([k], [psi], m=5, n_trap=100)
    monkeypatch.undo()
    w0 = complex(row.params["w0_re"], row.params["w0_im"])
    return samples, (w0, complex(row.approx)), len(calls)


def _agreement(k, psi, grids, monkeypatch):
    # worst root gap (absolute: the sphere's g carries a round-off of a few
    # eps, which bounds how well any root is determined), worst relative
    # gap of w0 and the value, and the batched solve's Newton calls
    batched, values, calls = _sphere_traces(k, psi, grids, monkeypatch, False)
    forced, expected, _ = _sphere_traces(k, psi, grids, monkeypatch, True)
    roots = max(float(np.max(np.abs(b[0] - f[0]))) for b, f in zip(batched, forced))
    rel = max(abs(v - e) / abs(e) for v, e in zip(values, expected))
    return roots, rel, calls


@pytest.mark.parametrize("psi", [0.0, 0.314, 0.628, 1.047])
def test_batched_sphere_paths_match_the_continuation(psi, monkeypatch):
    # the README sphere grid: every node row of all 100 directions is one
    # newton_descent call (the row's m = 5 and m = 8 together, and here
    # m = 5 and 8 through _origin_samples once more), nothing falls back,
    # and roots and values agree with the row-by-row continuation to full
    # precision
    for k in (50.0, 100.0, 150.0, 200.0):
        roots, rel, calls = _agreement(k, psi, [(5, 100), (8, 100)], monkeypatch)
        assert calls == 3
        assert roots <= 1e-15 and rel <= 1e-15, (k, roots, rel)


@pytest.mark.parametrize("psi", [1.3, 1.45, 1.5, 1.55])
def test_fallback_sphere_paths_match_the_continuation(psi, monkeypatch):
    # near the shadow boundary some paths fail the branch check and are
    # continued on their own (with the first-row ramp); they agree with
    # the continuation of every path as well.  Without a fallback the grid
    # and the row make one newton_descent call each
    fell_back = False
    for k in (50.0, 200.0):
        roots, rel, calls = _agreement(k, psi, [(8, 200)], monkeypatch)
        fell_back |= calls > 2
        assert roots <= 2e-14 and rel <= 3e-15, (k, roots, rel)
    assert fell_back


def test_traced_derivative_is_i_over_dg_on_the_roots():
    # the derivative the tracer returns is i / g'(z) on the final roots:
    # bit for bit what a separate evaluation on the stacked roots gives
    sc = scenes.sphere_scatter_scene(100.0, math.pi / 5)
    rule = gauss_exp_power(8, sc.alpha, _weight_degree(sc))
    angles = (trapezoid_periodic(200, 2 * math.pi).nodes,)
    rho, drho = _origin_samples(sc, angles, rule.nodes**sc.alpha / sc.omega)
    assert rho.shape == drho.shape == (8, 200)
    expected = 1j / np.asarray(sc.d_oscillator(rho, *angles), dtype=complex)
    assert np.ascontiguousarray(drho).tobytes() == np.ascontiguousarray(expected).tobytes()


def test_negative_leading_coefficient_traced():
    # g = -(x + 2y) on the quarter plane: the leading coefficient is negative
    # in every direction, and the traced paths give the Abel-summed value
    # -1 / (2 w^2) of int exp(-i w (x + 2y)).
    omega = 20.0
    sc = polar.normalize_scene(np.zeros(2), lambda x: 1.0 + 0.0 * x[0],
                               lambda x: -(x[0] + 2.0 * x[1]), omega, grad_g=lambda x: (-1.0, -2.0))
    region = polar.AngularRegion.box(2, (0.0, 0.5 * math.pi))
    value = polar.integrate_unbounded(sc, region, polar.OuterPlan.for_region(region, cc=20), 8)
    exact = -1.0 / (2.0 * omega**2)
    assert abs(value - exact) <= 1e-10 * abs(exact)


def _corner_path(key, a=None, b=None):
    # (theta(q), theta'(q)) of one corner of the duct [0, a] x [0, b], read
    # from edge_path on its edge x = a (d, phi, sign = a, 0, +1) or
    # y = b (b, pi/2, -1), as the corner sum reads it
    if key in ("duct-corner-h11", "duct-corner-h12"):
        d, phi, sign = a, 0.0, 1
    else:
        d, phi, sign = b, 0.5 * math.pi, -1
    start = d if key in ("duct-corner-h11", "duct-corner-h22") else math.hypot(a, b)

    def path(q):
        th, D = edge_path(q, d, phi, start, sign)
        return th, sign * 1j * d / D

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
            z = h if z is None else _newton_root(g, dg, base + 1j * q, z)
            zn = _newton_root(g, dg, base + 1j * q, z)
            assert abs(zn - h) <= 1e-12, (key, q)
            # a scalar start is solved as a 0-d array: element 0 of the same
            # solve from a one-element array
            assert np.ndim(zn) == 0 and zn == _newton_root(g, dg, base + 1j * q, [z])[0]
            z = zn


@pytest.mark.parametrize("d, phi, sign, x", [(1.3, 0.0, 1, 0.3), (0.7, 0.5 * math.pi, -1, 1.3)],
                         ids=["a-edge", "b-edge"])
def test_edge_paths_from_interior_points(d, phi, sign, x):
    # the paths from an interior angle of each edge of the 1.3 x 0.7
    # rectangle (beta = 0.494): R(h) = R(x) + i q, and h' = sign i d / D is
    # i / R'(h) on the Newton continuation of the same paths
    R = lambda z: d / np.cos(z - phi)
    dR = lambda z: d * np.sin(z - phi) / np.cos(z - phi) ** 2
    start = float(R(x))
    z = x + 0j
    for q in np.geomspace(1e-4, 0.8, 12):
        h, D = edge_path(q, d, phi, start, sign)
        assert abs(complex(R(h)) - (start + 1j * q)) <= 1e-12
        z = _newton_root(R, dR, start + 1j * q, z)
        assert abs(z - h) <= 1e-12
        assert abs(sign * 1j * d / D - 1j / dR(z)) <= 1e-12 * abs(1j / dR(z))


def test_degenerate_direction_rejected():
    sc = scenes.sphere_scatter_scene(50.0, 0.0)
    sc.alpha_coeff = lambda th: 0.0
    with pytest.raises(PathError, match="degenerate"):
        _origin_samples(sc, (0.0,), [0.1])


def test_newton_failure_reports_context():
    # z^3 - 2z + 2 from z = 0 is the classic Newton 2-cycle: no convergence.
    # The failure is returned, with the message a caller raises
    z, err = newton_descent(lambda z: z**3 - 2 * z + 2, lambda z: 3 * z**2 - 2, 0.0, 0.0 + 0.0j,
                            context="cycle test")
    assert isinstance(err, PathError) and err.failed.tolist() is True
    assert re.fullmatch(r"Newton did not converge after 50 iterations \(worst residual \S+\) "
                        r"cycle test", str(err))
    _, err = newton_descent(lambda z: 0.0 * z + 1.0, lambda z: 0.0 * z, 0.0, 1.0 + 0.0j)
    assert str(err) == "degenerate path: |dg/dz| < 1e-14 or NaN "


def test_newton_rejects_non_finite_values():
    # NaN fails every comparison, so it must not pass as converged or as a
    # usable derivative
    _, err = newton_descent(lambda z: z + np.nan, lambda z: np.ones_like(z), [1j, 2j], [0, 0])
    assert "did not converge" in str(err) and err.failed.tolist() == [True, True]
    z, err = newton_descent(lambda z: z, lambda z: np.array([1.0, np.nan]), [1j, 2j], [0, 0])
    assert "degenerate" in str(err) and err.failed.tolist() == [False, True]
    assert z[0] == 1j


def test_newton_reports_each_element_and_solves_the_others():
    # one batch: a 2-cycle, a collapsed g', an overflowing g and two good
    # elements.  Nothing is raised and no numpy warning escapes (warnings
    # fail the suite); the failing elements are reported, and the others
    # are roots to full precision
    def g(z):
        return np.where(z.real > 50.0, np.sinh(z) * 1e300, z**3 - 2 * z + 2)

    def dg(z):
        return np.where(np.arange(z.size) == 2, 0.0, 3 * z**2 - 2)

    target = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    z0 = np.array([0.0, -1.7, -1.8, 200.0, -1.76])
    z, err = newton_descent(g, dg, target, z0, context="mixed")
    assert err.failed.tolist() == [True, False, True, True, False]
    assert str(err) == "degenerate path: |dg/dz| < 1e-14 or NaN mixed"
    root = -1.7692923542386314  # the real root of z^3 - 2z + 2
    assert np.all(np.abs(z[[1, 4]] - root) <= 2e-16 * abs(root))


def test_newton_refines_past_the_residual_test():
    # exp(z) = t from 1.2e-7 off the root: one Newton step passes the
    # residual test with the root still 7e-15 off, and the chord step after
    # it brings every root within two units of the last place of log(t)
    t = np.geomspace(1e-3, 1e3, 25) * np.exp(0.3j)
    z, err = newton_descent(np.exp, np.exp, t, np.log(t) + 1.2e-7)
    assert err is None
    assert np.max(np.abs(z - np.log(t)) / np.maximum(1.0, np.abs(np.log(t)))) <= 4.5e-16


def test_scene_rejects_non_integrable_singularity():
    with pytest.raises(ValueError, match="singularity order"):
        RadialScene(
            n=2, omega=1.0,
            amplitude=lambda z, th: 1.0 / z**2,
            oscillator=lambda z, th: z,
            d_oscillator=lambda z, th: 1.0,
            singularity_order=2.0,
        )
