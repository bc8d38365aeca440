import cmath
import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsdq import scenes
from nsdq.experiments import _sphere_sums
from brute_force import brute_force_polar, stencil_derivative
from nsdq.oracle import adaptive_quad_1d
from nsdq.paths import PathError, RadialScene
from nsdq.polar import (
    AngularRegion,
    OuterPlan,
    _boundary_amplitude,
    _boundary_grid,
    _boundary_phase,
    _boundary_samples,
    _central_grid,
    _check_rectangle,
    _descent_sums,
    _origin_samples,
    _outer_grid,
    _stationary_points,
    _weight_degree,
    integrate_star_shaped,
    integrate_unbounded,
    normalize_scene,
    rectangle_corner_contributions,
    rectangle_direct_terms,
    spherical_map,
)
from nsdq.rules import _in_p, _node_sum, clenshaw_curtis, gauss_exp_power, trapezoid_periodic


def disk_closed_form(omega, radius=1.0):
    # two integrations by parts of int_0^2pi int_0^R exp(i w r) r dr dth
    w = omega * radius
    return 2 * math.pi * (cmath.exp(1j * w) * (1 - 1j * w) - 1) / omega**2


def test_spherical_map_plane():
    x, factor = spherical_map(1.0, (0.0,))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-15)
    assert factor == 1.0


def test_spherical_map_three_dims():
    x, factor = spherical_map(1.0, (math.pi / 2, math.pi / 2))
    np.testing.assert_allclose(x, [0.0, 0.0, 1.0], atol=1e-15)
    assert abs(factor - 1.0) < 1e-15


def test_spherical_map_ball_volume():
    # volume of the unit ball via the tensor rule on the angular box
    cc = clenshaw_curtis(30, 0.0, math.pi)
    trap = trapezoid_periodic(30, 2 * math.pi)
    total = 0.0
    for phi1, w1 in zip(cc.nodes, cc.weights):
        _, factor = spherical_map(1.0, (phi1, 0.0))
        total += w1 * factor * trap.weights.sum()
    total /= 3.0  # radial integral of r^2 over [0, 1]
    assert abs(total - 4 * math.pi / 3) < 1e-10


def test_weight_degree_policy():
    assert _weight_degree(scenes.quarter_plane_scene(1.0)) == 1
    assert _weight_degree(scenes.duct_scene(1.0)) == 0
    assert _weight_degree(scenes.ellipsoid_scene(1.0)) == 0
    assert _weight_degree(scenes.sphere_scatter_scene(1.0, 0.3)) == 0


@pytest.mark.parametrize("m", [1, 2, 5])
def test_quarter_plane_central_value(m):
    sc = scenes.quarter_plane_scene(10.0)
    q = complex(_central_grid(sc, (0.5,), np.array([m]))[0])
    assert abs(q - (-0.01)) <= 1e-14


@pytest.mark.parametrize("omega", [1.0, 10.0, 100.0])
def test_quarter_plane_identity(omega):
    sc = scenes.quarter_plane_scene(omega)
    region = scenes.default_region("quarter-plane")
    plan = OuterPlan.for_region(region, cc=10)
    val = integrate_unbounded(sc, region, plan, 3)
    exact = -math.pi / (2 * omega**2)
    assert abs(val - exact) <= 1e-12 * abs(exact)


def test_ellipsoid_central_matches_descent_oracle():
    # the per-direction value against adaptive quadrature of the descent
    # integrand on the real parameter axis
    omega = 100.0
    sc = scenes.ellipsoid_scene(omega)
    angles = (math.pi / 2, 0.0)
    s = float(scenes._ellipsoid_slope(*angles))

    def descent_integrand(p):
        rho = 1j * p / s
        jac = 3.0 * rho**2 * (1j / s)
        return sc.amplitude(rho, *angles) * jac * np.exp(-omega * p)

    oracle = adaptive_quad_1d(descent_integrand, 1e-14, 60.0 / omega, 1e-13).value / 3.0
    got = complex(_central_grid(sc, angles, np.array([10]))[0])
    assert abs(got - oracle) <= 1e-10 * abs(oracle)


def test_disk_boundary_contribution_value():
    # (1/2) exp(i w) int 2 (1 + i p) i exp(-w p) dp, exact for m >= 2;
    # this term is subtracted from the central contribution.
    omega = 50.0
    sc = scenes.disk_scene(omega)
    got = complex(_boundary_grid(sc, (0.1,), 2, _boundary_phase(sc)(0.1)))
    expect = cmath.exp(1j * omega) * (1j / omega - 1.0 / omega**2)
    assert abs(got - expect) <= 1e-13 * abs(expect)


def test_duct_boundary_at_split_angle():
    a, b = 1.0, 2.0
    sc = scenes.duct_scene(30.0, a, b)
    beta = math.atan2(b, a)
    eta = math.hypot(a, b)
    assert abs(float(sc.boundary_radius(beta)) - eta) < 1e-12
    G = _boundary_phase(sc)(beta)
    closed = complex(_boundary_grid(sc, (beta,), 6, G))
    sc.boundary_path = None  # force the Newton tracer
    traced = complex(_boundary_grid(sc, (beta,), 6, G))
    assert abs(closed - traced) <= 1e-12 * abs(closed)


def test_ellipsoid_truncated_boundary_against_oracle():
    # boundary term of the ellipsoid scene truncated to R = 1
    omega = 100.0
    sc = scenes.ellipsoid_scene(omega)
    sc.boundary_radius = lambda phi1, phi2: 1.0 + 0.0 * np.asarray(phi1, float)
    sc.boundary_path = None
    angles = (math.pi / 2, 0.0)
    s = float(scenes._ellipsoid_slope(*angles))

    def descent_integrand(p):
        rho = 1.0 + 1j * p / s
        jac = 3.0 * rho**2 * (1j / s)
        return sc.amplitude(rho, *angles) * jac * np.exp(-omega * p)

    oracle = cmath.exp(1j * omega * s) / 3.0 * adaptive_quad_1d(
        descent_integrand, 1e-14, 60.0 / omega, 1e-13
    ).value
    got = complex(_boundary_grid(sc, angles, 12, _boundary_phase(sc)(*angles)))
    assert abs(got - oracle) <= 1e-9 * abs(oracle)


def test_ellipsoid_against_closed_form_large_omega():
    from nsdq.specfun import ellipsoid_reference

    region = scenes.default_region("ellipsoid")
    plan = OuterPlan.for_region(region, cc=50, trap=50)
    sc = scenes.ellipsoid_scene(1000.0)
    val = integrate_unbounded(sc, region, plan, 8)
    assert abs(val - ellipsoid_reference(1000.0)) <= 1e-12


def test_full_sphere_factorization():
    # an angle-independent integrand factorizes into (sphere area) * Q_r
    sc = scenes.ellipsoid_scene(50.0)
    sc.amplitude = lambda z, phi1, phi2: 1.0 / (z * z * (1.0 + z))
    sc.oscillator = lambda z, phi1, phi2: z + 0.0 * np.asarray(phi1, float)
    sc.d_oscillator = lambda z, phi1, phi2: 1.0 + 0.0 * np.asarray(phi1, float)
    sc.alpha_coeff = lambda phi1, phi2: 1.0 + 0.0 * np.asarray(phi1, float)
    sc.origin_path = None
    region = scenes.default_region("ellipsoid")
    plan = OuterPlan.for_region(region, cc=20, trap=20)
    total = integrate_unbounded(sc, region, plan, 6)
    q = complex(_central_grid(sc, (0.7, 1.1), np.array([6]))[0])
    assert abs(total - 4 * math.pi * q) <= 1e-12 * abs(total)


def test_disk_star_shaped_closed_form():
    omega = 50.0
    sc = scenes.disk_scene(omega)
    region = scenes.default_region("disk")
    plan = OuterPlan.for_region(region, cc=12, trap=12)
    val = integrate_star_shaped(sc, region, plan, 2)
    exact = disk_closed_form(omega)
    assert abs(val - exact) <= 1e-12 * abs(exact)


def test_quarter_disk_is_quarter_of_disk():
    omega = 35.0
    sc = scenes.quarter_disk_scene(omega)
    region = scenes.default_region("quarter-disk")
    plan = OuterPlan.for_region(region, cc=12)
    val = integrate_star_shaped(sc, region, plan, 3)
    assert abs(val - disk_closed_form(omega) / 4) <= 1e-12 * abs(val)


def test_ellipse_oscillatory_boundary_against_brute_force():
    omega = 200.0
    sc = scenes.ellipse_scene(omega)
    region = scenes.default_region("ellipse")
    plan = OuterPlan.for_region(region, cc=40, trap=40)
    val = integrate_star_shaped(sc, region, plan, 8)
    ref = brute_force_polar(sc, region, 1e-8)
    assert abs(val - ref) <= 1e-6 * abs(ref)


def test_ellipse_newton_boundary_at_complex_angles():
    # without the closed-form boundary path the oscillatory boundary term is
    # Newton-traced at complex angles; the result must not change
    omega = 80.0
    sc = scenes.ellipse_scene(omega)
    sc.boundary_path = None
    region = scenes.default_region("ellipse")
    plan = OuterPlan.for_region(region, trap=40)
    val = integrate_star_shaped(sc, region, plan, 8)
    ref = brute_force_polar(sc, region, 1e-8)
    assert abs(val - ref) <= 1e-8


def test_ellipse_boundary_phase_derivative_matches_finite_difference():
    sc = scenes.ellipse_scene(100.0)
    G = _boundary_phase(sc)
    th = np.array([0.0, 0.3, 1.2, 0.5 * math.pi, 2.5, 4.0, 0.3 + 0.2j, 1.2 - 0.1j, 2.5 + 0.4j])
    got = np.asarray(sc.d_boundary_phase(th), dtype=complex)
    np.testing.assert_allclose(got, stencil_derivative(G, th), rtol=0, atol=1e-10)


def test_duct_boundary_phase_derivative_matches_finite_difference():
    # R' on real angles either side of the kink at beta = atan(2), and the
    # refusal of a complex angle that names the kink
    sc = scenes.duct_scene(100.0)
    G = _boundary_phase(sc)
    th = np.array([0.0, 0.3, 1.0, 1.1, 1.12, 1.4, 0.5 * math.pi - 1e-3])
    np.testing.assert_allclose(sc.d_boundary_phase(th), stencil_derivative(G, th), rtol=1e-9, atol=1e-12)
    with pytest.raises(PathError, match="not analytic across theta = atan"):
        sc.d_boundary_phase(np.array([0.3 + 0.1j]))


def _stationary_points_80(dG, lo, hi):
    # reference: the scan with 80 halvings per bracket; also returns each
    # point's sample bracket
    ths = np.linspace(lo, hi, 600)
    d = dG(ths).real
    points, brackets = [], []
    for i in range(599):
        if d[i] == 0.0 and lo < ths[i] < hi:
            points.append(ths[i])
            brackets.append((ths[i], ths[i]))
        elif d[i] * d[i + 1] < 0:
            a, b = ths[i], ths[i + 1]
            fa = d[i]
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = float(dG(mid).real)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            points.append(0.5 * (a + b))
            brackets.append((ths[i], ths[i + 1]))
    scale = max(abs(float(d[0])), abs(float(d[-1])), 1e-30)
    end_a = abs(float(d[0])) < 1e-7 * max(1.0, scale)
    end_b = abs(float(d[-1])) < 1e-7 * max(1.0, scale)
    return points, brackets, end_a, end_b


def _sign_change(dG, x):
    # dG/dtheta, as computed, vanishes at x or changes sign between x and a
    # neighbouring double
    fx = float(dG(x).real)
    return fx == 0.0 or any(fx * float(dG(np.nextafter(x, to)).real) <= 0 for to in (-np.inf, np.inf))


@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       ends=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)))
@settings(max_examples=80, deadline=None)
def test_stationary_scan_matches_80_halvings(coeffs, ends):
    # dG/dtheta is a fourth-order difference of G, whose computed sign is
    # noisy near a root.  The scan finds the points and end flags that 80
    # halvings find, and each point lies in its sample bracket and is a sign
    # change (or a zero) of the computed dG/dtheta at the resolution of
    # doubles; the points are the plain bisection's, bit for bit
    lo, hi = sorted(ends)
    assume(hi - lo > 1e-3)
    pairs = list(zip(coeffs[::2], coeffs[1::2]))
    G = lambda th: sum(a * np.cos(k * th) + b * np.sin(k * th) for k, (a, b) in enumerate(pairs, start=1))
    dG = lambda th: stencil_derivative(G, th)
    got, end_a, end_b = _stationary_points(dG, lo, hi)
    want, brackets, want_a, want_b = _stationary_points_80(dG, lo, hi)
    assert (end_a, end_b) == (want_a, want_b)
    assert len(got) == len(want)
    for x, (a, b) in zip(got, brackets):
        assert a <= x <= b
        assert _sign_change(dG, x)
    assert [float(x) for x in got] == [float(x) for x in _bisection_scan(dG, lo, hi)]


def _bisection_scan(dG, lo, hi):
    # reference: sign changes on 600 samples, each bracket halved until its
    # midpoint rounds to one of its ends
    ths = np.linspace(lo, hi, 600)
    d = dG(ths).real
    points = []
    for i in range(599):
        if d[i] == 0.0 and lo < ths[i] < hi:
            points.append(ths[i])
        elif d[i] * d[i + 1] < 0:
            a, b = ths[i], ths[i + 1]
            fa, mid = d[i], 0.5 * (a + b)
            while a < mid < b:
                fm = float(dG(mid).real)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
                mid = 0.5 * (a + b)
            points.append(mid)
    return points


def _trigonometric_dG(th):
    # the exact derivative of G = 1.5 sin 3 theta + 0.4 cos theta - 0.3 sin 2 theta
    return 4.5 * np.cos(3.0 * th) - 0.4 * np.sin(th) - 0.6 * np.cos(2.0 * th)


_BELOW_TWO = 2.0 - 2.0**-51  # two doubles below 2


@pytest.mark.parametrize("boundary", ["ellipse", "asymmetric", "trigonometric", "root-at-2", "sine-at-4",
                                      "half-periods", "sine-below-2"])
@pytest.mark.parametrize("lo, hi", [(0.0, 2 * math.pi), (0.3, 2.9), (1.0, 6.0)])
def test_stationary_scan_matches_the_bisection_with_analytic_derivatives(boundary, lo, hi):
    # with an analytic dG/dtheta the computed sign changes once in each
    # bracket, and the scan finds the bisection's points bit for bit.  The
    # last four have roots at and just below powers of two (half-periods at
    # every multiple of 0.5), where a bracket end crosses into a lower binade
    dG = {"ellipse": scenes.ellipse_scene(100.0).d_boundary_phase,
          "asymmetric": _asymmetric_scene(100.0).d_boundary_phase,
          "trigonometric": _trigonometric_dG,
          "root-at-2": lambda th: th - 2.0,
          "sine-at-4": lambda th: np.sin(th - 4.0),
          "half-periods": lambda th: np.sin(2.0 * math.pi * (th - 0.5)),
          "sine-below-2": lambda th: np.sin(_BELOW_TWO - th)}[boundary]
    got = _stationary_points(dG, lo, hi)[0]
    want = _bisection_scan(dG, lo, hi)
    assert got and [float(x) for x in got] == [float(x) for x in want]


def test_stationary_scan_reads_the_scene_derivative():
    # the ellipse's dG/dtheta: one call on the 600 samples, then one scalar
    # call per halving of each of 3 brackets: 45 take a bracket of
    # 2 pi / 599 down to adjacent doubles
    sc = scenes.ellipse_scene(100.0)
    dR = sc.d_boundary_phase
    dg_shapes = []

    def counted_dG(th):
        dg_shapes.append(np.shape(th))
        return dR(th)

    points, end_a, end_b = _stationary_points(counted_dG, 0.0, 2 * math.pi)
    assert dg_shapes[0] == (600,)
    assert set(dg_shapes[1:]) == {()} and len(dg_shapes) - 1 == 3 * 45
    assert [float(x) for x in points] == [math.pi / 2, math.pi, 3 * math.pi / 2]
    assert end_a is True and end_b is True
    # the integrator hands the scan the scene's derivative (a new callable:
    # the scan of counted_dG on this interval is kept and would be reused)
    dg_shapes.clear()
    sc.d_boundary_phase = lambda th: counted_dG(th)
    region = scenes.default_region("ellipse")
    integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=40), 8)
    assert (600,) in dg_shapes


@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       ends=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)))
@settings(max_examples=80, deadline=None)
def test_stationary_scan_with_exact_derivative_brackets_each_root(coeffs, ends):
    # with the exact dG every point is a root certificate: dG changes sign
    # (or vanishes) between the point and one of its neighbouring doubles
    lo, hi = sorted(ends)
    assume(hi - lo > 1e-3)
    pairs = list(enumerate(zip(coeffs[::2], coeffs[1::2]), start=1))
    G = lambda th: sum(a * np.cos(k * th) + b * np.sin(k * th) for k, (a, b) in pairs)
    dG = lambda th: sum(k * (b * np.cos(k * th) - a * np.sin(k * th)) for k, (a, b) in pairs)
    got, _, _ = _stationary_points(dG, lo, hi)
    for x in got:
        assert min(dG(x) * dG(np.nextafter(x, -np.inf)), dG(x) * dG(np.nextafter(x, np.inf))) <= 0
    # the scan of a fourth-order difference of G finds as many points
    # unless a root lies so close to a sample that the derivative's error
    # flips the sign there: truncation s^4/480 max|G^(5)| plus round-off,
    # with spacing s = 2e-5 max(1, |theta|)
    size = sum(abs(a) + abs(b) for _, (a, b) in pairs)
    assume(size > 1e-100)
    s = 2e-5 * 2 * math.pi
    err = s**4 / 480 * sum(k**5 * (abs(a) + abs(b)) for k, (a, b) in pairs) + 1e-14 * size / 2e-5
    assume(np.all(np.abs(dG(np.linspace(lo, hi, 600))) > 2 * err))
    assert len(got) == len(_stationary_points(lambda th: stencil_derivative(G, th), lo, hi)[0])


def test_stationary_scan_takes_a_zero_sample_once():
    # dG vanishes exactly on the sample ths[137]: neither neighbouring
    # product is negative, so only the zero test finds the point, once
    ths = np.linspace(0.0, 2 * math.pi, 600)
    dG = lambda th: th - ths[137]
    assert _stationary_points(dG, 0.0, 2 * math.pi) == ([ths[137]], False, False)


def _asymmetric_scene(omega):
    # unit amplitude and phase r inside R = 1 + 0.1 sin^3 + 0.04 cos
    # + 0.02 sin(2 theta + 0.3): no symmetry puts the stationary points of
    # G = R on doubles
    R = lambda th: 1.0 + 0.1 * np.sin(th) ** 3 + 0.04 * np.cos(th) + 0.02 * np.sin(2.0 * th + 0.3)
    dR = lambda th: (0.3 * np.sin(th) ** 2 * np.cos(th) - 0.04 * np.sin(th)
                     + 0.04 * np.cos(2.0 * th + 0.3))
    return scenes._unit_radial_scene(omega, R, "asym", dR)


def _asymmetric_reference(omega, nodes=65536):
    # periodic trapezoid in theta of int_0^R r exp(i w r) dr in closed form
    th = np.arange(nodes) * (2.0 * math.pi / nodes)
    R = _asymmetric_scene(omega).boundary_radius(th)
    radial = ((1.0 - 1j * omega * R) * np.exp(1j * omega * R) - 1.0) / omega**2
    return complex(np.sum(radial) * (2.0 * math.pi / nodes))


def _recorded_boundary_calls(monkeypatch, scene):
    # run integrate_star_shaped on the ellipse region (trap 40, m = 8) and
    # record the dG/dtheta that the scan and nsd_interval receive, with the
    # scan's points
    import nsdq.polar as polar

    calls = {}
    scan, nsd = polar._stationary_points, polar.nsd_interval

    def recorded_scan(dG, lo, hi):
        found = scan(dG, lo, hi)
        calls["scan"], calls["points"] = dG, found[0]
        return found

    def recorded_nsd(*args, dg, **kwargs):
        calls["nsd"] = dg
        return nsd(*args, dg=dg, **kwargs)

    monkeypatch.setattr(polar, "_stationary_points", recorded_scan)
    monkeypatch.setattr(polar, "nsd_interval", recorded_nsd)
    region = scenes.default_region("ellipse")
    value = integrate_star_shaped(scene, region, OuterPlan.for_region(region, trap=40), 8)
    return value, calls


def test_scan_and_paths_share_the_scene_derivative(monkeypatch):
    # the scan and the descent paths read the one dG/dtheta of the scene
    sc = _asymmetric_scene(100.0)
    _, calls = _recorded_boundary_calls(monkeypatch, sc)
    assert calls["scan"] is calls["nsd"] is sc.d_boundary_phase
    assert len(calls["points"]) == 4


def test_asymmetric_boundary_against_trapezoid_reference():
    # at omega = 1e4 the split points must sit on the stationary points of G:
    # a difference-stencil scan read 3.3e-8 here
    omega = 1e4
    sc = _asymmetric_scene(omega)
    region = scenes.default_region("ellipse")
    val = integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=40), 8)
    ref = _asymmetric_reference(omega)
    assert abs(val - ref) <= 1e-8 * abs(ref)


def _ellipse_100():
    sc = scenes.ellipse_scene(100.0)
    region = scenes.default_region("ellipse")
    return sc, lambda: integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=40), 8)


@pytest.mark.parametrize("field", ["oscillator", "d_boundary_phase"])
def test_complex_dtype_boundary_phase_is_read_by_its_real_part(field):
    want = _ellipse_100()[1]()
    sc, run = _ellipse_100()
    f = getattr(sc, field)
    setattr(sc, field, lambda *args: np.asarray(f(*args), dtype=complex))
    assert run() == want


# G and dG/dtheta are each checked on the outer grid: where only G is made
# complex the scene's dG stays real, so the scan alone would not see it
@pytest.mark.parametrize("non_real", [
    {"oscillator": lambda z, th: 1e-3j * z * np.sin(th)},
    {"d_boundary_phase": lambda th: 1e-3j * np.sin(th)},
    {"oscillator": lambda z, th: 1e-3j * z * np.sin(th),
     "d_oscillator": lambda z, th: 1e-3j * np.sin(th) + 0.0 * z}],
    ids=["oscillator", "d_boundary_phase", "oscillator-with-real-dG"])
def test_boundary_phase_not_real_on_real_angles_is_rejected(non_real):
    sc, run = _ellipse_100()
    for field, extra in non_real.items():
        f = getattr(sc, field)
        setattr(sc, field, lambda *args, f=f, extra=extra: f(*args) + extra(*args))
    with pytest.raises(ValueError, match="scene 'ellipse': the boundary phase is not real on real angles"):
        run()


@pytest.mark.parametrize("build", [scenes.ellipse_scene, _asymmetric_scene], ids=["ellipse", "asymmetric"])
def test_varying_boundary_phase_without_derivative_is_rejected(build):
    # the descent in the angle needs the scene's analytic dG/dtheta: no
    # difference stencil stands in for it
    sc = build(200.0)
    sc.d_boundary_phase = None
    region = scenes.default_region("ellipse")
    with pytest.raises(ValueError, match=re.escape(f"scene {sc.name!r}: the boundary phase G varies, "
                                                   "and the scene has no dG/dtheta (d_boundary_phase)")):
        integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=40), 8)


def _ellipse_reference(omega, nodes):
    # periodic trapezoid in theta of the closed-form radial integral
    # int_0^R r exp(i w r) dr, R = 1/sqrt(1 + sin^2 theta)
    th = np.arange(nodes) * (2.0 * math.pi / nodes)
    R = 1.0 / np.sqrt(1.0 + np.sin(th) ** 2)
    radial = ((1.0 - 1j * omega * R) * np.exp(1j * omega * R) - 1.0) / omega**2
    return complex(np.sum(radial) * (2.0 * math.pi / nodes))


@pytest.mark.parametrize("omega", [100.0, 316.0])
def test_ellipse_star_shaped_against_trapezoid_reference(omega):
    region = scenes.default_region("ellipse")
    plan = OuterPlan.for_region(region, trap=40)
    val = integrate_star_shaped(scenes.ellipse_scene(omega), region, plan, 8)
    ref = _ellipse_reference(omega, 8192)
    assert abs(_ellipse_reference(omega, 16384) - ref) <= 1e-14 * abs(ref)
    assert abs(val - ref) <= 1e-11 * abs(ref)


def _angular_speed(th):
    # s(theta) = sqrt(cos^2 theta + 2 sin^2 theta), analytic near the real axis
    th = np.asarray(th)
    return np.sqrt(np.cos(th) ** 2 + 2.0 * np.sin(th) ** 2)


def _disk_with_angular_phase(omega):
    # unit disk (constant R), unit amplitude, g = z s(theta) with traced
    # paths: the boundary phase G = s(theta) oscillates although R does not
    return RadialScene(
        n=2, omega=omega,
        amplitude=lambda z, th: np.ones(np.broadcast_shapes(np.shape(z), np.shape(th)), dtype=complex),
        oscillator=lambda z, th: z * _angular_speed(th),
        d_oscillator=lambda z, th: _angular_speed(th) + 0.0 * z,
        alpha_coeff=_angular_speed,
        boundary_radius=lambda th: 1.0 + 0.0 * np.asarray(th),
        d_boundary_phase=lambda th: np.sin(th) * np.cos(th) / _angular_speed(th),
        name="disk-angular-phase",
    )


def _angular_phase_reference(omega, nodes):
    # periodic trapezoid in theta of int_0^1 r exp(i w s r) dr in closed form
    th = np.arange(nodes) * (2.0 * math.pi / nodes)
    k = omega * _angular_speed(th)
    return complex(np.sum(((1.0 - 1j * k) * np.exp(1j * k) - 1.0) / k**2) * (2.0 * math.pi / nodes))


@pytest.mark.parametrize("omega", [50.0, 100.0, 300.0])
def test_boundary_rule_follows_the_boundary_phase(omega):
    # R is constant but G is not: the plain outer rule on exp(i w G) would be
    # off by O(1) at omega = 100; univariate descent in the angle is not
    region = scenes.default_region("disk")
    plan = OuterPlan.for_region(region, trap=40)
    val = integrate_star_shaped(_disk_with_angular_phase(omega), region, plan, 8)
    ref = _angular_phase_reference(omega, 8192)
    assert abs(_angular_phase_reference(omega, 16384) - ref) <= 1e-14 * abs(ref)
    assert abs(val - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("integrate, scene, region, counts", [
    (integrate_unbounded, scenes.ellipsoid_scene(100.0), AngularRegion.full(3), (10,)),
    (integrate_unbounded, scenes.ellipsoid_scene(100.0), AngularRegion.full(2), (10,)),
    (integrate_star_shaped, scenes.disk_scene(100.0), AngularRegion.full(3), (10, 10)),
    (integrate_unbounded, scenes.quarter_plane_scene(100.0),
     AngularRegion.box(2, (0.0, 0.5 * math.pi)), (10, 12)),
], ids=["plan-short", "region-2d-scene-3d", "region-3d-scene-2d", "plan-long"])
def test_scene_region_and_plan_must_agree(integrate, scene, region, counts):
    pattern = (rf"scene.n = {scene.n}, region.n = {region.n}, "
               rf"len\(plan.counts\) = {len(counts)}")
    with pytest.raises(ValueError, match=pattern):
        integrate(scene, region, OuterPlan(counts), 4)


@pytest.mark.parametrize("omega", [1.0, 2.0, 5.0])
def test_ellipse_below_asymptotic_regime_names_failing_endpoints(omega):
    # the boundary paths run into the singularities of R before exp(-w p)
    # has decayed: a typed error naming omega and the endpoints, never a value
    region = scenes.default_region("ellipse")
    plan = OuterPlan.for_region(region, trap=40)
    with pytest.raises(PathError) as err:
        integrate_star_shaped(scenes.ellipse_scene(omega), region, plan, 8)
    message = str(err.value)
    assert f"omega={omega}" in message
    assert re.search(r"\(x=[0-9.e+-]+, alpha=2, side=[+-]1\)", message)


def _star_case(name):
    region = scenes.default_region(name)
    plan = OuterPlan.for_region(region, cc=12, trap=16)
    return lambda: integrate_star_shaped(scenes.scene_registry()[name](30.0), region, plan, 4), region


def _count_calls(monkeypatch, name, module=None):
    from nsdq import polar

    module = module or polar
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# ``rule`` is the boundary rule the scene's boundary phase calls for:
# ``plain`` for a constant G, ``nsd`` (univariate descent in the angle) for
# a varying one
@pytest.mark.parametrize("name, rule", [("ellipse", "nsd"), ("disk", "plain")])
def test_star_shaped_builds_each_outer_grid_once(name, rule, monkeypatch):
    built = _count_calls(monkeypatch, "_outer_grid")
    plain = _count_calls(monkeypatch, "_boundary_grid")
    nsd = _count_calls(monkeypatch, "_oscillatory_boundary_term")
    run, region = _star_case(name)
    run()
    assert [args[0] for args in built] == [region]
    assert (len(plain), len(nsd)) == ((1, 0) if rule == "plain" else (0, 1))


def test_plain_boundary_rule_reads_the_boundary_phase_once():
    # G = g(R(Theta), Theta) chooses the rule and feeds the plain boundary
    # term: one call of R and one of g on the 16 outer angles
    region = scenes.default_region("disk")
    sc = scenes.disk_scene(30.0)
    calls = {"boundary_radius": [], "oscillator": []}
    for field, seen in calls.items():
        fn = getattr(sc, field)
        setattr(sc, field, lambda *args, fn=fn, seen=seen: seen.append(args) or fn(*args))
    plan = OuterPlan.for_region(region, trap=16)
    integrate_star_shaped(sc, region, plan, 4)
    th = _outer_grid(region, plan)[0][0]
    assert [np.array_equal(args[0], th) for args in calls["boundary_radius"]] == [True]
    assert [np.array_equal(args[-1], th) for args in calls["oscillator"]] == [True]


def test_ellipse_boundary_traces_all_endpoints_together(monkeypatch):
    # four intervals between the stationary points of R, eight endpoints:
    # one Newton call solves all m radial node rows of the eight paths
    from nsdq import univariate

    newton = _count_calls(monkeypatch, "newton_descent", univariate)
    region = scenes.default_region("ellipse")
    m = 8
    integrate_star_shaped(scenes.ellipse_scene(100.0), region, OuterPlan.for_region(region, trap=40), m)
    assert [np.shape(args[3]) for args in newton] == [(m, 8)]


@pytest.mark.parametrize("name", ["ellipse", "disk"], ids=["ellipse-nsd", "disk-plain"])
def test_star_shaped_returns_python_complex(name):
    run, _ = _star_case(name)
    assert type(run()) is complex


@pytest.mark.parametrize("omega", [10.0, 57.3, 300.0])
def test_duct_star_shaped_raises_typed_error(omega):
    # the duct's boundary radius has a kink at atan(b/a), so its boundary
    # term cannot be deformed in the angle; the corner decomposition handles it
    region = scenes.default_region("duct")
    plan = OuterPlan.for_region(region, cc=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathError, match="analytic"):
            integrate_star_shaped(scenes.duct_scene(omega), region, plan, 6)


def _disk_saddle_scene(omega):
    # disk of radius 2, unit amplitude, g = z - 0.4 z^2: g' vanishes at
    # rho = 1.25 on every ray, inside the domain.  Without the check the
    # integrator read -0.388 + 0.160i at omega = 50 (trap 16, m = 8), where
    # brute_force_polar gives 1.419 - 2.375i
    return RadialScene(
        n=2, omega=omega,
        amplitude=lambda z, th: np.ones(np.broadcast_shapes(np.shape(z), np.shape(th)), dtype=complex),
        oscillator=lambda z, th: z - 0.4 * z * z + 0.0 * th,
        d_oscillator=lambda z, th: 1.0 - 0.8 * z + 0.0 * th,
        boundary_radius=lambda th: 2.0 + 0.0 * np.asarray(th),
        name="disk-saddle",
    )


@pytest.mark.parametrize("omega", [50.0, 100.0, 200.0])
def test_interior_stationary_point_raises(omega):
    region = scenes.default_region("disk")
    plan = OuterPlan.for_region(region, trap=16)
    with pytest.raises(PathError, match=r"scene 'disk-saddle': the phase is stationary inside the "
                                        r"domain on the ray at angles \(0\), between "
                                        r"rho = 1\.21212 and 1\.27273"):
        integrate_star_shaped(_disk_saddle_scene(omega), region, plan, 8)


def test_interior_stationary_point_on_a_later_ray_with_scalar_radius():
    # R is a Python float and g' vanishes inside only where sin^2 theta is
    # large; the error names the smallest bracket in rho, on theta = pi / 2
    sc = dataclasses.replace(_disk_saddle_scene(50.0), boundary_radius=lambda th: 2.0,
                             d_oscillator=lambda z, th: 1.0 - 0.8 * z * np.sin(th) ** 2)
    region = scenes.default_region("disk")
    with pytest.raises(PathError, match=r"at angles \(1\.5708\), between rho = 1\.21212 and 1\.27273"):
        integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=16), 8)


def test_offset_special_point_stationary_phase_raises():
    # around x0 = (0.1, -0.2) the rays that head back past the phase's
    # minimum at the origin have g' < 0 near x0 and g' > 0 further out.
    # Without the check the integrator read -0.00852 + 0.00223i at
    # omega = 40 (trap 40, m = 8); brute_force_polar gives -0.00912 - 0.00458i
    region = scenes.default_region("ellipse")
    with pytest.raises(PathError, match="scene 'normalized': the phase is stationary inside"):
        integrate_star_shaped(_offset_ellipse_scene(40.0), region,
                              OuterPlan.for_region(region, trap=40), 8)


def test_interior_stationary_point_scan_is_one_call():
    # the ellipse's paths are closed forms and its dG/dtheta is its own, so
    # every d_oscillator call is the scan's: one call on 32 interior radii
    # of each of the 16 rays, each strictly inside its ray's R(theta)
    sc = scenes.ellipse_scene(30.0)
    radii = []
    dg = sc.d_oscillator
    sc.d_oscillator = lambda z, th: radii.append(z) or dg(z, th)
    region = scenes.default_region("ellipse")
    integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=16), 4)
    assert [np.shape(z) for z in radii] == [(32, 16)]
    R = sc.boundary_radius(2.0 * np.pi * np.arange(16) / 16)
    assert np.all(0.0 < radii[0]) and np.all(radii[0] < R)


def test_scalar_radial_derivative_is_broadcast_for_the_scan():
    # a d_oscillator that returns a scalar is broadcast to the scan's 32
    # radii on every ray; the disk's g' = 1 that way gives the same bits as
    # its own array-valued g'
    region = scenes.default_region("disk")
    plan = OuterPlan.for_region(region, trap=16)
    sc = dataclasses.replace(scenes.disk_scene(10.0), d_oscillator=lambda z, th: 1.0)
    want = integrate_star_shaped(scenes.disk_scene(10.0), region, plan, 4)
    assert repr(integrate_star_shaped(sc, region, plan, 4)) == repr(want)


def _offset_ellipse_scene(omega):
    # non-unit amplitude, traced paths and a varying radius around x0 != 0
    g = lambda x: np.sqrt(x[0] ** 2 + 2.0 * x[1] ** 2)
    return normalize_scene(np.array([0.1, -0.2]), lambda x: np.exp(-x[0]) * (1.0 + x[1] ** 2), g, omega,
                           grad_g=lambda x: np.stack([x[0], 2.0 * x[1]]) / g(x),
                           boundary_radius=lambda th: 0.5 / np.sqrt(1.0 + 0.3 * np.sin(th) ** 2))


def _ellipse_traced(omega):
    sc = scenes.ellipse_scene(omega)
    sc.boundary_path = None
    return sc


@pytest.mark.parametrize("build", [scenes.ellipse_scene, _ellipse_traced, scenes.disk_scene,
                                   _offset_ellipse_scene],
                         ids=["ellipse", "ellipse-traced", "disk", "normalized"])
def test_boundary_amplitude_matches_boundary_grid(build):
    # the nsd boundary amplitude times its phase factor is the plain
    # boundary term at real angles: both come from the same radial sum
    sc = build(40.0)
    amp, G = _boundary_amplitude(sc, 8), _boundary_phase(sc)
    for th in np.linspace(0.05, 1.5, 7):
        got = complex(amp(th) * np.exp(1j * sc.omega * complex(G(th))))
        want = complex(_boundary_grid(sc, (th,), 8, G(th)))
        assert abs(got - want) <= 1e-14 * abs(want)


def duct_f_polar(z, th):
    return z * np.sin(th) * np.cos(z * np.cos(th))


def test_corner_contributions_zero_amplitude():
    assert rectangle_corner_contributions(lambda z, th: 0.0 * z, 1.0, 2.0, 100.0, 6) == 0.0


def test_corner_contributions_swap_symmetry():
    # swapping the rectangle sides while reflecting the amplitude across the
    # diagonal leaves the boundary term unchanged
    a, b, omega = 1.0, 2.0, 75.0
    direct = rectangle_corner_contributions(duct_f_polar, a, b, omega, 8)
    reflected = rectangle_corner_contributions(
        lambda z, th: duct_f_polar(z, 0.5 * math.pi - th), b, a, omega, 8
    )
    assert abs(direct - reflected) <= 1e-12 * max(1.0, abs(direct))


def test_duct_corner_mode_full_value():
    from nsdq.oracle import acoustics_reference

    a, b, omega = 1.0, 2.0, 1000.0
    sc = scenes.duct_scene(omega, a, b)
    region = scenes.default_region("duct")
    plan = OuterPlan.for_region(region, cc=30)
    val = integrate_unbounded(sc, region, plan, 8) - rectangle_corner_contributions(
        duct_f_polar, a, b, omega, 8
    )
    ref = acoustics_reference(omega, a, b)
    assert abs(val - ref) <= 1e-10 * abs(ref)


def test_direct_origin_term_value_and_stagnation():
    one = lambda x, y: 1.0 + 0.0 * x
    rels = []
    for omega in (10.0, 100.0, 1000.0, 10000.0):
        F00 = rectangle_direct_terms(one, 1.0, 2.0, omega, 4)[(0.0, 0.0)]
        exact = -math.pi / (2 * omega**2)
        rels.append(abs(F00 - exact) / abs(exact))
    # after the scalings the summed integrand is frequency independent, so
    # the relative error is a constant of the rule
    assert rels[0] > 1e-4
    for r in rels[1:]:
        assert abs(r - rels[0]) <= 1e-9 * rels[0]


def test_direct_full_rectangle_converges_when_fixed():
    from nsdq.oracle import acoustics_reference

    f = lambda x, y: y * np.cos(x) / np.sqrt(x * x + y * y)
    omega = 1000.0
    ref = acoustics_reference(omega)

    def four_term_sum(**kw):
        t = rectangle_direct_terms(f, 1.0, 2.0, omega, 8, **kw)
        return t[(0.0, 0.0)] - t[(1.0, 0.0)] - t[(0.0, 2.0)] + t[(1.0, 2.0)]

    plain = four_term_sum()
    fixed = four_term_sum(outer_resonance_fix=True)
    assert abs(plain - ref) / abs(ref) > 1e-2  # untreated resonance corner stalls
    assert abs(fixed - ref) / abs(ref) < 1e-12


def test_direct_rejects_bad_rectangle():
    with pytest.raises(ValueError):
        rectangle_direct_terms(lambda x, y: 1.0, -1.0, 2.0, 10.0, 4)
    with pytest.raises(ValueError):
        rectangle_corner_contributions(duct_f_polar, 1.0, 0.0, 10.0, 4)


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (-1.0, 2.0), (math.nan, 2.0), (math.inf, 2.0),
                                  (1.0, math.inf)],
                         ids=["a-zero", "a-negative", "a-nan", "a-inf", "b-inf"])
def test_rectangle_sides_must_be_finite_and_positive(a, b):
    # an infinite side used to pass the check, warn from numpy and end in
    # "non-finite integrand (inverse sec/csc branch failure)"
    sides = re.escape(f" needs finite rectangle sides 0 < a, b < inf, got a={a}, b={b}")
    with pytest.raises(ValueError, match="rectangle_corner_contributions" + sides):
        rectangle_corner_contributions(duct_f_polar, a, b, 10.0, 8)
    with pytest.raises(ValueError, match="rectangle_direct_terms" + sides):
        rectangle_direct_terms(lambda x, y: x, a, b, 10.0, 8)


def test_rectangle_omega_whose_square_overflows_is_rejected():
    # the rectangle terms are O(omega^-2): omega**2 overflows above about
    # 1.34e154, where the corner sum used to raise a bare OverflowError
    omega = re.escape(" needs a finite omega > 0 whose square is finite, got omega=1.35e+154")
    with pytest.raises(ValueError, match="rectangle_corner_contributions" + omega):
        rectangle_corner_contributions(duct_f_polar, 1.0, 2.0, 1.35e154, 8)
    with pytest.raises(ValueError, match="rectangle_direct_terms" + omega):
        rectangle_direct_terms(lambda x, y: x, 1.0, 2.0, 1.35e154, 8)
    # a Python int too large for a float is the same error, not a bare OverflowError
    huge = re.escape(" needs a finite omega > 0 whose square is finite, got omega=" + str(10**400))
    with pytest.raises(ValueError, match="rectangle_corner_contributions" + huge):
        rectangle_corner_contributions(duct_f_polar, 1.0, 2.0, 10**400, 8)
    with pytest.raises(ValueError, match="rectangle_direct_terms" + huge):
        rectangle_direct_terms(lambda x, y: x, 1.0, 2.0, 10**400, 8)
    # the largest omega whose square is finite is accepted, the next float is not
    largest = math.sqrt(sys.float_info.max)
    assert math.isfinite(largest * largest)
    _check_rectangle("check", 1.0, 2.0, largest)
    with pytest.raises(ValueError, match="check needs a finite omega"):
        _check_rectangle("check", 1.0, 2.0, math.nextafter(largest, math.inf))


@pytest.mark.parametrize("m, says", [
    (40, " needs 1 <= m <= 32 (the Hermite rule takes 2 * m points), got m=40"),
    (0, " needs 1 <= m <= 32 (the Hermite rule takes 2 * m points), got m=0"),
    (8.0, " needs an integer m, got m=8.0"),
], ids=["above-32", "zero", "float"])
def test_rectangle_sizes_name_themselves(m, says):
    # m = 40 used to fail inside gauss_exp_power on "m=80", a size no caller
    # passed: the bound names the Hermite rule of 2m points as its reason
    with pytest.raises(ValueError, match="^rectangle_corner_contributions" + re.escape(says) + "$"):
        rectangle_corner_contributions(duct_f_polar, 1.0, 2.0, 10.0, m)
    with pytest.raises(ValueError, match="^rectangle_direct_terms" + re.escape(says) + "$"):
        rectangle_direct_terms(lambda x, y: x, 1.0, 2.0, 10.0, m)


def test_non_finite_rectangle_integrand_names_omega():
    nan = lambda *args: np.full(np.broadcast(*args).shape, np.nan)
    says = " non-finite integrand at omega=10.0 (it overflowed, or the amplitude is not finite)"
    with pytest.raises(ValueError, match=re.escape("corner (1,1):" + says)):
        rectangle_corner_contributions(nan, 1.0, 2.0, 10.0, 8)
    with pytest.raises(ValueError, match=re.escape("corner (0.0,0.0):" + says)):
        rectangle_direct_terms(nan, 1.0, 2.0, 10.0, 8)


def test_tiny_omega_corner_failure_is_its_error_not_a_warning():
    # at omega = 1e-20 the corner paths divide 0 by 0: numpy's warnings are
    # muted, so the corner check's ValueError is what the caller sees, also
    # under warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("corner (1,1): non-finite integrand at omega=1e-20")):
            rectangle_corner_contributions(duct_f_polar, 1.0, 2.0, 1e-20, 8)


@pytest.mark.parametrize("omega", [1e-300, 1e-200])
def test_star_shaped_non_finite_sum_is_an_error(omega):
    # the disk's central and boundary parts overflow at a tiny omega; the
    # difference was nan+nanj, returned without a word
    region = scenes.default_region("disk")
    says = f"scene 'disk': the outer sum is not finite at omega={omega}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(says)):
            integrate_star_shaped(scenes.disk_scene(omega), region, OuterPlan.for_region(region, trap=40), 8)


@pytest.mark.parametrize("m", [4, 8])
def test_star_shaped_cancelled_difference_is_an_error(m):
    # the disk's central and boundary parts each grow like w^-2, and their
    # difference lost its digits: at omega = 1e-8 it read -4 pi (m = 4) and
    # 20 pi (m = 8), for a value near pi.  Below 1e-7 of the central sum
    # the total is an error that names the ratio; at omega = 1e-3 it stands
    region = scenes.default_region("disk")
    plan = OuterPlan.for_region(region)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega in (3e-4, 1e-4, 1e-8):
            says = f"scene 'disk': the central and boundary parts cancel at omega={omega}, |total|/|central| = "
            with pytest.raises(ValueError, match=re.escape(says)):
                integrate_star_shaped(scenes.disk_scene(omega), region, plan, m)
        got = integrate_star_shaped(scenes.disk_scene(1e-3), region, plan, m)
    want = 2.0 * math.pi * sum((1e-3j) ** k / (math.factorial(k) * (k + 2)) for k in range(10))
    assert abs(got - want) / abs(want) <= 3e-9, abs(got - want) / abs(want)


def test_integrator_linearity():
    omega = 40.0
    region = scenes.default_region("duct")
    plan = OuterPlan.for_region(region, cc=20)

    def build(f):
        sc = scenes.duct_scene(omega)
        sc.amplitude = f
        return sc

    f1 = lambda z, th: np.sin(th) * np.cos(z * np.cos(th))
    f2 = lambda z, th: np.cos(th) ** 2 + 0.0 * z
    alpha, beta = 2.0 - 1.0j, 0.25 + 3.0j
    combo = lambda z, th: alpha * f1(z, th) + beta * f2(z, th)
    lhs = integrate_unbounded(build(combo), region, plan, 5)
    rhs = alpha * integrate_unbounded(build(f1), region, plan, 5) \
        + beta * integrate_unbounded(build(f2), region, plan, 5)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_normalize_scene_identity():
    g = lambda x: x[0] + 2.0 * x[1]
    f = lambda x: np.exp(-(x[0] ** 2))
    sc = normalize_scene(np.zeros(2), f, g, 10.0, grad_g=lambda x: (1.0, 2.0))
    assert abs(complex(sc.oscillator(0.0, 0.3))) < 1e-14
    # g~(r, th) = r (cos th + 2 sin th) along real rays, and g(x0) = 0 leaves
    # the amplitude f(r cos th, r sin th) as it is
    th = 0.4
    r = 0.37
    expect = r * (math.cos(th) + 2 * math.sin(th))
    assert abs(complex(sc.oscillator(r, th)) - expect) < 1e-12
    assert abs(complex(sc.amplitude(r, th)) - math.exp(-((r * math.cos(th)) ** 2))) < 1e-15


@pytest.mark.parametrize("omega", [10.0, 100.0])
def test_normalize_scene_quadratic_phase(omega):
    # alpha = 2: the seed coefficient comes from the second central
    # difference; on the quarter plane int exp(i w (x^2 + y^2)) = i pi / (4 w)
    sc = normalize_scene(np.zeros(2), lambda x: 1.0 + 0.0 * x[0], lambda x: x[0] ** 2 + x[1] ** 2,
                         omega, grad_g=lambda x: 2.0 * x, alpha=2)
    region = AngularRegion.box(2, (0.0, 0.5 * math.pi))
    got = integrate_unbounded(sc, region, OuterPlan.for_region(region, cc=8), 8)
    exact = 1j * math.pi / (4.0 * omega)
    assert abs(got - exact) <= 2e-12 * abs(exact)


def test_normalize_scene_distance_phase():
    x0 = np.array([0.5, -0.2])
    g = lambda x: np.sqrt((x[0] - 0.5) ** 2 + (x[1] + 0.2) ** 2) + 1.0
    f = lambda x: 1.0 + 0.0 * x[0]
    sc = normalize_scene(x0, f, g, 7.0, grad_g=lambda x: np.stack([x[0] - 0.5, x[1] + 0.2]) / (g(x) - 1.0))
    # the constant exp(i w g(x0)) rides in the amplitude
    for th in (0.0, 1.1, 4.5):
        for r in (0.1, 0.8):
            assert abs(complex(sc.oscillator(r, th)) - r) < 1e-10
            assert abs(complex(sc.amplitude(r, th)) - cmath.exp(7.0j)) < 1e-14


@pytest.mark.parametrize("omega", [10.0, 50.0])
def test_normalize_scene_constant_phase_reaches_the_value(omega):
    # g = x + 2y + 0.7 over the quarter plane: the integral is
    # exp(0.7 i w) (i / w) (i / (2 w)); a dropped exp(0.7 i w) is off by O(1)
    sc = normalize_scene(np.zeros(2), lambda x: 1.0 + 0.0 * x[0],
                         lambda x: x[0] + 2.0 * x[1] + 0.7, omega, grad_g=lambda x: (1.0, 2.0))
    region = AngularRegion.box(2, (0.0, 0.5 * math.pi))
    got = integrate_unbounded(sc, region, OuterPlan.for_region(region, cc=20), 8)
    exact = cmath.exp(0.7j * omega) * (-1.0 / (2.0 * omega**2))
    assert abs(got - exact) <= 1e-10


def test_normalize_scene_interior_point_full_circle():
    # an interior observation point sees the rectangle boundary in every
    # direction, so the full-period trapezoid plan applies
    a, b = 1.0, 2.0
    x0 = np.array([0.3, 0.4])

    def radius(th):
        th = np.asarray(th, dtype=float)
        with np.errstate(divide="ignore"):
            candidates = np.stack([
                np.where(np.cos(th) > 0, (a - x0[0]) / np.cos(th), np.inf),
                np.where(np.cos(th) < 0, -x0[0] / np.cos(th), np.inf),
                np.where(np.sin(th) > 0, (b - x0[1]) / np.sin(th), np.inf),
                np.where(np.sin(th) < 0, -x0[1] / np.sin(th), np.inf),
            ])
        return candidates.min(axis=0)

    distance = lambda x: np.sqrt((x[0] - x0[0]) ** 2 + (x[1] - x0[1]) ** 2)
    sc = normalize_scene(
        x0,
        lambda x: 1.0 + 0.0 * x[0],
        distance,
        20.0,
        grad_g=lambda x: np.stack([x[0] - x0[0], x[1] - x0[1]]) / distance(x),
        boundary_radius=radius,
    )
    ths = np.linspace(0.0, 2 * math.pi, 33)
    R = radius(ths)
    assert np.all(np.isfinite(R)) and np.all(R > 0)
    region = AngularRegion.full(2)
    assert region.axis_periodic(0)
    plan = OuterPlan.for_region(region, trap=16)
    mesh, w = _outer_grid(region, plan)
    trap = trapezoid_periodic(16, 2 * math.pi)
    np.testing.assert_array_equal(mesh[0], trap.nodes)
    np.testing.assert_array_equal(w, trap.weights)
    quarter = AngularRegion.box(2, (0.0, 0.5 * math.pi))
    mesh, w = _outer_grid(quarter, OuterPlan.for_region(quarter, cc=16))
    cc = clenshaw_curtis(16, 0.0, 0.5 * math.pi)
    np.testing.assert_array_equal(mesh[0], cc.nodes)
    np.testing.assert_array_equal(w, cc.weights)


def test_region_and_plan_validation():
    with pytest.raises(ValueError, match="outside"):
        AngularRegion.box(2, (0.0, 7.0))
    with pytest.raises(ValueError, match="arity"):
        AngularRegion(3, ((0.0, 1.0),))
    with pytest.raises(ValueError):
        AngularRegion.box(2, (0.0, 1.0), (0.0, 1.0))
    for bad in (1, 2.5, math.nan):
        with pytest.raises(ValueError, match="counts"):
            OuterPlan((bad,))


def test_plan_does_not_depend_on_box_order():
    # phi2 takes trap nodes where it is a full period and cc nodes elsewhere
    a = ((0.0, 0.5 * math.pi), (0.0, 2 * math.pi))
    b = ((0.5 * math.pi, math.pi), (0.0, math.pi))
    assert OuterPlan.for_region(AngularRegion(3, b), cc=20, trap=40).counts == (20, 20)
    assert OuterPlan.for_region(AngularRegion(3, a), cc=20, trap=40).counts == (20, 40)


@pytest.mark.parametrize("c", [0.0, 1.0, 1e4])
def test_normalize_scene_quarter_plane_closed_form(c):
    # f = exp(-(x - c)), g = x + 2y over the quarter plane around x0 = (c, 0):
    # exp(i w c) int_0^inf exp(-(1 - i w) x) dx * int_0^inf exp(2 i w y) dy
    # = exp(i w c) i / (2 w (1 - i w)).  A difference stencil for dg/dz read
    # 1.4e-13 and 1.4e-8 at c = 1 and 1e4: its round-off grows like |g(x0)|
    omega = 50.0
    grad_g = lambda x: np.stack(np.broadcast_arrays(np.ones_like(x[0]), 2.0 * np.ones_like(x[1])))
    sc = normalize_scene(np.array([c, 0.0]), lambda x: np.exp(-(x[0] - c)), lambda x: x[0] + 2.0 * x[1],
                         omega, grad_g=grad_g)
    region = AngularRegion.box(2, (0.0, 0.5 * math.pi))
    plan = OuterPlan.for_region(region, cc=30)
    value = integrate_unbounded(sc, region, plan, 8)
    exact = cmath.exp(1j * omega * c) * 1j / (2.0 * omega * (1.0 - 1j * omega))
    assert abs(value - exact) <= 1e-14 * abs(exact)
    # a single direction agrees with the same direction inside a grid
    q = complex(_central_grid(sc, (0.7,), np.array([8]))[0])
    grid = _central_grid(sc, (np.array([0.7, 1.1]),), np.array([8]))[..., 0]
    assert abs(q - grid[0]) <= 1e-14 * abs(q)


# --- the shared outer grid and the streamed descent sum -------------------------


def _direct_grid(name):
    # each plan's grid built here from its rules: 'ij' mesh of the nodes
    # (the trapezoid's shifted by the interval's start), weights times the
    # surface factor sin(phi1) in three dimensions
    if name == "ellipsoid":
        cc, trap = clenshaw_curtis(50, 0.0, math.pi), trapezoid_periodic(50, 2 * math.pi)
        mesh = np.meshgrid(cc.nodes, trap.nodes + 0.0, indexing="ij")
        return mesh, np.multiply.outer(cc.weights, trap.weights) * np.sin(mesh[0])
    if name == "duct":
        cc = clenshaw_curtis(30, 0.0, 0.5 * math.pi)
        return [cc.nodes], cc.weights
    trap = trapezoid_periodic(100 if name == "sphere" else 40, 2 * math.pi)
    return [trap.nodes + 0.0], trap.weights


GRID_PLANS = {
    "ellipsoid": (AngularRegion.full(3), {"cc": 50, "trap": 50}),
    "sphere": (AngularRegion.full(2), {"trap": 100}),
    "ellipse": (AngularRegion.full(2), {"trap": 40}),
    "duct": (scenes.default_region("duct"), {"cc": 30}),
}


@pytest.mark.parametrize("name", list(GRID_PLANS))
def test_outer_grid_is_built_once_and_read_only(name):
    region, counts = GRID_PLANS[name]
    mesh, w = _outer_grid(region, OuterPlan.for_region(region, **counts))
    again_mesh, again_w = _outer_grid(region, OuterPlan.for_region(region, **counts))
    assert again_w is w and len(again_mesh) == len(mesh)
    assert all(a is b for a, b in zip(again_mesh, mesh))
    for array in (*mesh, w):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    want_mesh, want_w = _direct_grid(name)
    for got, want in zip((*mesh, w), (*want_mesh, want_w)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _whole_array_descent_sums(scene, angles, rules, samples):
    # the descent sums of several rules from one shared sample on the sorted
    # union of their nodes, each over copies of its own rows, with the
    # Jacobian d(rho^n)/dp built as one array
    p = np.sort(np.concatenate([nodes for nodes, _ in rules]))
    rho, drho = samples(scene, angles, p)
    f = scene.amplitude(rho, *angles)
    rows = [np.searchsorted(p, nodes) for nodes, _ in rules]
    return [_node_sum(w, f[at], scene.n * rho[at] ** (scene.n - 1) * drho[at])
            for at, (_, w) in zip(rows, rules)]


def _central_case(scene, angles, *sizes):
    d = _weight_degree(scene)
    return scene, angles, [_in_p(gauss_exp_power(m, scene.alpha, d), scene.alpha, scene.omega, d)
                           for m in sizes], _origin_samples


def _descent_cases():
    full3, full2 = AngularRegion.full(3), AngularRegion.full(2)
    ellipsoid_mesh, _ = _outer_grid(full3, OuterPlan.for_region(full3, cc=50, trap=50))
    yield "ellipsoid-Qr", _central_case(scenes.ellipsoid_scene(300.0), ellipsoid_mesh, 8)
    sphere_mesh, _ = _outer_grid(full2, OuterPlan.for_region(full2, trap=100))
    for m in (5, 8):
        yield f"sphere-traced-m{m}", _central_case(scenes.sphere_scatter_scene(100.0, math.pi / 5),
                                                   sphere_mesh, m)
    ellipse = scenes.ellipse_scene(100.0)
    ellipse_mesh, _ = _outer_grid(full2, OuterPlan.for_region(full2, trap=40))
    boundary_rule = _in_p(gauss_exp_power(8, 1, 0), 1, ellipse.omega)
    yield "ellipse-boundary-grid", (ellipse, ellipse_mesh, [boundary_rule], _boundary_samples)
    # a scalar angle, so that the node rows of the samples are 0-d, on a
    # traced path whose points and derivatives are fully complex
    for th in (0.7, 2.3, 5.5):
        yield f"scalar-angle-{th}", _central_case(scenes.sphere_scatter_scene(100.0, math.pi / 5),
                                                  (th,), 8)
    # two rules on one traced sample, each summed over its own rows in place
    for name, angles in (("readme-grid", sphere_mesh), ("scalar-angle", (0.7,))):
        yield f"sphere-two-rules-{name}", _central_case(scenes.sphere_scatter_scene(100.0, math.pi / 5),
                                                        angles, 5, 8)


DESCENT_CASES = list(_descent_cases())


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("case", [c for _, c in DESCENT_CASES], ids=[n for n, _ in DESCENT_CASES])
def test_streamed_jacobian_matches_the_whole_array_sum(case):
    got, want = _descent_sums(*case), _whole_array_descent_sums(*case)
    assert len(got) == len(want) == len(case[2])
    assert all(_same_bits(g, w) for g, w in zip(got, want))


def test_central_grid_columns_match_single_size_calls_on_closed_form_paths():
    # the ellipsoid's closed-form paths: each column of a two-size call
    # is the single-size call's grid, bit for bit
    sc = scenes.ellipsoid_scene(300.0)
    region = AngularRegion.full(3)
    mesh, _ = _outer_grid(region, OuterPlan.for_region(region, cc=50, trap=50))
    both = _central_grid(sc, mesh, np.array([8, 11]))
    assert both.shape == np.shape(mesh[0]) + (2,)
    for j, m in enumerate((8, 11)):
        assert _same_bits(both[..., j], _central_grid(sc, mesh, np.array([m]))[..., 0])


@pytest.mark.parametrize("psi", [0.0, 0.314, 0.628, 1.047, 1.3, 1.5])
def test_one_trace_of_both_sphere_rules_matches_two_traces(psi, monkeypatch):
    # w0 and its companion w0c from one _central_grid call, whose paths are
    # one trace on the union of both rules' nodes, against a single-size
    # call per rule, on the README sphere grid (one Newton solve per call)
    # and at psi = 1.3 and 1.5, where some paths fall back to the row-by-row
    # continuation
    from nsdq import univariate

    calls = []
    newton = univariate.newton_descent
    monkeypatch.setattr(univariate, "newton_descent",
                        lambda *args, **kwargs: calls.append(1) or newton(*args, **kwargs))
    region = scenes.default_region("sphere-scatter")
    mesh, w = _outer_grid(region, OuterPlan.for_region(region, trap=100))
    shared_calls = []
    for k in (50.0, 100.0, 150.0, 200.0):
        sc = scenes.sphere_scatter_scene(k, psi)
        calls.clear()
        both = _central_grid(sc, mesh, np.array([5, 8]))
        shared_calls.append(len(calls))
        assert both.shape == (100, 2)
        for j, m in enumerate((5, 8)):
            want = complex(np.sum(w * _central_grid(sc, mesh, np.array([m]))[..., 0]))
            rel = abs(complex(np.sum(w * both[..., j])) - want) / abs(want)
            assert rel <= 1e-15, (k, m, rel)
    if psi <= 1.047:
        assert shared_calls == [1, 1, 1, 1]
    else:
        assert max(shared_calls) > 1


@pytest.mark.parametrize("psi", [0.0, 0.314, 0.628, 1.047, 1.3, 1.5])
def test_mirrored_sphere_sums_match_the_full_trace(psi):
    # the sphere's Q_r is even in theta: tracing theta_0 ... theta_50 and
    # reading Q_r(theta_(100-k)) as Q_r(theta_k) gives w0, w0c and w0h
    # within 1e-15 of the same three sums over the full trace, on the README
    # grid and at psi = 1.3 and 1.5, where some paths take the continuation
    region = scenes.default_region("sphere-scatter")
    (theta,), w = _outer_grid(region, OuterPlan.for_region(region, trap=100))
    for k in (50.0, 100.0, 150.0, 200.0):
        sc = scenes.sphere_scatter_scene(k, psi)
        with np.errstate(all="ignore"):
            q = _central_grid(sc, (theta,), np.array([5, 8]))
        full = [np.sum(w * q[:, 0]), np.sum(w * q[:, 1]), np.sum(2.0 * w[::2] * q[::2, 0])]
        for got, want in zip(_sphere_sums(sc, theta, w, 5), full, strict=True):
            assert abs(got - want) / abs(want) <= 1e-15, (k, got, want)


@pytest.mark.parametrize("build", [scenes.ellipse_scene, _ellipse_traced], ids=["ellipse", "ellipse-traced"])
def test_streamed_boundary_amplitude_at_complex_angles(build):
    # the closure univariate descent evaluates, at complex angles off the
    # real axis: a (node, endpoint) array as nsd_interval passes it, and a scalar
    sc = build(100.0)
    amp = _boundary_amplitude(sc, 8)
    rule = _in_p(gauss_exp_power(8, 1, 0), 1, sc.omega)
    q = np.linspace(0.0, 0.05, 6)[:, None]
    for th in (np.array([0.3, 1.2, 2.0]) + 1j * q, np.complex128(0.8 + 0.02j)):
        want = _whole_array_descent_sums(sc, (th,), [rule], _boundary_samples)[0] / (sc.n * sc.omega)
        assert _same_bits(amp(th), want)


def _ellipsoid_amplitude_formula(z, phi1, phi2):
    zs = z * scenes._ellipsoid_slope(phi1, phi2)
    return 1.0 / (zs * zs * (1.0 + zs))


def test_ellipsoid_amplitude_is_the_formula_and_leaves_z_alone():
    sc = scenes.ellipsoid_scene(300.0)
    region = AngularRegion.full(3)
    mesh, _ = _outer_grid(region, OuterPlan.for_region(region, cc=50, trap=50))
    p = gauss_exp_power(8, 1, 0).nodes / sc.omega
    rho, _ = _origin_samples(sc, mesh, p)
    writable = rho.copy()
    for z, angles in ((rho, mesh), (writable, mesh), (writable[3], mesh), (np.abs(writable[0]), mesh),
                      (0.4 + 0.3j, (0.7, 1.9)), (np.complex128(2.5j), (0.7, 1.9)), (0.6, (0.7, 1.9))):
        before = np.copy(z)
        assert _same_bits(sc.amplitude(z, *angles), _ellipsoid_amplitude_formula(z, *angles))
        assert _same_bits(z, before)


def test_ellipsoid_slope_is_computed_once_per_sweep(monkeypatch):
    # the ellipsoid scenes of every omega share s(phi1, phi2) of the last
    # angle pair: after a 20 x 20 row has taken the slot, a sweep of three
    # omegas on the 50 x 50 grid computes s once, and the values are the
    # parent's bit for bit (tests/test_pinned.py)
    from nsdq import experiments

    experiments.run_ellipsoid([300.0], m=8, outer_cc=20, outer_trap=20)
    calls = []
    slope = scenes._ellipsoid_slope
    monkeypatch.setattr(scenes, "_ellipsoid_slope", lambda *a: calls.append(a) or slope(*a))
    experiments.run_ellipsoid([100.0, 300.0, 1000.0], m=8, outer_cc=50, outer_trap=50)
    assert len(calls) == 1 and np.shape(calls[0][0]) == (50, 50)


def test_ellipsoid_slope_cache_follows_the_argument_values():
    # a cached slope is read-only and is served only for equal angle values:
    # other angles, or the same array changed in place, compute it afresh;
    # the scene of another omega reads the same slot
    sc, other = scenes.ellipsoid_scene(100.0), scenes.ellipsoid_scene(250.0)
    phi1, phi2 = np.linspace(0.1, 3.0, 7), np.linspace(0.0, 6.0, 7)
    first = sc.alpha_coeff(phi1, phi2)
    assert not first.flags.writeable
    assert sc.alpha_coeff(phi1, phi2) is first
    assert other.alpha_coeff(phi1, phi2) is first
    assert _same_bits(other.alpha_coeff(phi2, phi1), scenes._ellipsoid_slope(phi2, phi1))
    assert _same_bits(sc.alpha_coeff(phi2, phi1), scenes._ellipsoid_slope(phi2, phi1))
    phi1[2] = 0.5
    assert _same_bits(sc.origin_path(1.0, phi1, phi2)[1], 1j / scenes._ellipsoid_slope(phi1, phi2))
    phi2[4] = 1.0
    assert _same_bits(other.origin_path(1.0, phi1, phi2)[1], 1j / scenes._ellipsoid_slope(phi1, phi2))
    z = 0.3 + 0.1j
    assert _same_bits(sc.amplitude(z, 0.7, 1.9), _ellipsoid_amplitude_formula(z, 0.7, 1.9))


@pytest.mark.parametrize("grid", ["mesh", "scalar"])
def test_ellipsoid_path_is_the_complex_division_bit_for_bit(grid):
    # the path i (p (1/s)) and its derivative i (1/s) against numpy's
    # 1j * p / s and 1j / s, on the p the integrators pass: (m, 1, 1) against
    # the 50 x 50 outer grid, and (m,) at one direction; one rule and the
    # union of two
    sc = scenes.ellipsoid_scene(300.0)
    region = AngularRegion.full(3)
    mesh, _ = _outer_grid(region, OuterPlan.for_region(region, cc=50, trap=50))
    angles = mesh if grid == "mesh" else (0.7, 1.9)
    s = scenes._ellipsoid_slope(*angles)
    eight = gauss_exp_power(8, 1, 0).nodes / sc.omega
    both = np.sort(np.concatenate([eight, gauss_exp_power(11, 1, 0).nodes / sc.omega]))
    for p in (eight, both):
        p = p.reshape((-1,) + (1,) * np.ndim(s))
        rho, drho = sc.origin_path(p, *angles)
        assert _same_bits(rho, 1j * p / s) and _same_bits(drho, 1j / s)


def test_ellipse_scenes_of_two_omegas_share_one_scan(monkeypatch):
    # R' is one function for the ellipse of every omega, so the second
    # integral reuses the first one's scan: one call on the 600 samples, the
    # same points, each integral its own copy of them
    import nsdq.polar as polar

    dR, shapes = scenes._ellipse_d_radius, []
    monkeypatch.setattr(scenes, "_ellipse_d_radius", lambda th: shapes.append(np.shape(th)) or dR(th))
    scan, found = polar._stationary_points, []
    monkeypatch.setattr(polar, "_stationary_points", lambda *args: found.append(scan(*args)) or found[-1])
    region = scenes.default_region("ellipse")
    plan = OuterPlan.for_region(region, trap=40)
    values = [integrate_star_shaped(scenes.ellipse_scene(omega), region, plan, 8) for omega in (100.0, 300.0)]
    assert shapes.count((600,)) == 1
    assert found[0] == found[1] and found[0][0] is not found[1][0]
    assert [float(x) for x in found[1][0]] == [math.pi / 2, math.pi, 3 * math.pi / 2]
    monkeypatch.undo()
    # against a scan made for each: in the other order the omega = 300
    # integral scans afresh
    assert values[::-1] == [integrate_star_shaped(scenes.ellipse_scene(omega), region, plan, 8)
                            for omega in (300.0, 100.0)]


def test_planar_ops_between_ellipses_keep_the_scan(monkeypatch):
    # the benchmark's planar sweep interleaves ellipse, disk and example1
    # integrals; the disk's boundary phase is constant and example1 is
    # unbounded, so neither scans and the ellipse is scanned once in all
    from nsdq import experiments

    dR, shapes = scenes._ellipse_d_radius, []
    monkeypatch.setattr(scenes, "_ellipse_d_radius", lambda th: shapes.append(np.shape(th)) or dR(th))
    ellipse, disk = (scenes.default_region(name) for name in ("ellipse", "disk"))
    e_plan, d_plan = (OuterPlan.for_region(region, trap=40) for region in (ellipse, disk))
    for _ in range(2):
        integrate_star_shaped(scenes.ellipse_scene(100.0), ellipse, e_plan, 8)
        integrate_star_shaped(scenes.disk_scene(100.0), disk, d_plan, 8)
        experiments.run_example1([10.0])
        integrate_star_shaped(scenes.ellipse_scene(300.0), ellipse, e_plan, 8)
    assert shapes.count((600,)) == 1


def test_stationary_scan_is_kept_only_for_the_same_derivative_and_interval():
    shapes = []
    dG = lambda th: shapes.append(np.shape(th)) or np.sin(2.0 * th - 0.3)
    first = _stationary_points(dG, 0.0, 2 * math.pi)
    scalar_calls = len(shapes) - 1
    again = _stationary_points(dG, 0.0, 2 * math.pi)
    assert again == first and again[0] is not first[0] and len(shapes) == scalar_calls + 1
    again[0].append(5.0)  # a copy: changing it leaves the kept points alone
    assert _stationary_points(dG, 0.0, 2 * math.pi) == first
    assert len(shapes) == scalar_calls + 1
    # another interval, then a new callable of the same function, each rescan
    assert _stationary_points(dG, 0.0, 3.0)[0] == first[0][:2]
    assert _stationary_points(lambda th: dG(th), 0.0, 3.0)[0] == first[0][:2]
    assert _stationary_points(dG, 0.0, 2 * math.pi) == first
    assert shapes.count((600,)) == 4
