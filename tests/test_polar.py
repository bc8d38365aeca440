import cmath
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsdq import scenes
from nsdq.oracle import adaptive_quad_1d, brute_force_polar
from nsdq.paths import PathError, RadialScene, complex_derivative
from nsdq.polar import (
    AngularRegion,
    OuterPlan,
    _boundary_amplitude,
    _boundary_grid,
    _boundary_phase,
    _central_grid,
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
from nsdq.rules import clenshaw_curtis, trapezoid_periodic


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
    q = complex(_central_grid(sc, (0.5,), m))
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
    got = complex(_central_grid(sc, angles, 10))
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
    q = complex(_central_grid(sc, (0.7, 1.1), 6))
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
    np.testing.assert_allclose(got, complex_derivative(G, th), rtol=0, atol=1e-10)


def _stationary_points_80(dG, lo, hi):
    # reference: the scan with 80 halvings per bracket; also returns each
    # point's last bracket
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
            brackets.append((a, b))
    scale = max(abs(float(d[0])), abs(float(d[-1])), 1e-30)
    end_a = abs(float(d[0])) < 1e-7 * max(1.0, scale)
    end_b = abs(float(d[-1])) < 1e-7 * max(1.0, scale)
    return points, brackets, end_a, end_b


@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       ends=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)))
@settings(max_examples=80, deadline=None)
def test_stationary_scan_matches_80_halvings(coeffs, ends):
    # the scan's bisection stops once the midpoint rounds to an end of its
    # bracket; from there 80 fixed halvings move neither the bracket nor the
    # midpoint, so every point they settle is bit-identical.  A bracket 80
    # halvings leave unsettled (a root within ~1e-11 of 0) is only narrowed.
    # dG/dtheta is the fallback of a scene without d_boundary_phase,
    # complex_derivative of G
    lo, hi = sorted(ends)
    assume(hi - lo > 1e-3)
    pairs = list(zip(coeffs[::2], coeffs[1::2]))
    G = lambda th: sum(a * np.cos(k * th) + b * np.sin(k * th) for k, (a, b) in enumerate(pairs, start=1))
    dG = lambda th: complex_derivative(G, th)
    got, end_a, end_b = _stationary_points(dG, lo, hi)
    want, brackets, want_a, want_b = _stationary_points_80(dG, lo, hi)
    assert (end_a, end_b) == (want_a, want_b)
    assert len(got) == len(want)
    for x, y, (a, b) in zip(got, want, brackets):
        if a < y < b:
            assert a <= x <= b
        else:
            assert x == y


def test_stationary_scan_reads_the_scene_derivative():
    # the ellipse's dG/dtheta: one call on the 600 samples, then one scalar
    # call per halving of each of 3 brackets
    sc = scenes.ellipse_scene(100.0)
    dR = sc.d_boundary_phase
    dg_shapes = []

    def counted_dG(th):
        dg_shapes.append(np.shape(th))
        return dR(th)

    points, end_a, end_b = _stationary_points(counted_dG, 0.0, 2 * math.pi)
    assert dg_shapes[0] == (600,)
    assert set(dg_shapes[1:]) == {()} and len(dg_shapes) - 1 <= 3 * 64
    assert [float(x) for x in points] == [math.pi / 2, math.pi, 3 * math.pi / 2]
    assert end_a is True and end_b is True
    # the integrator hands the scan the scene's derivative
    dg_shapes.clear()
    sc.d_boundary_phase = counted_dG
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
    # the complex_derivative scan (a scene without d_boundary_phase) finds
    # as many points unless a root lies so close to a sample that the
    # derivative's error flips the sign there: truncation s^4/480 max|G^(5)|
    # plus round-off, with spacing s = 2e-5 max(1, |theta|)
    size = sum(abs(a) + abs(b) for _, (a, b) in pairs)
    assume(size > 1e-100)
    s = 2e-5 * 2 * math.pi
    err = s**4 / 480 * sum(k**5 * (abs(a) + abs(b)) for k, (a, b) in pairs) + 1e-14 * size / 2e-5
    assume(np.all(np.abs(dG(np.linspace(lo, hi, 600))) > 2 * err))
    assert len(got) == len(_stationary_points(lambda th: complex_derivative(G, th), lo, hi)[0])


def _asymmetric_scene(omega, analytic_dG):
    # unit amplitude and phase r inside R = 1 + 0.1 sin^3 + 0.04 cos
    # + 0.02 sin(2 theta + 0.3): no symmetry puts the stationary points of
    # G = R on doubles
    R = lambda th: 1.0 + 0.1 * np.sin(th) ** 3 + 0.04 * np.cos(th) + 0.02 * np.sin(2.0 * th + 0.3)
    dR = lambda th: (0.3 * np.sin(th) ** 2 * np.cos(th) - 0.04 * np.sin(th)
                     + 0.04 * np.cos(2.0 * th + 0.3))
    return scenes._unit_radial_scene(omega, R, "asym", dR if analytic_dG else None)


def _asymmetric_reference(omega, nodes=65536):
    # periodic trapezoid in theta of int_0^R r exp(i w r) dr in closed form
    th = np.arange(nodes) * (2.0 * math.pi / nodes)
    R = _asymmetric_scene(omega, False).boundary_radius(th)
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


def test_scan_and_paths_share_the_fallback_derivative(monkeypatch):
    # without d_boundary_phase the scan and the descent paths read one dG,
    # complex_derivative of G; the split points it gives lie within 1e-10 of
    # those of the analytic dG (the old difference stencil put them 1.1e-7
    # to 6.2e-7 off)
    _, exact = _recorded_boundary_calls(monkeypatch, _asymmetric_scene(100.0, True))
    _, fallback = _recorded_boundary_calls(monkeypatch, _asymmetric_scene(100.0, False))
    assert fallback["scan"] is fallback["nsd"]
    assert exact["scan"] is exact["nsd"]
    assert len(fallback["points"]) == len(exact["points"]) == 4
    np.testing.assert_allclose(fallback["points"], exact["points"], rtol=0, atol=1e-10)


@pytest.mark.parametrize("analytic_dG", [True, False])
def test_asymmetric_boundary_against_trapezoid_reference(analytic_dG):
    # at omega = 1e4 the split points must sit on the stationary points of G:
    # the difference-stencil scan read 3.3e-8 here without dR
    omega = 1e4
    sc = _asymmetric_scene(omega, analytic_dG)
    region = scenes.default_region("ellipse")
    val = integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=40), 8)
    ref = _asymmetric_reference(omega)
    assert abs(val - ref) <= 1e-8 * abs(ref)


def _ellipse_100(analytic_dG=True):
    sc = scenes.ellipse_scene(100.0)
    if not analytic_dG:
        sc.d_boundary_phase = None
    region = scenes.default_region("ellipse")
    return sc, lambda: integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=40), 8)


@pytest.mark.parametrize("field, analytic_dG", [("oscillator", True), ("oscillator", False),
                                                ("d_boundary_phase", True)])
def test_complex_dtype_boundary_phase_is_read_by_its_real_part(field, analytic_dG):
    want = _ellipse_100(analytic_dG)[1]()
    sc, run = _ellipse_100(analytic_dG)
    f = getattr(sc, field)
    setattr(sc, field, lambda *args: np.asarray(f(*args), dtype=complex))
    assert run() == want


# G is checked on the outer grid whether or not the scene has dG/dtheta: in
# the third case the scene's dG stays real, so the scan alone would not see it
@pytest.mark.parametrize("non_real, analytic_dG", [
    ({"oscillator": lambda z, th: 1e-3j * z * np.sin(th)}, False),
    ({"d_boundary_phase": lambda th: 1e-3j * np.sin(th)}, True),
    ({"oscillator": lambda z, th: 1e-3j * z * np.sin(th),
      "d_oscillator": lambda z, th: 1e-3j * np.sin(th) + 0.0 * z}, True)],
    ids=["oscillator", "d_boundary_phase", "oscillator-with-real-dG"])
def test_boundary_phase_not_real_on_real_angles_is_rejected(non_real, analytic_dG):
    sc, run = _ellipse_100(analytic_dG)
    for field, extra in non_real.items():
        f = getattr(sc, field)
        setattr(sc, field, lambda *args, f=f, extra=extra: f(*args) + extra(*args))
    with pytest.raises(ValueError, match="scene 'ellipse': the boundary phase is not real on real angles"):
        run()


def test_ellipse_finite_difference_fallback_against_brute_force():
    # without the closed-form dG/dtheta the descent takes the finite
    # difference of G; the value must still meet the brute-force bound
    omega = 200.0
    sc = scenes.ellipse_scene(omega)
    sc.d_boundary_phase = None
    region = scenes.default_region("ellipse")
    plan = OuterPlan.for_region(region, cc=40, trap=40)
    val = integrate_star_shaped(sc, region, plan, 8)
    ref = brute_force_polar(sc, region, 1e-8)
    assert abs(val - ref) <= 1e-6 * abs(ref)


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
    # one Newton call per radial node row, each solving all eight paths
    from nsdq import univariate

    newton = _count_calls(monkeypatch, "newton_descent", univariate)
    region = scenes.default_region("ellipse")
    m = 8
    integrate_star_shaped(scenes.ellipse_scene(100.0), region, OuterPlan.for_region(region, trap=40), m)
    assert [np.size(args[3]) for args in newton] == [8] * m


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
    # the disk's paths are closed forms, so every d_oscillator call is the
    # scan's: one call on 32 interior radii of each of the 16 rays
    sc = scenes.disk_scene(30.0, radius=1.5)
    radii = []
    dg = sc.d_oscillator
    sc.d_oscillator = lambda z, th: radii.append(z) or dg(z, th)
    region = scenes.default_region("disk")
    integrate_star_shaped(sc, region, OuterPlan.for_region(region, trap=16), 4)
    assert [np.shape(z) for z in radii] == [(32, 16)]
    assert 0.0 < np.min(radii[0]) and np.max(radii[0]) < 1.5


def _offset_ellipse_scene(omega):
    # non-unit amplitude, traced paths and a varying radius around x0 != 0
    return normalize_scene(np.array([0.1, -0.2]), lambda x: np.exp(-x[0]) * (1.0 + x[1] ** 2),
                           lambda x: np.sqrt(x[0] ** 2 + 2.0 * x[1] ** 2), omega,
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
    assert rectangle_corner_contributions(lambda z, th: 0.0 * z, 1.0, 2.0, 100.0, 6, 12) == 0.0


def test_corner_contributions_swap_symmetry():
    # swapping the rectangle sides while reflecting the amplitude across the
    # diagonal leaves the boundary term unchanged
    a, b, omega = 1.0, 2.0, 75.0
    direct = rectangle_corner_contributions(duct_f_polar, a, b, omega, 8, 16)
    reflected = rectangle_corner_contributions(
        lambda z, th: duct_f_polar(z, 0.5 * math.pi - th), b, a, omega, 8, 16
    )
    assert abs(direct - reflected) <= 1e-12 * max(1.0, abs(direct))


def test_duct_corner_mode_full_value():
    from nsdq.oracle import acoustics_reference

    a, b, omega = 1.0, 2.0, 1000.0
    sc = scenes.duct_scene(omega, a, b)
    region = scenes.default_region("duct")
    plan = OuterPlan.for_region(region, cc=30)
    val = integrate_unbounded(sc, region, plan, 8) - rectangle_corner_contributions(
        duct_f_polar, a, b, omega, 8, 16
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
        rectangle_corner_contributions(duct_f_polar, 1.0, 0.0, 10.0, 4, 8)


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
    sc = normalize_scene(np.zeros(2), f, g, 10.0)
    assert abs(complex(sc.oscillator(0.0, 0.3))) < 1e-14
    assert sc.phase_at_origin == cmath.exp(0.0j)
    # g~(r, th) = r (cos th + 2 sin th) along real rays
    th = 0.4
    r = 0.37
    expect = r * (math.cos(th) + 2 * math.sin(th))
    assert abs(complex(sc.oscillator(r, th)) - expect) < 1e-12


@pytest.mark.parametrize("omega", [10.0, 100.0])
def test_normalize_scene_quadratic_phase(omega):
    # alpha = 2: the seed coefficient comes from the second central
    # difference; on the quarter plane int exp(i w (x^2 + y^2)) = i pi / (4 w)
    sc = normalize_scene(np.zeros(2), lambda x: 1.0 + 0.0 * x[0], lambda x: x[0] ** 2 + x[1] ** 2,
                         omega, alpha=2)
    region = AngularRegion.box(2, (0.0, 0.5 * math.pi))
    got = integrate_unbounded(sc, region, OuterPlan.for_region(region, cc=8), 8)
    exact = 1j * math.pi / (4.0 * omega)
    assert abs(got - exact) <= 2e-12 * abs(exact)


def test_normalize_scene_distance_phase():
    x0 = np.array([0.5, -0.2])
    g = lambda x: np.sqrt((x[0] - 0.5) ** 2 + (x[1] + 0.2) ** 2) + 1.0
    f = lambda x: 1.0 + 0.0 * x[0]
    sc = normalize_scene(x0, f, g, 7.0)
    for th in (0.0, 1.1, 4.5):
        for r in (0.1, 0.8):
            assert abs(complex(sc.oscillator(r, th)) - r) < 1e-10
    assert abs(sc.phase_at_origin - cmath.exp(7.0j)) < 1e-14


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

    sc = normalize_scene(
        x0,
        lambda x: 1.0 + 0.0 * x[0],
        lambda x: np.sqrt((x[0] - x0[0]) ** 2 + (x[1] - x0[1]) ** 2),
        20.0,
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
    with pytest.raises(ValueError, match="counts"):
        OuterPlan((1,))


def test_plan_does_not_depend_on_box_order():
    # phi2 takes trap nodes where it is a full period and cc nodes elsewhere
    a = ((0.0, 0.5 * math.pi), (0.0, 2 * math.pi))
    b = ((0.5 * math.pi, math.pi), (0.0, math.pi))
    assert OuterPlan.for_region(AngularRegion(3, b), cc=20, trap=40).counts == (20, 20)
    assert OuterPlan.for_region(AngularRegion(3, a), cc=20, trap=40).counts == (20, 40)


@pytest.mark.parametrize("with_grad", [True, False])
def test_normalize_scene_quarter_plane_closed_form(with_grad):
    # f = exp(-x), g = x + 2y over the quarter plane:
    # int_0^inf exp(-(1 - i w) x) dx * int_0^inf exp(2 i w y) dy = i / (2 w (1 - i w))
    omega = 50.0
    grad_g = None
    if with_grad:
        grad_g = lambda x: np.stack(np.broadcast_arrays(np.ones_like(x[0]), 2.0 * np.ones_like(x[1])))
    sc = normalize_scene(np.zeros(2), lambda x: np.exp(-x[0]), lambda x: x[0] + 2.0 * x[1], omega,
                         grad_g=grad_g)
    region = AngularRegion.box(2, (0.0, 0.5 * math.pi))
    plan = OuterPlan.for_region(region, cc=20)
    value = integrate_unbounded(sc, region, plan, 6)
    exact = 1j / (2.0 * omega * (1.0 - 1j * omega))
    assert abs(value - exact) <= 1e-9 * abs(exact)
    # a single direction agrees with the same direction inside a grid
    q = complex(_central_grid(sc, (0.7,), 6))
    grid = _central_grid(sc, (np.array([0.7, 1.1]),), 6)
    assert abs(q - grid[0]) <= 1e-14 * abs(q)
