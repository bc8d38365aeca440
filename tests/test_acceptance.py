"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Two measurement notes, recorded once here and relied on below:

* Slope fits exclude machine-saturated rows (error <= 1e-14, the library-wide
  floor).  Where a convergence curve sits entirely below 1e-13 over the
  requested frequency window, its decay rate is not measurable in double
  precision; the checks below then certify exactly that fact (every row at
  the floor) instead of fitting noise.  The measurable windows and the rates
  observed there are covered by tests in test_experiments.py.
* The sphere self-convergence check runs at incidence angle psi = 0, the
  configuration the experiment's stability example pins down.
"""

import math
import time

import numpy as np
import pytest

from nsdq import scenes
from nsdq.experiments import (
    fit_slope,
    run_duct,
    run_ellipsoid,
    run_sphere_scatter,
    sphere_table,
)
from brute_force import brute_force_polar
from nsdq.oracle import acoustics_reference
from nsdq.paths import edge_path, newton_descent
from nsdq.polar import (
    OuterPlan,
    _origin_samples,
    integrate_star_shaped,
    integrate_unbounded,
    rectangle_direct_terms,
)
from nsdq.rules import exp_power_moment, gauss_exp_power
from nsdq.specfun import ellipsoid_reference

FLOOR = 1e-13  # measurability floor for slope windows (see module docstring)


def _sphere_w0(k, psi, m, n_trap):
    # the sphere's w0 = w0(m, N): integrate_unbounded with m radial points on
    # N = n_trap trapezoid directions
    region = scenes.default_region("sphere-scatter")
    return integrate_unbounded(scenes.sphere_scatter_scene(k, psi), region,
                               OuterPlan.for_region(region, trap=n_trap), m)


def _verdict(num, ok, detail, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {num}: {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_quadrature_exactness():
    t0 = time.time()
    worst = 0.0
    for alpha in (1, 2):
        for degree in (0, 1, 2):
            for m in range(1, 11):
                rule = gauss_exp_power(m, alpha, degree)
                for k in range(2 * m):
                    exact = exp_power_moment(k, alpha, degree)
                    got = float(np.sum(rule.weights * rule.nodes**k))
                    worst = max(worst, abs(got - exact) / exact)
    _verdict(1, worst <= 1e-10, f"worst moment error {worst:.2e} (tol 1e-10)", t0, 5.0)


def test_criterion_2_quarter_plane_identity():
    t0 = time.time()
    region = scenes.default_region("quarter-plane")
    plan = OuterPlan.for_region(region, cc=10)
    worst = 0.0
    for omega in (1.0, 10.0, 100.0):
        exact = -math.pi / (2 * omega**2)
        for m in (1, 3, 5):
            sc = scenes.quarter_plane_scene(omega)
            val = integrate_unbounded(sc, region, plan, m)
            worst = max(worst, abs(val - exact) / abs(exact))
    _verdict(2, worst <= 1e-12, f"worst relative error {worst:.2e} (tol 1e-12)", t0, 1.0)


def test_criterion_3_direct_origin_never_improves():
    t0 = time.time()
    one = lambda x, y: 1.0 + 0.0 * x
    ok = True
    details = []
    for m in (3, 4, 8):
        rels = []
        for omega in np.geomspace(10.0, 1e4, 9):
            F00 = rectangle_direct_terms(one, 1.0, 2.0, float(omega), m)[(0.0, 0.0)]
            exact = -math.pi / (2 * omega**2)
            rels.append(abs(F00 - exact) / abs(exact))
        non_decreasing = all(b >= a * (1 - 1e-9) for a, b in zip(rels, rels[1:]))
        ok = ok and non_decreasing and rels[0] > 1e-6
        details.append(f"m={m}: rel err {rels[0]:.2e} -> {rels[-1]:.2e}")
    _verdict(3, ok, "; ".join(details), t0, 10.0)


def _slope_or_floor(rows, target, tol, bound):
    # Either the fitted slope meets the stated targets, or every row sits at
    # the double-precision floor (the curve converged beyond measurability).
    errs = [r.abs_err for r in rows]
    try:
        fit = fit_slope(rows)
    except ValueError:
        worst = max(errs)
        return worst < FLOOR, f"saturated (max err {worst:.1e})"
    ok = abs(fit.slope - target) <= tol and fit.slope <= bound
    return ok, f"slope {fit.slope:.2f}"


def test_criterion_4_ellipsoid_orders():
    t0 = time.time()
    grid = np.geomspace(100.0, 1000.0, 12)
    ok = True
    details = []
    for m, target in ((2, -5.0), (4, -9.0), (6, -13.0), (8, -17.0)):
        rows = run_ellipsoid(grid, m=m)
        good, note = _slope_or_floor(rows, target, 0.75, -(2 * m - 1) + 0.5)
        ok = ok and good
        details.append(f"m={m}: {note}")
    final = run_ellipsoid([1000.0], m=8)[0].abs_err
    ok = ok and final <= 1e-12
    details.append(f"abs err at w=1000, m=8: {final:.1e} (tol 1e-12)")
    _verdict(4, ok, "; ".join(details), t0, 60.0)


def test_criterion_5_outer_plateau():
    t0 = time.time()
    grid = np.geomspace(100.0, 1000.0, 12)
    full = run_ellipsoid([1000.0], m=8, outer_cc=50, outer_trap=50)[0].abs_err
    reduced_rows = run_ellipsoid(grid, m=8, outer_cc=30, outer_trap=30)
    reduced = reduced_rows[-1].abs_err
    ratio_ok = reduced >= 10.0 * full
    tail = [r for r in reduced_rows if r.omega >= 300.0]
    try:
        fit = fit_slope(tail)
        slope_ok, note = fit.slope > -1.0, f"slope {fit.slope:.2f}"
    except ValueError:
        worst = max(r.abs_err for r in tail)
        slope_ok, note = worst < FLOOR, f"saturated (max err {worst:.1e})"
    _verdict(
        5, ratio_ok and slope_ok,
        f"err30/err50 at w=1000: {reduced / full:.1f} (need >= 10); tail {note}",
        t0, 60.0,
    )


def test_criterion_6_duct_modes():
    t0 = time.time()
    corner = run_duct([1000.0], n_gl=8)[0].rel_err
    ok = corner <= 1e-10
    details = [f"corner rel err {corner:.1e} (tol 1e-10)"]

    slopes = []
    grid = np.geomspace(5.0, 2000.0, 16)
    for n_gl in (2, 4, 6, 8):
        slopes.append(fit_slope(run_duct(grid, n_gl=n_gl)).slope)
    decreasing = all(a > b for a, b in zip(slopes, slopes[1:]))
    ok = ok and decreasing
    details.append("slopes " + ", ".join(f"{s:.2f}" for s in slopes))

    direct = run_duct(np.geomspace(10.0, 1e4, 7), n_gl=8, mode="direct")
    rels = [r.rel_err for r in direct]
    stagnates = min(rels) > 1e-2 and fit_slope(direct, use="rel").slope > -0.1
    ok = ok and stagnates
    details.append(f"direct rel err stays at {min(rels):.1e}..{max(rels):.1e}")

    modified = run_duct([1000.0], n_gl=8, mode="direct_modified")[0].rel_err
    within = modified <= 100.0 * max(corner, 1e-16)
    ok = ok and within
    details.append(f"modified rel err {modified:.1e} (<= 100x corner)")
    _verdict(6, ok, "; ".join(details), t0, 120.0)


def _newton_root(*args):
    # the roots of newton_descent, which reports a failure instead of raising it
    z, err = newton_descent(*args)
    if err is not None:
        raise err
    return z


def test_criterion_7_path_solver():
    # the grid tracer the integrators run, residuals from the scene itself
    t0 = time.time()
    ps = np.geomspace(1e-3, 0.3, 10)
    worst_res = 0.0
    worst_dev = 0.0

    for name, builder in scenes.scene_registry().items():
        sc = builder(50.0)
        sc.origin_path = None
        if sc.n == 2:
            angles = (np.array([0.4, 2.0]),)
        else:
            angles = (np.array([0.7, 2.2]), np.array([1.3, 4.1]))
        rho, _ = _origin_samples(sc, angles, ps)
        res = np.abs(sc.oscillator(rho, *angles) - 1j * ps[:, None]) / (1 + ps[:, None])
        worst_res = max(worst_res, float(res.max()))

    # closed forms against the tracer: the ellipsoid radial path ...
    sc = scenes.ellipsoid_scene(100.0)
    sc.origin_path = None
    angles = (np.array([0.7, 2.1]), np.array([1.3, 4.0]))
    rho, _ = _origin_samples(sc, angles, ps)
    s = scenes._ellipsoid_slope(*angles)
    worst_dev = max(worst_dev, float(np.abs(rho - 1j * ps[:, None] / s).max()))

    # ... and the duct angle paths of the corner decomposition
    a, b = 1.0, 2.0
    eta = math.hypot(a, b)
    qs = np.geomspace(1e-4, 0.5, 10)
    sec, dsec = lambda z: a / np.cos(z), lambda z: a * np.sin(z) / np.cos(z) ** 2
    csc, dcsc = lambda z: b / np.sin(z), lambda z: -b * np.cos(z) / np.sin(z) ** 2
    cases = [
        (lambda q: edge_path(q, a, 0.0, a, 1), sec, dsec, a),
        (lambda q: edge_path(q, a, 0.0, eta, 1), sec, dsec, eta),
        (lambda q: edge_path(q, b, 0.5 * math.pi, eta, -1), csc, dcsc, eta),
        (lambda q: edge_path(q, b, 0.5 * math.pi, b, -1), csc, dcsc, b),
    ]
    for path, g, dg, base in cases:
        z = None
        for q in qs:
            h, _ = path(q)
            z = h if z is None else _newton_root(g, dg, base + 1j * q, z)
            z = _newton_root(g, dg, base + 1j * q, z)
            worst_dev = max(worst_dev, abs(z - h))
            worst_res = max(worst_res, abs(complex(g(h)) - (base + 1j * q)))

    ok = worst_res <= 1e-12 and worst_dev <= 1e-12
    _verdict(7, ok, f"worst residual {worst_res:.1e}, worst closed-form deviation {worst_dev:.1e}",
             t0, 5.0)


def test_criterion_8_sphere_scattering():
    t0 = time.time()
    # (a) the radial derivative of the oscillator at the singular point
    worst = 0.0
    h = 1e-6
    for psi in (0.0, math.pi / 10, math.pi / 5, math.pi / 3):
        sc = scenes.sphere_scatter_scene(50.0, psi)
        d3 = math.sin(psi)
        for th in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            measured = (complex(sc.oscillator(h, th)) - complex(sc.oscillator(-h, th))).real / (2 * h)
            predicted = 1.0 - d3 * math.cos(th)
            worst = max(worst, abs(measured - predicted))
    ok_a = worst <= 1e-8

    # (b) self-convergence of the local approximation at psi = 0
    worst_conv = 0.0
    for k in (50.0, 100.0):
        w0 = _sphere_w0(k, 0.0, 5, 100)
        w0_fine = _sphere_w0(k, 0.0, 8, 200)
        worst_conv = max(worst_conv, abs(w0 - w0_fine) / abs(w0))
    ok_b = worst_conv <= 1e-8

    # (c) output table layout: psi rows by k columns
    rows = run_sphere_scatter(
        [50.0, 100.0, 150.0, 200.0],
        [0.0, math.pi / 10, math.pi / 5, math.pi / 3],
        m=5, n_trap=100,
    )
    lines = sphere_table(rows).splitlines()
    ok_c = len(lines) == 6 and lines[0].split()[-4:] == ["50", "100", "150", "200"]

    _verdict(
        8, ok_a and ok_b and ok_c,
        f"radial derivative dev {worst:.1e} (tol 1e-8); "
        f"w0 self-convergence {worst_conv:.1e} (tol 1e-8); table 4x4 {'ok' if ok_c else 'bad'}",
        t0, 60.0,
    )


def test_criterion_9_oracle_cross_checks():
    t0 = time.time()
    omega = 50.0
    details = []
    ok = True

    checks = []
    disk = scenes.disk_scene(omega)
    region = scenes.default_region("disk")
    checks.append(("disk", integrate_star_shaped(
        disk, region, OuterPlan.for_region(region, trap=16), 4), disk, region))
    qd = scenes.quarter_disk_scene(omega)
    region = scenes.default_region("quarter-disk")
    checks.append(("quarter-disk", integrate_star_shaped(
        qd, region, OuterPlan.for_region(region, cc=16), 4), qd, region))
    el = scenes.ellipse_scene(omega)
    region = scenes.default_region("ellipse")
    checks.append(("ellipse", integrate_star_shaped(
        el, region, OuterPlan.for_region(region, trap=40), 8), el, region))

    for name, nsd_val, sc, reg in checks:
        ref = brute_force_polar(sc, reg, 1e-8)
        dev = abs(nsd_val - ref)
        ok = ok and dev <= 1e-6
        details.append(f"{name}: {dev:.1e}")

    duct_val = run_duct([omega], n_gl=8)[0].approx
    duct_sc = scenes.duct_scene(omega)
    duct_ref = brute_force_polar(duct_sc, scenes.default_region("duct"), 1e-8)
    dev = abs(duct_val - duct_ref)
    ok = ok and dev <= 1e-6
    details.append(f"duct: {dev:.1e}")

    rows = run_ellipsoid([10.0], m=10)
    rel = rows[0].rel_err
    ok = ok and rel <= 1e-7
    details.append(f"ellipsoid vs closed form at w=10: {rel:.1e} (tol 1e-7)")

    _verdict(9, ok, "; ".join(details) + " (tol 1e-6 vs brute force)", t0, 120.0)
