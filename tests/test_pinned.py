"""Bit-pinned values of the README experiments and the planar integrators.

Each string is the exact ``repr`` of a value computed before the radial
pre-quadrature was evaluated over the whole node x direction array.  The
batched evaluation performs the same arithmetic in the same order, so the
values must not move by a single bit.  A change that reorders the
arithmetic on purpose has to re-record these strings and say so.

The grids are small versions of the README commands:

    nsdq run --experiment ellipsoid --omega 100:1000:12 --radial-points 8
    nsdq run --experiment duct --omega 10:10000:7 --gl 8 --mode direct
    nsdq run --experiment sphere --omega 50,100,150,200 --psi 0,0.314,0.628,1.047
    nsdq run --experiment example1 --omega 1,10,100
"""

import math

from brute_force import stencil_derivative
from nsdq import experiments, polar, scenes
from nsdq.oracle import acoustics_reference

PINNED = {
    "ellipsoid": [
        "(0.0005127127331622199+0.05129174508357924j)",
        "(5.130168540067132e-06+0.005130189060371938j)",
    ],
    "duct-direct": [
        "(0.04163427496599621+0.009075674155119052j)",
        "(-0.0003631871209078124-0.0013800069232640017j)",
    ],
    # re-recorded when the four corner angle paths became edge_path on the
    # rectangle's two edges: arccos(d / w) in place of arccos(1 / (1 + iq/d))
    # and arcsin, and start^2 - d^2 in place of the other side squared
    # (moves 1.0e-16 and 6.3e-17 relative)
    "duct-corner": [
        "(0.050571847848663594+0.012516602346797313j)",
        "(-0.0004457996435259647-0.0016713706870459713j)",
    ],
    # re-recorded when the continuation seeded each row by the tangent step
    # of the previous one: Newton stops at other last bits (values moved by
    # <= 6.6e-17 relative), and again when Newton took one more (chord) step
    # past its residual test and every node row was solved at once from the
    # series seed (moves <= 2.1e-15 relative), and again when the kernel
    # was written on the half-angle offsets, g and g' without cancellation,
    # and w0 and its companion were traced in one solve (moves <= 1.2e-16
    # relative), and again when only theta_0 ... theta_50 were traced and
    # Q_r(theta_(100-k)) read as Q_r(theta_k), the kernel being even in
    # theta (moves <= 2.6e-16 relative)
    "sphere": [
        "(-1.9922131063639734+100.0788643610345j)",
        "(-1.999500879072701+400.0199815507478j)",
        "(-7.559971012453948+53.233590766623394j)",
        "(-10.236904965369453+201.88259029249926j)",
    ],
    # re-recorded when self_err became |w0 - w0c|/|w0| + d^2 (companion
    # rule on the same 100 directions plus the nested 50-node trapezoid) in
    # place of |w0(5, 100) - w0(8, 200)|/|w0|: the estimate moved in the 6th
    # digit or less, w0 itself did not move.  Re-recorded with the "sphere"
    # values: moves <= 1.3e-5 relative, and 3e-4 in the second row's 1.7e-16,
    # which is round-off.  Re-recorded with the "sphere" values once more:
    # moves 5.7e-6, 3.4e-13 and 5.3e-11 relative, and 3.1e-4 in the second
    # row's round-off.  Re-recorded with the "sphere" values for the
    # mirrored trace: moves 5.7e-6 (9.8e-17 absolute), 1.8e-16 and 3.1e-12
    # relative, and the second row's round-off went 1.7e-16 -> 3.5e-16
    "sphere-self-err": [
        "1.709102792738626e-11",
        "3.4720518331489253e-16",
        "0.0006162845763104341",
        "2.196388595123948e-06",
    ],
    # w0 of all 16 rows of the README sphere command, psi-major, k-minor;
    # recorded before self_err took the companion rule and nested subset.
    # Re-recorded by the test_paths.py::test_sphere_roots_to_full_precision
    # test: roots to full precision moved w0 by <= 2.0e-14 relative (at
    # psi = 1.047, k = 150, where g' is small near the paths; <= 4.6e-15 in
    # every other row), and solving every node row at once from the series
    # seed then moved it by <= 3.8e-16.  Re-recorded when the kernel was
    # written on the half-angle offsets, g and g' without cancellation, and
    # w0 and its companion were traced in one solve: moves <= 2.8e-16
    # relative.  Re-recorded when only half the directions were traced (the
    # kernel is even in theta): moves <= 2.5e-16 relative
    "sphere-readme-w0": [
        "(0.0001988286636947914+0.009988161809312657j)",
        "(4.992546590914401e-05+0.0049985051990073075j)",
        "(2.2207448628188245e-05+0.0033328895772309335j)",
        "(1.2495319856585589e-05+0.002499812663658409j)",
        "(0.00025307203074455146+0.010493572475517934j)",
        "(6.382106118461476e-05+0.005254417143393217j)",
        "(2.84128116586851e-05+0.003503912374163508j)",
        "(1.5991747737960115e-05+0.0026281898188201007j)",
        "(0.000519656628275215+0.012270248127638866j)",
        "(0.00013472946223091095+0.00616690743746575j)",
        "(6.035916929818026e-05+0.004115640099601782j)",
        "(3.4051579826054564e-05+0.003087909919202423j)",
        "(0.002615030710621347+0.018413757732939077j)",
        "(0.0008632407607774034+0.009661067314095564j)",
        "(0.0004241836996169317+0.006541829946650747j)",
        "(0.00025052767054512096+0.0049406705679786046j)",
    ],
    "example1": [
        "(-1.570796326794897+0j)",
        "(-1.5726611831867028+0j)",
        "(-0.01570796326794897+0j)",
        "(-0.015726611831867028+0j)",
        "(-0.00015707963267948974+0j)",
        "(-0.00015726611831867027+0j)",
    ],
    # re-recorded when the nsd boundary term took the ellipse's analytic
    # dG/dtheta and traced all endpoint paths in one continuation, and again
    # when that continuation seeded each row by the tangent step in the node
    # variable (moves of 6.9e-16 and 4.1e-14 relative, inside the alpha = 2
    # endpoint floor), and again when the stationary-point scan read the
    # analytic dG/dtheta: the split points moved from the roots of the
    # difference stencil to the doubles nearest pi/2, pi and 3 pi/2, about
    # 2e-14 away (moves of 5.7e-16 and 2.9e-13 relative), and again when
    # Newton took one more (chord) step past its residual test and every
    # node row of the endpoint paths was solved at once (moves of 2.4e-15
    # and 1.4e-12 relative: the alpha = 2 endpoint floor, ROADMAP item 3)
    "ellipse-nsd": [
        "(0.1552693246981341+0.1871559651452639j)",
        "(-0.0014557961931364286+0.003142247276036634j)",
    ],
    "disk-plain": [
        "(-0.45737081717701505+0.4930223358092314j)",
        "(-0.031902399166685864-0.05449925160024459j)",
    ],
    # acoustics_reference at the duct benchmark's omegas, one-panel rows
    # (omega <= 2000) and panelled ones; recorded before the panels were
    # bisected in lockstep
    "duct-oracle": [
        "(0.05090338780259139+0.011230059762757255j)",
        "(0.00021936563092316098-0.0001904688282307633j)",
        "(1.026228551496396e-06-5.791367156345777e-05j)",
        "(-2.0128208674848774e-05+1.0856557409139884e-06j)",
        "(8.564157683071488e-06+4.6836392944230734e-06j)",
        "(5.2515172701544344e-08-1.7745466168969507e-06j)",
    ],
    # the ellipse's stationary points of G on [0, 2 pi] and its two end
    # flags, scanned with the fourth-order difference of G that a scene
    # without d_boundary_phase once took as dG/dtheta.  Re-recorded when the
    # scan took that difference in place of its own second-order one: the
    # points moved from 2e-14 to 1.2e-12, 2.9e-12 and 1.9e-12 off pi/2, pi
    # and 3 pi/2
    "ellipse-stationary-points": [
        "1.5707963267937126",
        "3.141592653586856",
        "4.712388980383498",
        "True",
        "True",
    ],
}


def _approx(rows):
    return [repr(complex(r.approx)) for r in rows]


def test_pinned_ellipsoid():
    rows = experiments.run_ellipsoid([100.0, 1000.0], m=8, outer_cc=50, outer_trap=50)
    assert _approx(rows) == PINNED["ellipsoid"]


def test_pinned_duct():
    assert _approx(experiments.run_duct([10.0, 100.0], n_gl=8, mode="direct")) == PINNED["duct-direct"]
    assert _approx(experiments.run_duct([10.0, 100.0], n_gl=8, mode="corner")) == PINNED["duct-corner"]


def test_pinned_sphere():
    rows = experiments.run_sphere_scatter([50.0, 200.0], [0.0, 1.047], m=5, n_trap=100)
    assert _approx(rows) == PINNED["sphere"]
    assert [repr(r.params["self_err"]) for r in rows] == PINNED["sphere-self-err"]


def test_pinned_sphere_readme_w0():
    rows = experiments.run_sphere_scatter([50.0, 100.0, 150.0, 200.0], [0.0, 0.314, 0.628, 1.047],
                                          m=5, n_trap=100)
    got = [repr(complex(r.params["w0_re"], r.params["w0_im"])) for r in rows]
    assert got == PINNED["sphere-readme-w0"]


def test_pinned_example1():
    assert _approx(experiments.run_example1([1.0, 10.0, 100.0], m=4, outer_cc=10)) == PINNED["example1"]


def test_pinned_star_shaped():
    region = scenes.default_region("ellipse")
    plan = polar.OuterPlan.for_region(region, trap=40)
    got = [repr(complex(polar.integrate_star_shaped(scenes.ellipse_scene(om), region, plan, 8)))
           for om in (10.0, 100.0)]
    assert got == PINNED["ellipse-nsd"]
    region = scenes.default_region("disk")
    plan = polar.OuterPlan.for_region(region, trap=16)
    got = [repr(complex(polar.integrate_star_shaped(scenes.disk_scene(om), region, plan, 4)))
           for om in (10.0, 100.0)]
    assert got == PINNED["disk-plain"]


def test_pinned_duct_oracle():
    omegas = (9.99, 317.36, 992.37, 2000.0, 3186.21, 9952.19)
    assert [repr(acoustics_reference(om)) for om in omegas] == PINNED["duct-oracle"]


def test_pinned_stationary_points():
    G = polar._boundary_phase(scenes.ellipse_scene(100.0))
    dG = lambda th: stencil_derivative(G, th)
    points, end_lo, end_hi = polar._stationary_points(dG, 0.0, 2.0 * math.pi)
    assert [repr(float(x)) for x in points] + [repr(end_lo), repr(end_hi)] == \
        PINNED["ellipse-stationary-points"]
