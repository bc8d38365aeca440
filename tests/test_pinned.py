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
    "duct-corner": [
        "(0.050571847848663594+0.012516602346797318j)",
        "(-0.0004457996435259646-0.0016713706870459713j)",
    ],
    "sphere": [
        "(-1.992213106363966+100.07886436103453j)",
        "(-1.9995008790727002+400.01998155074773j)",
        "(-7.559971012453944+53.23359076662341j)",
        "(-10.236904965369371+201.88259029249966j)",
    ],
    "sphere-self-err": [
        "1.7091050624077643e-11",
        "1.7396033358408065e-16",
        "0.0006162845763104555",
        "2.1963885932456885e-06",
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
    # dG/dtheta and traced all endpoint paths in one continuation
    "ellipse-nsd": [
        "(0.15526932469813348+0.18715596514526384j)",
        "(-0.0014557961931336862+0.003142247276031695j)",
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
