import cmath
import math
import re

import mpmath as mp
import numpy as np
import pytest

from brute_force import brute_force_polar
from nsdq import oracle, scenes
from nsdq.oracle import OracleNotConverged, acoustics_reference, adaptive_quad_1d
from nsdq.polar import AngularRegion

mp.mp.dps = 30


def test_adaptive_linear():
    res = adaptive_quad_1d(lambda x: x, 0.0, 1.0, 1e-13)
    assert res.converged
    assert abs(res.value - 0.5) < 1e-14


def test_adaptive_oscillatory_closed_form():
    res = adaptive_quad_1d(lambda x: np.exp(1j * 50 * x), 0.0, 1.0, 1e-13)
    exact = (cmath.exp(50j) - 1.0) / 50j
    assert abs(res.value - exact) < 1e-13


def test_adaptive_exp_sin_against_mpmath():
    res = adaptive_quad_1d(lambda x: np.exp(np.sin(x)), 0.0, math.pi / 2, 1e-13)
    exact = complex(mp.quad(lambda x: mp.e**mp.sin(x), [0, mp.pi / 2]))
    assert abs(res.value - exact) < 1e-12


def test_adaptive_estimate_is_upper_bound():
    # battery of closed-form integrands; the estimate must bound the true
    # error in at least 95 percent of the cases
    cases = [
        (lambda x: x**5, 0.0, 1.0, 1.0 / 6.0),
        (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4),
        (lambda x: np.exp(1j * 30 * x), 0.0, 1.0, (cmath.exp(30j) - 1) / 30j),
        (lambda x: np.exp(1j * 200 * x), 0.0, 1.0, (cmath.exp(200j) - 1) / 200j),
        (lambda x: np.cos(x) * np.exp(1j * 40 * x), 0.0, 2.0,
         complex(mp.quad(lambda t: mp.cos(t) * mp.cos(40 * t), [0, 2]),
                 mp.quad(lambda t: mp.cos(t) * mp.sin(40 * t), [0, 2]))),
        (lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, 2.0 / 3.0),
        (lambda x: np.log(x + 1.0), 0.0, 1.0, 2 * math.log(2) - 1),
        (lambda x: 1.0 / np.sqrt(x + 1e-4), 0.0, 1.0,
         2 * (math.sqrt(1 + 1e-4) - math.sqrt(1e-4))),
        (lambda x: np.sin(10 * x) / (1.0 + x), 0.0, 3.0,
         float(mp.quad(lambda t: mp.sin(10 * t) / (1 + t), [0, 3]))),
    ]
    ok = 0
    for tol in (1e-6, 1e-10):
        for f, a, b, exact in cases:
            res = adaptive_quad_1d(f, a, b, tol)
            true_err = abs(res.value - exact)
            if true_err <= max(res.est_error, 1e-15):
                ok += 1
    assert ok >= 0.95 * 2 * len(cases)


def test_adaptive_cap_flags_nonconvergence(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 9)
    res = adaptive_quad_1d(lambda x: np.exp(1j * 500 * x), 0.0, 1.0, 1e-13)
    assert not res.converged
    assert res.subdivisions <= 9 + 2


def test_adaptive_rejects_bad_arguments():
    with pytest.raises(ValueError):
        adaptive_quad_1d(lambda x: x, 0.0, 1.0, 1e-15)
    with pytest.raises(ValueError):
        adaptive_quad_1d(lambda x: x, 1.0, 0.0, 1e-10)


# The integrands above, with the (value, est_error, subdivisions) that
# adaptive_quad_1d returned before it bisected panels in lockstep.  The
# lockstep rounds keep each panel's heap order and error arithmetic, so the
# results must not move by a single bit.
_INTEGRANDS = {
    "x": (lambda x: x, 0.0, 1.0),
    "exp50": (lambda x: np.exp(1j * 50 * x), 0.0, 1.0),
    "expsin": (lambda x: np.exp(np.sin(x)), 0.0, math.pi / 2),
    "lin10": (lambda x: np.exp(1j * 10.0 * x) * np.cos(x), 0.0, 1.0),
    "x5": (lambda x: x**5, 0.0, 1.0),
    "exp": (lambda x: np.exp(x), 0.0, 1.0),
    "runge": (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0),
    "exp30": (lambda x: np.exp(1j * 30 * x), 0.0, 1.0),
    "exp200": (lambda x: np.exp(1j * 200 * x), 0.0, 1.0),
    "cosexp40": (lambda x: np.cos(x) * np.exp(1j * 40 * x), 0.0, 2.0),
    "sqrt": (lambda x: np.sqrt(np.abs(x)), 0.0, 1.0),
    "log": (lambda x: np.log(x + 1.0), 0.0, 1.0),
    "invsqrt": (lambda x: 1.0 / np.sqrt(x + 1e-4), 0.0, 1.0),
    "sin10": (lambda x: np.sin(10 * x) / (1.0 + x), 0.0, 3.0),
}
_RECORDED = [
    ("x", 1e-13, "(0.5+0j)", "0.0", 1),
    ("exp50", 1e-13, "(-0.005247497074078546+0.0007006794301577211j)", "9.926361063333706e-14", 57),
    ("expsin", 1e-13, "(3.1043790178555555+0j)", "1.7319479184152442e-14", 3),
    ("lin10", 1e-13, "(-0.022558628895439456+0.1514272808022171j)", "4.5797971652497296e-14", 7),
    ("x5", 1e-06, "(0.16666666666666669+0j)", "5.551115123125783e-17", 1),
    ("exp", 1e-06, "(1.718281828459045+0j)", "0.0", 1),
    ("runge", 1e-06, "(0.7853981633974483+0j)", "6.659891527149853e-10", 1),
    ("exp30", 1e-06, "(-0.03293438746976218+0.028191618337080417j)", "9.28213090409095e-08", 7),
    ("exp200", 1e-06, "(-0.0043664864860703+0.0025640616249656112j)", "7.734987315630256e-09", 63),
    ("cosexp40", 1e-06, "(0.010409330584858933+0.024431674986124353j)", "7.950525332257737e-07", 27),
    ("sqrt", 1e-06, "(0.6666666929535451+0j)", "4.549992042265135e-07", 13),
    ("log", 1e-06, "(0.38629436111989063+0j)", "2.0215495943887163e-12", 1),
    ("invsqrt", 1e-06, "(1.9800999975003222+0j)", "2.7394481957182526e-08", 23),
    ("sin10", 1e-06, "(0.09495476590786367+0j)", "7.98891896065454e-08", 7),
    ("x5", 1e-10, "(0.16666666666666669+0j)", "5.551115123125783e-17", 1),
    ("exp", 1e-10, "(1.718281828459045+0j)", "0.0", 1),
    ("runge", 1e-10, "(0.7853981633974484+0j)", "8.798517470154366e-14", 3),
    ("exp30", 1e-10, "(-0.03293438746976207+0.028191618337080518j)", "6.684536219112217e-12", 15),
    ("exp200", 1e-10, "(-0.004366486486069951+0.002564061624965003j)", "5.289501518208665e-13", 127),
    ("cosexp40", 1e-10, "(0.01040933058485901+0.024431674986124148j)", "8.770500618871394e-11", 53),
    ("sqrt", 1e-10, "(0.6666666666689356+0j)", "3.937627748344598e-11", 31),
    ("log", 1e-10, "(0.38629436111989063+0j)", "2.0215495943887163e-12", 1),
    ("invsqrt", 1e-10, "(1.9800999975001252+0j)", "8.289113319348562e-12", 27),
    ("sin10", 1e-10, "(0.09495476590786367+0j)", "3.850196203525336e-12", 15),
]


@pytest.mark.parametrize("name, tol, value, est_error, subdivisions", _RECORDED,
                         ids=[f"{r[0]}-{r[1]:g}" for r in _RECORDED])
def test_adaptive_matches_recorded_bits(name, tol, value, est_error, subdivisions):
    f, a, b = _INTEGRANDS[name]
    res = adaptive_quad_1d(f, a, b, tol)
    assert (repr(res.value), repr(res.est_error), res.subdivisions, res.converged) == (
        value, est_error, subdivisions, True)


def test_adaptive_panels_match_separate_calls():
    # lockstep panels: each panel's bisections are exactly those of a call
    # on that panel alone, and the values are summed in panel order
    f = lambda x: np.cos(x) * np.exp(1j * 40 * x)
    edges = [0.0, 0.3, 1.1, 2.0]
    res = adaptive_quad_1d(f, edges[:-1], edges[1:], 1e-12)
    alone = [adaptive_quad_1d(f, lo, hi, 1e-12) for lo, hi in zip(edges[:-1], edges[1:])]
    total = alone[0].value
    for r in alone[1:]:
        total += r.value
    assert repr(res.value) == repr(total)
    assert res.subdivisions == sum(r.subdivisions for r in alone)
    assert res.est_error == math.fsum(r.est_error for r in alone)
    assert res.converged and res.stalled == ()


def test_adaptive_names_stalled_panel(monkeypatch):
    # the smooth first panel converges at once; the oscillatory second one
    # runs into the subdivision cap
    monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 9)
    f = lambda x: np.where(x < 1.0, x, np.exp(1j * 500 * x))
    res = adaptive_quad_1d(f, [0.0, 1.0], [1.0, 2.0], 1e-13)
    assert not res.converged
    assert res.stalled == (1,)
    assert res.subdivisions <= 1 + 9 + 2


def test_adaptive_rejects_bad_panels():
    with pytest.raises(ValueError, match=r"a < b, got \[2.0, 1.5\]"):
        adaptive_quad_1d(lambda x: x, [0.0, 2.0], [1.0, 1.5], 1e-10)
    with pytest.raises(ValueError, match="at least one panel"):
        adaptive_quad_1d(lambda x: x, [], [], 1e-10)


# Multi-panel calls through the edge paths of the look-ahead replay, with the
# (value, est_error, subdivisions, stalled) that adaptive_quad_1d returned
# when it evaluated only the children of the intervals it bisected.
def _jump(x):
    # a jump of 1e6 inside [0, 0.5]: that panel bisects down to machine
    # resolution and stalls there, long before the subdivision cap
    return np.where(x < math.pi / 10, 0.0, 1e6) + np.exp(1j * 40 * x)


def _record(res):
    return repr(res.value), repr(res.est_error), res.subdivisions, res.stalled


def test_adaptive_panel_at_machine_resolution_keeps_bits():
    res = adaptive_quad_1d(_jump, [0.0, 0.5, 1.2], [0.5, 1.2, 2.0], 1e-12)
    assert _record(res) == (
        "(1685840.7097938044+0.027759681095976332j)", "2.6883507204530982e-11", 381, (0,))


@pytest.mark.parametrize("cap, value, est_error, subdivisions, stalled", [
    (9, "(-0.03203903807600265+0.1268060115518455j)", "0.2456966897771211", 36, (0, 1, 2, 3)),
    (25, "(-0.010781208287380011+0.03121335333380941j)", "0.01847079668119863", 100, (0, 1, 2, 3)),
    (40, "(-5.119508381087786e-05+0.0019471070446160038j)", "0.00022749696747773892", 152, (0, 2, 3)),
])
def test_adaptive_capped_panels_keep_bits(monkeypatch, cap, value, est_error, subdivisions, stalled):
    monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", cap)
    f = lambda x: np.exp(1j * 300 * x) * np.cos(x)
    res = adaptive_quad_1d(f, [0.0, 0.4, 0.5, 1.3], [0.4, 0.5, 1.3, 2.0], 1e-13)
    assert _record(res) == (value, est_error, subdivisions, stalled)


def test_adaptive_panels_finishing_in_different_rounds_keep_bits():
    f = lambda x: np.cos(x) * np.exp(1j * 40 * x) + 1.0 / (1.0 + 25 * x * x)
    lo, hi = [0.0, 0.3, 1.1, 2.0, 2.05], [0.3, 1.1, 2.0, 2.05, 3.5]
    res = adaptive_quad_1d(f, lo, hi, 1e-12)
    assert _record(res) == ("(0.2797365616274512+0.020596684092007916j)", "1.857442739141776e-12", 125, ())
    alone = [adaptive_quad_1d(f, a, b, 1e-12).subdivisions for a, b in zip(lo, hi)]
    assert alone == [7, 29, 31, 1, 57]


def test_adaptive_more_panels_than_the_budget_match_separate_calls():
    # more panels than one look-ahead call serves: they run in groups of
    # _BUDGET, and every panel still bisects exactly as it would alone
    f = lambda x: np.exp(1j * 3000 * x) * np.cos(x)
    edges = np.linspace(0.0, 3.0, 2 * oracle._BUDGET + 7)
    sizes = []
    res = adaptive_quad_1d(lambda x: sizes.append(x.size) or f(x), edges[:-1], edges[1:], 1e-13)
    alone = [adaptive_quad_1d(f, a, b, 1e-13) for a, b in zip(edges[:-1], edges[1:])]
    total = alone[0].value
    for r in alone[1:]:
        total += r.value
    assert repr(res.value) == repr(total)
    assert res.subdivisions == sum(r.subdivisions for r in alone)
    assert res.est_error == math.fsum(r.est_error for r in alone)
    assert sizes[0] == 15 * oracle._BUDGET
    assert max(sizes[1:]) == 15 * 2 * oracle._BUDGET


def test_adaptive_panel_groups_keep_bits(monkeypatch):
    # groups of 3 panels, each run to completion before the next: the same
    # value, estimate and count as one group of all 10, and no integrand
    # call holds more than 3 panels or the children of 3 intervals
    f = lambda x: np.exp(1j * 300 * x) * np.cos(x)
    edges = np.linspace(0.0, 2.0, 11)
    whole = adaptive_quad_1d(f, edges[:-1], edges[1:], 1e-13)
    monkeypatch.setattr(oracle, "_BUDGET", 3)
    sizes = []
    grouped = adaptive_quad_1d(lambda x: sizes.append(x.size) or f(x), edges[:-1], edges[1:], 1e-13)
    assert _record(grouped) == _record(whole)
    assert max(sizes) == 15 * 2 * 3
    # every other call evaluates pairs of children, 30 points each
    assert [n for n in sizes if n % 30] == [15 * 3, 15 * 3, 15 * 3, 15]  # each group's panels


def _counted_acoustics(monkeypatch, omega):
    # the integrand call sizes and the AdaptiveResult of one acoustics_reference
    original = oracle.adaptive_quad_1d
    sizes, results = [], []

    def counting(f, a, b, tol):
        def counted(x):
            sizes.append(np.size(x))
            return f(x)

        results.append(original(counted, a, b, tol))
        return results[-1]

    monkeypatch.setattr(oracle, "adaptive_quad_1d", counting)
    acoustics_reference(omega)
    return sizes, results[0]


def test_acoustics_one_panel_row_looks_ahead(monkeypatch):
    # one interval per integrand call made 510 calls at this omega
    sizes, res = _counted_acoustics(monkeypatch, 992.37)
    assert res.subdivisions == 1019
    assert len(sizes) <= 40


@pytest.mark.parametrize("omega", [float(w) for w in np.geomspace(10.0, 10000.0, 7)])
def test_acoustics_look_ahead_waste_and_call_size(monkeypatch, omega):
    # the duct table's frequencies: children evaluated but never bisected
    # stay under 30% of the work, and no call exceeds the look-ahead budget
    sizes, res = _counted_acoustics(monkeypatch, omega)
    assert max(sizes) <= 15 * 2 * oracle._BUDGET
    assert sum(sizes) <= 1.3 * 15 * res.subdivisions


def test_acoustics_reference_one_integrand_call_per_round(monkeypatch):
    # 100 panels bisected in lockstep: one call per round, where a call per
    # panel made 6,300 calls at this omega
    original = oracle.adaptive_quad_1d
    calls = []

    def counting(f, a, b, tol):
        def counted(x):
            calls.append(np.size(x))
            return f(x)

        return original(counted, a, b, tol)

    monkeypatch.setattr(oracle, "adaptive_quad_1d", counting)
    acoustics_reference(9952.19)
    assert len(calls) <= 64
    assert all(n % 15 == 0 for n in calls)


def test_acoustics_stalled_panel_names_omega_and_panel(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 3)
    with pytest.raises(OracleNotConverged, match=r"panel 0 \[0\.0, 0\.01\] at omega=9952\.19"):
        acoustics_reference(9952.19)
    with pytest.raises(OracleNotConverged, match=r"panel 0 \[0\.0, 1\.0\] at omega=992\.37"):
        acoustics_reference(992.37)


@pytest.mark.parametrize("a, b, tol", [
    (0.0, math.inf, 1e-10), (-math.inf, 0.0, 1e-10), (math.nan, 1.0, 1e-10),
    ([0.0, 1.0], [1.0, math.inf], 1e-10), (0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
])
def test_adaptive_rejects_non_finite_input(a, b, tol):
    # [0, inf] used to return a NaN marked only as stalled, and a NaN tol a
    # finite value with stalled=(0,)
    with pytest.raises(ValueError, match="finite"):
        adaptive_quad_1d(lambda x: np.exp(-x), a, b, tol)


@pytest.mark.parametrize("kwargs, message", [
    ({"a": 0.0}, "finite a > 0, got a=0.0"),
    ({"a": math.inf}, "finite a > 0, got a=inf"),
    ({"b": -2.0}, "finite b > 0, got b=-2.0"),
    ({"b": math.nan}, "finite b > 0, got b=nan"),
])
def test_acoustics_rejects_bad_sides(kwargs, message):
    with pytest.raises(ValueError, match=message):
        acoustics_reference(100.0, **kwargs)


@pytest.mark.parametrize("omega", [1e153, 1.0001e6])
def test_acoustics_rejects_omega_above_its_bound(omega):
    # ceil(omega/100) panels, all evaluated by the first integrand call: the
    # bound is checked before any panel is built
    with pytest.raises(ValueError, match=re.escape(f"omega <= 1e+06, got omega={omega:g}")):
        acoustics_reference(omega)


def test_acoustics_linear_phase_part():
    # (i/w) int_0^1 exp(i w x) cos x dx has a closed-form antiderivative
    omega = 10.0
    res = adaptive_quad_1d(lambda x: np.exp(1j * omega * x) * np.cos(x), 0.0, 1.0, 1e-13)

    def anti(x):
        return cmath.exp(1j * omega * x) * (1j * omega * math.cos(x) + math.sin(x)) / (1 - omega**2)

    exact = anti(1.0) - anti(0.0)
    assert abs(1j / omega * res.value - 1j / omega * exact) <= 1e-12


def test_acoustics_magnitude_decays():
    assert abs(acoustics_reference(1000.0)) < abs(acoustics_reference(10.0))


def test_acoustics_panel_split_matches_plain():
    # above the split threshold the panelled evaluation must agree with a
    # direct adaptive pass
    omega = 2500.0
    split = acoustics_reference(omega)
    plain = adaptive_quad_1d(
        lambda x: (np.exp(1j * omega * x) - np.exp(1j * omega * np.sqrt(x * x + 4.0))) * np.cos(x),
        0.0, 1.0, 1e-13,
    ).value * 1j / omega
    assert abs(split - plain) <= 1e-13


def test_acoustics_reduces_to_two_dimensional_duct():
    sc = scenes.duct_scene(50.0)
    region = scenes.default_region("duct")
    ref = brute_force_polar(sc, region, 1e-8)
    assert abs(acoustics_reference(50.0) - ref) <= 1e-7


def test_acoustics_one_by_one_square():
    # for the unit square the reduced identity carries sqrt(1 + x^2)
    omega = 40.0
    sc = scenes.duct_scene(omega, 1.0, 1.0)
    region = scenes.default_region("duct")
    ref = brute_force_polar(sc, region, 1e-9)
    assert abs(acoustics_reference(omega, 1.0, 1.0) - ref) <= 1e-7


def test_brute_force_quarter_disk():
    omega = 20.0
    sc = scenes.quarter_disk_scene(omega)
    region = scenes.default_region("quarter-disk")
    got = brute_force_polar(sc, region, 1e-10)
    exact = 2 * math.pi * (cmath.exp(1j * omega) * (1 - 1j * omega) - 1) / (4 * omega**2)
    assert abs(got - exact) <= 1e-10


def test_brute_force_rejects_unbounded():
    sc = scenes.quarter_plane_scene(10.0)
    with pytest.raises(ValueError, match="bounded"):
        brute_force_polar(sc, scenes.default_region("quarter-plane"), 1e-8)


def test_brute_force_names_unsupported_dimension():
    # 3-D references come from closed forms (specfun.ellipsoid_reference)
    sc = scenes.ellipsoid_scene(10.0)
    sc.boundary_radius = lambda *angles: 1.0
    with pytest.raises(NotImplementedError, match="n = 3"):
        brute_force_polar(sc, AngularRegion.full(3), 1e-8)


def test_brute_force_names_scene_and_region_dimensions():
    with pytest.raises(ValueError, match=r"scene\.n = 2, region\.n = 3"):
        brute_force_polar(scenes.disk_scene(10.0), AngularRegion.full(3), 1e-8)


def test_brute_force_rejects_wrong_region_type():
    sc = scenes.disk_scene(10.0)
    with pytest.raises(TypeError):
        brute_force_polar(sc, [(0.0, 1.0)], 1e-8)
