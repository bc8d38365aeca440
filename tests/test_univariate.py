import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nsdq import univariate
from nsdq.oracle import adaptive_quad_1d
from nsdq.paths import PathError, newton_descent
from nsdq.rules import gauss_exp_power
from nsdq.specfun import cos_int, sin_int
from nsdq.univariate import Endpoint1D, endpoint_contribution, nsd_interval


def _quad_oracle(f, g, a, b, omega, tol=1e-13):
    re = quad(lambda x: (f(x) * cmath.exp(1j * omega * g(x))).real, a, b,
              epsabs=tol, epsrel=tol, limit=2000)[0]
    im = quad(lambda x: (f(x) * cmath.exp(1j * omega * g(x))).imag, a, b,
              epsabs=tol, epsrel=tol, limit=2000)[0]
    return complex(re, im)


def test_linear_endpoint_at_origin():
    one = lambda z: 1.0
    ident = lambda z: z
    for omega in (3.0, 40.0):
        got = endpoint_contribution(one, ident, [Endpoint1D(0.0)], omega, 1, dg=lambda z: 1.0)[0]
        assert abs(got - 1j / omega) <= 1e-14 * abs(1j / omega)


def test_linear_endpoint_with_phase():
    one = lambda z: 1.0
    ident = lambda z: z
    omega = 25.0
    got = endpoint_contribution(one, ident, [Endpoint1D(1.0)], omega, 1, dg=lambda z: 1.0)[0]
    expect = 1j * cmath.exp(1j * omega) / omega
    assert abs(got - expect) <= 1e-14 * abs(expect)


def test_quadratic_endpoint_fresnel():
    # int_0^inf exp(i w x^2) dx = (1/2) sqrt(pi/w) exp(i pi/4)
    omega = 20.0
    got = endpoint_contribution(
        lambda z: 1.0, lambda z: z * z, [Endpoint1D(0.0, alpha_local=2)], omega, 8,
        dg=lambda z: 2.0 * z,
    )[0]
    expect = 0.5 * math.sqrt(math.pi / omega) * cmath.exp(1j * math.pi / 4)
    assert abs(got - expect) <= 1e-6


def test_interval_linear_exact():
    omega = 17.0
    got = nsd_interval(lambda z: 1.0, lambda z: z, 0.0, 1.0, omega, 1, dg=lambda z: 1.0)
    expect = (cmath.exp(1j * omega) - 1.0) / (1j * omega)
    assert abs(got - expect) <= 1e-14 * abs(expect)


def test_interval_cosine_amplitude():
    omega = 100.0
    got = nsd_interval(np.cos, lambda z: z, 0.0, 1.0, omega, 6, dg=lambda z: 1.0)
    oracle = _quad_oracle(math.cos, lambda x: x, 0.0, 1.0, omega)
    assert abs(got - oracle) <= 1e-10


def test_interval_quadratic_phase():
    omega = 50.0
    got = nsd_interval(lambda z: 1.0, lambda z: z * z, 0.0, 1.0, omega, 8,
                       dg=lambda z: 2.0 * z, alpha_a=2)
    oracle = _quad_oracle(lambda x: 1.0, lambda x: x * x, 0.0, 1.0, omega)
    assert abs(got - oracle) <= 1e-7


def test_interval_needs_increasing_ends():
    # an alpha >= 2 endpoint's branch is chosen from its side, which assumes
    # a < b: [1, 0] with alpha_b = 2 read 0.0913+0.0982j, where the value is
    # -0.0859-0.0790j
    f, g, dg = lambda z: 1.0, lambda z: z * z, lambda z: 2.0 * z
    with pytest.raises(ValueError, match=r"a < b, got \[1\.0, 0\.0\]"):
        nsd_interval(f, g, 1.0, 0.0, 50.0, 8, dg=dg, alpha_b=2)
    with pytest.raises(ValueError, match=r"a < b, got \[0\.4, 0\.4\]"):
        nsd_interval(f, g, [0.0, 0.4], [0.4, 0.4], 50.0, 8, dg=dg)
    with pytest.raises(ValueError, match=r"a < b, got \[nan, 1\.0\]"):
        nsd_interval(f, g, math.nan, 1.0, 50.0, 8, dg=dg)


def test_interval_rejects_empty_interval_lists():
    # used to raise numpy's "zero-size array to reduction operation minimum"
    with pytest.raises(ValueError, match="empty a and b"):
        nsd_interval(lambda z: 1.0, lambda z: z, [], [], 10.0, 4, dg=lambda z: 1.0)


def test_interval_endpoint_orders_must_be_integers():
    # alpha_a = 2.7 was truncated to 2, and 1.5 to 1, whose vanishing
    # coefficient was blamed instead
    f, g, dg = lambda z: 1.0, lambda z: z * z, lambda z: 2.0 * z
    for name, bad in (("alpha_a", 2.7), ("alpha_a", 1.5), ("alpha_b", 2.0), ("alpha_b", [1, 0])):
        with pytest.raises(ValueError, match=f"{name} must hold integers >= 1"):
            nsd_interval(f, g, [0.0, 0.5], [0.5, 1.0], 50.0, 8, dg=dg, **{name: bad})


def test_endpoint_contribution_rejects_no_endpoints():
    # used to raise numpy's "need at least one array to stack"
    with pytest.raises(ValueError, match=r"endpoint_contribution needs at least one endpoint, got endpoints=\[\]"):
        endpoint_contribution(lambda z: 1.0, lambda z: z, [], 10.0, 4, dg=lambda z: 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_endpoint_location_must_be_finite(x):
    # a non-finite x ramped 16 quarters and then blamed the series seed
    with pytest.raises(ValueError, match=f"x must be finite, got x={x!r}"):
        Endpoint1D(x)


@pytest.mark.parametrize("omega", [20.0, 50.0, 200.0])
def test_interval_cubic_phase(omega):
    # alpha = 3 at 0: the branch seed's coefficient comes from the third-order
    # central difference, and the path (i p)^(1/3) is exact for the rule
    got = nsd_interval(lambda z: 1.0, lambda z: z**3, 0.0, 1.0, omega, 8,
                       dg=lambda z: 3.0 * z**2, alpha_a=3)
    ref = adaptive_quad_1d(lambda x: np.exp(1j * omega * x**3), 0.0, 1.0, 1e-14)
    assert ref.converged
    assert abs(got - ref.value) <= 5e-14 * abs(ref.value)


def test_endpoint_first_row_ramp(monkeypatch):
    # g = z + c z^2 at x = 0, w = 1: the first node's root lies 0.73 |seed|
    # from the seed i p, beyond the 0.5 trust radius, so the tracer ramps up
    # from p/4^3 (1 + 3 + 8 * 3 calls) before the other m - 1 rows
    c, m = 30.0, 8
    calls, paths = [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return newton_descent(*args, **kwargs)

    def f(z):
        paths.append(z)
        return np.ones_like(z)

    monkeypatch.setattr(univariate, "newton_descent", counted)
    endpoint_contribution(f, lambda z: z + c * z * z, [Endpoint1D(0.0)], 1.0, m,
                          dg=lambda z: 1.0 + 2.0 * c * z)
    assert len(calls) == 1 + 3 + 8 * 3 + (m - 1)
    p = gauss_exp_power(m, 1, 0).nodes
    exact = (-1.0 + np.sqrt(1.0 + 4.0 * c * 1j * p)) / (2.0 * c)
    assert np.max(np.abs(paths[0][:, 0] - exact) / np.abs(exact)) <= 1e-13


def test_endpoint_without_trusted_seed_is_named():
    # dg(1) = -1 points the seed at 1 - i p while the path runs to 1 + i p:
    # no quartering of p brings the root near its seed, and the error names
    # that endpoint only
    dg = lambda z: np.where(z == 1.0, -1.0, 1.0) + 0j
    ends = [Endpoint1D(0.0), Endpoint1D(1.0, side=-1)]
    with pytest.raises(PathError, match=r"p/4\^16 .* failing endpoints \(x=1\.0, alpha=1, side=-1\)$"):
        endpoint_contribution(lambda z: 1.0, lambda z: z, ends, 10.0, 4, dg=dg)


def _closed_form_inverse_linear(omega):
    # int_0^1 exp(i w x)/(1+x) dx via the cosine/sine integrals
    return cmath.exp(-1j * omega) * complex(
        cos_int(2 * omega) - cos_int(omega), sin_int(2 * omega) - sin_int(omega)
    )


@pytest.mark.parametrize("m, bound", [(1, -0.5), (2, -2.5), (3, -4.5)])
def test_asymptotic_order(m, bound):
    # log-log slope of the error against the closed form must beat the
    # descent-rule order bound -(2m - 1) + 0.5
    f = lambda z: 1.0 / (1.0 + z)
    omegas = np.arange(50.0, 801.0, 50.0)
    pts = []
    for omega in omegas:
        got = nsd_interval(f, lambda z: z, 0.0, 1.0, omega, m, dg=lambda z: 1.0)
        err = abs(got - _closed_form_inverse_linear(omega))
        if err > 1e-15:
            pts.append((math.log(omega), math.log(err)))
    assert len(pts) >= 3, f"m={m}: too few points above the floor"
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope = np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)[0][0]
    assert slope <= bound, f"m={m}: slope {slope} above {bound}"


@given(
    ar=st.floats(-2, 2), ai=st.floats(-2, 2),
    br=st.floats(-2, 2), bi=st.floats(-2, 2),
)
@settings(max_examples=20, deadline=None)
def test_linearity_in_amplitude(ar, ai, br, bi):
    alpha = complex(ar, ai)
    beta = complex(br, bi)
    omega, m = 30.0, 4
    f1 = lambda z: np.cos(z)
    f2 = lambda z: 1.0 / (1.0 + z)
    combo = lambda z: alpha * f1(z) + beta * f2(z)
    dg = lambda z: 1.0
    lhs = nsd_interval(combo, lambda z: z, 0.0, 1.0, omega, m, dg=dg)
    rhs = alpha * nsd_interval(f1, lambda z: z, 0.0, 1.0, omega, m, dg=dg) \
        + beta * nsd_interval(f2, lambda z: z, 0.0, 1.0, omega, m, dg=dg)
    assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_phase_shift_covariance():
    omega, m, c = 40.0, 4, 0.7
    f = lambda z: np.cos(z)
    base = nsd_interval(f, lambda z: z, 0.0, 1.0, omega, m, dg=lambda z: 1.0)
    shifted = nsd_interval(f, lambda z: z + c, 0.0, 1.0, omega, m, dg=lambda z: 1.0)
    assert abs(shifted - cmath.exp(1j * omega * c) * base) <= 1e-13 * abs(base)


def test_endpoint_derivative_is_i_over_dg_on_the_roots(monkeypatch):
    # the ellipse's boundary term on a box around its stationary point at
    # pi/2: alpha = 1 endpoints at the box ends, alpha = 2 on either side of
    # pi/2.  The path derivative the continuation returns must equal
    # i / dG on the stacked roots bit for bit.
    from nsdq import polar, scenes

    seen, trace = [], univariate._trace

    def recorded(g, dg, base, p, seed, start, alpha, context):
        z, dz = trace(g, dg, base, p, seed, start, alpha, context)
        seen.append((dg, alpha, z, dz))
        return z, dz

    monkeypatch.setattr(univariate, "_trace", recorded)
    sc = scenes.ellipse_scene(100.0)
    region = polar.AngularRegion.box(2, (0.3, 2.5))
    polar.integrate_star_shaped(sc, region, polar.OuterPlan.for_region(region, cc=20), 8)
    (dg, alpha, z, dz), = seen
    assert list(alpha) == [1, 2, 2, 1]
    expected = 1j / np.broadcast_to(np.asarray(dg(z), dtype=complex), z.shape)
    assert np.ascontiguousarray(dz).tobytes() == np.ascontiguousarray(expected).tobytes()


def test_endpoint_validation():
    for bad in (0, 2.5, 2.0):
        with pytest.raises(ValueError, match="alpha_local"):
            Endpoint1D(0.0, alpha_local=bad)
    with pytest.raises(ValueError, match="side"):
        Endpoint1D(0.0, side=0)
    with pytest.raises(ValueError, match="omega"):
        endpoint_contribution(lambda z: 1.0, lambda z: z, [Endpoint1D(0.0)], -1.0, 2)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="omega"):
            endpoint_contribution(lambda z: 1.0, lambda z: z, [Endpoint1D(0.0)], bad, 2)


# the finite-difference derivative carries ~1e-11 relative round-off, which
# the extra Newton steps of the joint solve expose
@pytest.mark.parametrize("dg, tol", [(lambda z: 2.0 * z, 1e-13), (None, 1e-11)],
                         ids=["analytic", "finite-difference"])
def test_endpoint_sequence_matches_single_endpoints(dg, tol):
    # a sequence of endpoints, mixed orders and sides, is traced in one
    # continuation; each value must match the endpoint traced on its own
    f = lambda z: 1.0 / (1.0 + z)
    g = lambda z: z * z
    ends = [Endpoint1D(0.0, alpha_local=2), Endpoint1D(1.0, side=-1), Endpoint1D(0.5)]
    batch = endpoint_contribution(f, g, ends, 40.0, 6, dg=dg)
    assert batch.shape == (3,)
    for e, got in zip(ends, batch):
        single = endpoint_contribution(f, g, [e], 40.0, 6, dg=dg)[0]
        assert abs(got - single) <= tol * abs(single)


def test_interval_arrays_sum_in_order():
    omega, m = 30.0, 4
    f = lambda z: np.cos(z)
    parts = [nsd_interval(f, lambda z: z, a, b, omega, m, dg=lambda z: 1.0)
             for a, b in ((0.0, 0.4), (0.4, 1.0))]
    whole = nsd_interval(f, lambda z: z, [0.0, 0.4], [0.4, 1.0], omega, m, dg=lambda z: 1.0)
    assert abs(whole - (parts[0] + parts[1])) <= 1e-14 * abs(whole)


def test_vanishing_phase_coefficient_names_endpoint():
    # g = z^2 declared linear at 0: the seed coefficient g'(0) vanishes
    ends = [Endpoint1D(0.5), Endpoint1D(0.0)]
    with pytest.raises(PathError, match=r"omega=5\.0: .* \(x=0\.0, alpha=1, side=\+1\);"):
        endpoint_contribution(lambda z: 1.0, lambda z: z * z, ends, 5.0, 4, dg=lambda z: 2.0 * z)
