import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from nsdq.oracle import adaptive_quad_1d
from nsdq.specfun import EULER_GAMMA, cos_int, ellipsoid_reference, sin_int

mp.mp.dps = 30


def test_si_ci_special_points():
    assert sin_int(0.0) == 0.0
    assert abs(sin_int(1e6) - math.pi / 2) < 2e-6
    # frozen from the power series gamma + ln x + sum (-1)^k x^(2k)/(2k (2k)!)
    assert abs(cos_int(1.0) - 0.33740392290096816) < 1e-15


def test_si_ci_against_mpmath():
    for x in [0.1, 0.5, 1.0, 3.9, 4.0, 4.1, 7.0, 25.0, 100.0, 5000.0]:
        assert abs(sin_int(x) - float(mp.si(x))) < 1e-12
        assert abs(cos_int(x) - float(mp.ci(x))) < 1e-12


def test_si_ci_derivatives():
    # d/dx Si = sin(x)/x and d/dx Ci = cos(x)/x by central differences
    h = 1e-5
    for x in np.linspace(0.5, 50.0, 40):
        dsi = (sin_int(x + h) - sin_int(x - h)) / (2 * h)
        dci = (cos_int(x + h) - cos_int(x - h)) / (2 * h)
        assert abs(dsi - math.sin(x) / x) < 1e-7
        assert abs(dci - math.cos(x) / x) < 1e-7


def test_si_ci_domains():
    with pytest.raises(ValueError):
        sin_int(-1.0)
    with pytest.raises(ValueError):
        cos_int(0.0)
    with pytest.raises(ValueError):
        cos_int(-3.0)
    with pytest.raises(ValueError):
        sin_int(2e8)
    with pytest.raises(ValueError):  # used to return nan
        sin_int(math.nan)


def test_euler_gamma_value():
    assert abs(EULER_GAMMA - float(mp.euler)) < 1e-16


def test_ellipsoid_reference_against_mpmath():
    for om in [0.5, 1.0, 4.0, 10.0, 100.0, 1000.0]:
        exact = mp.sqrt(mp.mpf(2) / 3) * mp.pi * (1j * mp.cos(om) + mp.sin(om)) * (
            mp.pi + 2j * mp.ci(om) - 2 * mp.si(om)
        )
        got = ellipsoid_reference(om)
        assert abs(got - complex(exact)) <= 1e-13 * abs(complex(exact))


def test_ellipsoid_reference_vanishes_at_infinity():
    assert abs(ellipsoid_reference(1e6)) < 1e-5
    assert abs(ellipsoid_reference(1e6)) < abs(ellipsoid_reference(10.0))


def test_ellipsoid_reference_unimodular_factor():
    # |i cos w + sin w| = 1 exactly, so the magnitude is carried by the tail
    om = 100.0
    assert abs(abs(1j * math.cos(om) + math.sin(om)) - 1.0) < 1e-15
    tail = math.pi + 2j * cos_int(om) - 2 * sin_int(om)
    assert abs(abs(ellipsoid_reference(om)) - math.sqrt(2 / 3) * math.pi * abs(tail)) < 1e-13


def test_ellipsoid_reference_independent_oracle():
    # Rebuild the value without Si/Ci: the integral factorizes in spherical
    # coordinates into an angular part A = int s^-3 dTheta (nested adaptive)
    # and a radial part J = int_0^inf exp(i w u)/(1+u) du (adaptive over
    # [0, T] plus the integration-by-parts tail expansion at T).
    omega = 10.0

    def slope(phi1, phi2):
        return np.sqrt(np.cos(phi1) ** 2 + 0.5 * (5 + np.cos(2 * phi2)) * np.sin(phi1) ** 2)

    def inner(phi1):
        phi1 = np.atleast_1d(phi1)
        vals = []
        for p1 in phi1:
            res = adaptive_quad_1d(lambda p2: slope(p1, p2) ** -3, 0.0, 2 * math.pi, 1e-11)
            vals.append(res.value * math.sin(p1))
        return np.array(vals)

    A = adaptive_quad_1d(inner, 0.0, math.pi, 1e-10).value
    # angular factor must come out as 2 sqrt(2/3) pi
    assert abs(A - 2 * math.sqrt(2 / 3) * math.pi) < 1e-8

    T = 50.0
    body = adaptive_quad_1d(lambda u: np.exp(1j * omega * u) / (1 + u), 0.0, T, 1e-13).value
    # int_T^inf exp(i w u)/(1+u) du = -exp(i w T) sum_j j! / ((1+T)(i w))^(j+1)
    z = (1 + T) * 1j * omega
    tail = -cmath.exp(1j * omega * T) * sum(math.factorial(j) / z ** (j + 1) for j in range(12))
    J = body + tail
    oracle_value = A * J
    ref = ellipsoid_reference(omega)
    assert abs(oracle_value - ref) <= 1e-8 * abs(ref)
