"""The sphere-scattering kernel against an mpmath evaluation.

The scene writes its oscillator on the half-angle offsets, where
cos u cos v - 1 = -(sin^2 a + sin^2 b) has no cancellation, and g and g'
in forms that do not cancel near the shadow boundary; the reference here
forms g from u and v directly, at 40 digits, where the cancellation costs
nothing.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from nsdq import scenes
from nsdq.rules import trapezoid_periodic

THETAS = np.linspace(0.0, 2.0 * math.pi, 13)[:-1] + 0.1
ARGS = (0.0, 0.5, 1.0, 1.5)  # arg z: real, towards the descent direction i p / (1 - d3 cos theta)


def _oscillator(z, th, psi):
    # g = sqrt(2 - 2 cos u cos v) + d1 (cos u cos v - 1) + d3 sin u with
    # u = -z cos theta, v = z sin theta; the root is z sqrt(C), C = (2 - 2 cos u cos v)/z^2
    d1, d3 = -mp.cos(psi), mp.sin(psi)
    u, v = -z * mp.cos(th), z * mp.sin(th)
    cc = mp.cos(u) * mp.cos(v)
    return z * mp.sqrt((2 - 2 * cc) / z**2) + d1 * (cc - 1) + d3 * mp.sin(u)


@pytest.mark.parametrize("psi, g_bound", [(0.0, 4e-15), (1.047, 4e-15), (1.5, 6e-15)])
@pytest.mark.parametrize("radius", [1e-3, 1e-2, 0.06, 0.3])
def test_sphere_oscillator_against_mpmath(psi, g_bound, radius):
    # g and g' to a few eps relative at every |z|.  A g that forms
    # d1 (cos u cos v - 1) by cancellation carries an absolute round-off of
    # about eps: it read up to 6.0e-13 relative on this grid (psi = 1.047,
    # |z| = 1e-3).  Near the shadow boundary, where 1 - sin(psi) cos(theta)
    # is small, g = |r| - d.r and the plain g' cancel (5.5e-14 and 4.2e-14
    # at psi = 1.5); the scene's forms do not.  g reads up to 4.5e-15 there:
    # sin v = sin(a + b) loses digits where sin(theta) is small
    sc = scenes.sphere_scatter_scene(100.0, psi)
    worst_g = worst_dg = 0.0
    with mp.workdps(40):
        for arg in ARGS:
            z = radius * np.exp(1j * arg) + 0.0 * THETAS
            g, dg = sc.oscillator(z, THETAS), sc.d_oscillator(z, THETAS)
            for zj, th, gj, dgj in zip(z, THETAS, g, dg):
                f = lambda w: _oscillator(w, mp.mpf(float(th)), mp.mpf(psi))
                want, dwant = complex(f(mp.mpc(zj))), complex(mp.diff(f, mp.mpc(zj)))
                worst_g = max(worst_g, abs(gj - want) / abs(want))
                worst_dg = max(worst_dg, abs(dgj - dwant) / abs(dwant))
    assert worst_g <= g_bound and worst_dg <= 4e-15, (worst_g, worst_dg)


@pytest.mark.parametrize("psi, bound", [(0.0, 4e-15), (math.pi / 10, 4e-15), (math.pi / 5, 4e-15),
                                        (math.pi / 3, 4e-15), (1.3, 6e-15), (1.5, 1.2e-14)])
def test_sphere_kernel_is_even_in_theta(psi, bound):
    # d2 = 0, so theta -> -theta maps (a, b) to (-b, -a), which flips only
    # r2 and t2, and g and g' read them as r2^2 and r2 t2: g, g' and the
    # amplitude at theta_k and at the node theta_(N-k) = 2 pi - theta_k of
    # the 100-node trapezoid agree, on 13 rows of complex z, which lets
    # run_sphere_scatter trace half the directions.  The node bits are not
    # exactly -theta_k, and near the shadow boundary g is small around
    # theta = 0, so its condition in theta adds to the scene's own
    # round-off: measured 6.4e-15 at psi = 1.5, 3.4e-15 at 1.3 and at most
    # 1.9e-15 up to pi/3
    n = 100
    th = trapezoid_periodic(n, 2.0 * math.pi).nodes
    z = (np.geomspace(1e-3, 0.5, 13) * np.exp(1j * np.linspace(0.0, 1.5, 13)))[:, None] + 0.0 * th
    sc = scenes.sphere_scatter_scene(100.0, psi)
    for f in (sc.oscillator, sc.d_oscillator, sc.amplitude):
        here, mirrored = f(z, th), f(z, th[-np.arange(n)])
        assert here.shape == (13, n)
        assert np.max(np.abs(mirrored - here) / np.abs(here)) <= bound, f
