"""The scene broadcasting contract behind the node x direction pre-quadrature.

``RadialScene`` callables are elementwise: ``z`` may carry leading node axes
in front of the angle shape, and each element of the result depends only on
the matching elements of ``z`` and the angles.  The radial pre-quadrature
relies on this to evaluate every radial node of a direction grid in one
call; these tests check that the node-axis samples equal per-node
evaluation bit for bit on every registered scene.
"""

import math

import numpy as np
import pytest

from nsdq import scenes
from nsdq.polar import (
    AngularRegion,
    OuterPlan,
    _boundary_samples,
    _origin_samples,
    _outer_grid,
    normalize_scene,
)
from nsdq.rules import gauss_exp_power

OMEGA = 50.0
M = 6


def _cases():
    for name, build in scenes.scene_registry().items():
        yield name, build(OMEGA), scenes.default_region(name)
    region = scenes.default_region("sphere-scatter")
    for label, psi in (("sphere-psi0", 0.0), ("sphere-psi-pi3", math.pi / 3)):
        yield label, scenes.sphere_scatter_scene(OMEGA, psi), region
    # Newton-traced origin and boundary paths with a finite-difference dg
    normalized = normalize_scene(np.zeros(2), lambda x: np.exp(-x[0]), lambda x: x[0] + 2.0 * x[1],
                                 OMEGA, boundary_radius=lambda th: 1.0 + 0.0 * np.asarray(th))
    yield "normalized", normalized, AngularRegion.box(2, (0.0, 0.5 * math.pi))
    # Newton-traced paths of a scene whose oscillator and alpha_coeff ignore the angle
    traced = scenes.duct_scene(OMEGA)
    traced.origin_path = traced.boundary_path = None
    yield "duct-traced", traced, scenes.default_region("duct")


CASES = list(_cases())


def _grid(region):
    plan = OuterPlan.for_region(region, cc=5, trap=6)
    mesh, _ = _outer_grid(region, plan)
    return tuple(mesh)


def _same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.ascontiguousarray(np.broadcast_to(b, a.shape), dtype=complex)
    return a.tobytes() == b.tobytes()


def _check_samples(scene, angles, rho, drho, ps, path):
    grid = np.broadcast_shapes(*(np.shape(a) for a in angles))
    assert rho.shape == drho.shape == (len(ps),) + grid
    for j, p in enumerate(ps):
        if path is not None:
            rho_j, drho_j = path(p, *angles)
            assert _same_bits(rho[j], rho_j)
        else:
            drho_j = 1j / np.asarray(scene.d_oscillator(rho[j], *angles), dtype=complex)
        assert _same_bits(drho[j], drho_j)


@pytest.mark.parametrize("name,scene,region", CASES, ids=[c[0] for c in CASES])
def test_origin_samples_match_per_node(name, scene, region):
    angles = _grid(region)
    ps = gauss_exp_power(M, 1, 0).nodes / OMEGA
    rho, drho = _origin_samples(scene, angles, ps)
    _check_samples(scene, angles, rho, drho, ps, scene.origin_path)


@pytest.mark.parametrize("name,scene,region",
                         [c for c in CASES if c[1].boundary_radius is not None],
                         ids=[c[0] for c in CASES if c[1].boundary_radius is not None])
def test_boundary_samples_match_per_node(name, scene, region):
    angles = _grid(region)
    ps = gauss_exp_power(M, 1, 0).nodes / OMEGA
    rho, drho = _boundary_samples(scene, angles, ps)
    _check_samples(scene, angles, rho, drho, ps, scene.boundary_path)


@pytest.mark.parametrize("name,scene,region", CASES, ids=[c[0] for c in CASES])
def test_callables_are_elementwise_over_node_axis(name, scene, region):
    angles = _grid(region)
    ps = gauss_exp_power(M, 1, 0).nodes / OMEGA
    rho, _ = _origin_samples(scene, angles, ps)
    for fn in (scene.amplitude, scene.oscillator, scene.d_oscillator):
        stacked = fn(rho, *angles)
        for j in range(M):
            assert _same_bits(np.broadcast_to(stacked, rho.shape)[j], fn(rho[j], *angles))


# The sphere scene shares its kernel terms between its callables through a
# one-slot cache on the argument values.  Each call must still return what a
# freshly built scene returns, bit for bit, whatever came before it.
SPHERE_PSIS = [0.0, math.pi / 3]
FIELDS = ("oscillator", "d_oscillator", "amplitude")


def _assert_fresh(scene, psi, field, z, th):
    got = getattr(scene, field)(z, th)
    want = getattr(scenes.sphere_scatter_scene(OMEGA, psi), field)(np.copy(z), np.copy(th))
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _sphere_rows(psi):
    # origin-path points of a small direction grid, node axis leading
    angles = _grid(scenes.default_region("sphere-scatter"))
    rho, _ = _origin_samples(scenes.sphere_scatter_scene(OMEGA, psi), angles,
                             gauss_exp_power(M, 1, 0).nodes / OMEGA)
    return rho, angles[0]


@pytest.mark.parametrize("psi", SPHERE_PSIS)
def test_sphere_interleaved_calls_match_a_fresh_scene(psi):
    rho, th = _sphere_rows(psi)
    scene = scenes.sphere_scatter_scene(OMEGA, psi)
    for j in (0, 1, 1, 0, 2):
        for field in FIELDS[j % 3:] + FIELDS[:j % 3]:
            _assert_fresh(scene, psi, field, rho[j], th)
    _assert_fresh(scene, psi, "amplitude", rho[3], th)
    _assert_fresh(scene, psi, "amplitude", rho[3], th[::-1])
    _assert_fresh(scene, psi, "d_oscillator", rho[3], th[::-1])
    _assert_fresh(scene, psi, "oscillator", rho[3], th)


@pytest.mark.parametrize("psi", SPHERE_PSIS)
def test_sphere_arrays_mutated_in_place_match_a_fresh_scene(psi):
    rho, th = _sphere_rows(psi)
    z, th = rho[0].copy(), th.copy()
    scene = scenes.sphere_scatter_scene(OMEGA, psi)
    for field in FIELDS:
        scene.oscillator(z, th)
        z *= 1.01
        _assert_fresh(scene, psi, field, z, th)
        th += 0.1
        _assert_fresh(scene, psi, field, z, th)


@pytest.mark.parametrize("psi", SPHERE_PSIS)
def test_sphere_signed_zero_and_dtype_match_a_fresh_scene(psi):
    # 1+0j and 1-0j compare equal, but the amplitudes on them differ in the
    # sign of a zero; a float z compares equal to its complex copy
    th = np.linspace(0.1, 6.0, 5)
    z = np.array([0.5, 1.0, 2.0, 3.0, 5.0]) + 0j
    scene = scenes.sphere_scatter_scene(OMEGA, psi)
    for first, then in ((z, np.conj(z)), (z.real, z)):
        for field in FIELDS:
            scene.oscillator(first, th)
            _assert_fresh(scene, psi, field, then, th)


@pytest.mark.parametrize("psi", SPHERE_PSIS)
def test_sphere_nan_element_matches_a_fresh_scene(psi):
    rho, th = _sphere_rows(psi)
    z = rho[2].copy()
    z[1] = complex(np.nan, 0.0)
    scene = scenes.sphere_scatter_scene(OMEGA, psi)
    with np.errstate(invalid="ignore"):
        for field in FIELDS + FIELDS[::-1]:
            _assert_fresh(scene, psi, field, z, th)
        _assert_fresh(scene, psi, "d_oscillator", rho[2], th)


@pytest.mark.parametrize("psi", SPHERE_PSIS)
def test_sphere_scalar_z_matches_a_fresh_scene(psi):
    scene = scenes.sphere_scatter_scene(OMEGA, psi)
    for z, th in ((0.3 + 0.02j, 0.7), (0.3 + 0.02j, 0.7), (0.3 + 0.02j, np.float64(1.2)), (0.4, 1.2)):
        for field in FIELDS:
            _assert_fresh(scene, psi, field, z, th)


@pytest.mark.parametrize("psi", SPHERE_PSIS)
def test_sphere_node_axis_z_matches_a_fresh_scene(psi):
    # the (m,) + grid array of the pre-quadrature after the rows it stacks
    rho, th = _sphere_rows(psi)
    scene = scenes.sphere_scatter_scene(OMEGA, psi)
    for field in FIELDS:
        scene.oscillator(rho[-1], th)
        _assert_fresh(scene, psi, field, rho, th)
        _assert_fresh(scene, psi, field, rho[:, :1], th[:1])
