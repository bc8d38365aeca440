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
