"""Every name a module exports through ``__all__`` must exist, and a star
import of every module, the package root included, must succeed.

A deleted function whose ``__all__`` entry stays behind breaks
``from nsdq.<module> import *`` and nothing else, so no other test sees it.
The typed errors of the public entry points that no other test reaches are
checked here too.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import nsdq
from nsdq import experiments, polar, scenes, specfun
from nsdq.paths import RadialScene

MODULES = ["nsdq"] + [f"nsdq.{info.name}" for info in pkgutil.iter_modules(nsdq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def _varying_boundary_in_3d():
    # phase |x|^2 (alpha = 2) around the origin, inside R = 1 + 0.2 cos(phi1):
    # G = R^2 varies, and the descent in the angle is n = 2 only
    sc = polar.normalize_scene(np.zeros(3), lambda x: 1.0 + 0.0 * x[0], lambda x: np.sum(x * x, axis=0),
                               10.0, grad_g=lambda x: 2.0 * x, alpha=2,
                               boundary_radius=lambda p1, p2: 1.0 + 0.2 * np.cos(p1) + 0.0 * p2)
    region = polar.AngularRegion.full(3)
    polar.integrate_star_shaped(sc, region, polar.OuterPlan.for_region(region, cc=4, trap=8), 2)


def _scene(**fields):
    one = lambda z, *angles: 1.0 + 0.0 * z
    return RadialScene(**{"n": 2, "omega": 10.0, "amplitude": one, "oscillator": lambda z, *a: z,
                          "d_oscillator": one, **fields})


@pytest.mark.parametrize("call, error, match", [
    (lambda: polar.AngularRegion.full(4), NotImplementedError, "n = 2, 3; got 4"),
    (lambda: _scene(n=1), ValueError, "RadialScene needs n >= 2, got 1"),
    (lambda: _scene(alpha=0), ValueError, "RadialScene needs alpha >= 1, got 0"),
    (lambda: polar.integrate_star_shaped(scenes.quarter_plane_scene(10.0),
                                         scenes.default_region("quarter-plane"), polar.OuterPlan((10,)), 4),
     ValueError, "needs a bounded scene"),
    (_varying_boundary_in_3d, NotImplementedError, "n = 2 only"),
    (lambda: scenes.sphere_scatter_scene(100.0, 1.6), ValueError, "0 <= psi < pi/2"),
    (lambda: experiments.run_sphere_scatter([100.0], []), ValueError, "psi grid must be non-empty"),
    (lambda: specfun.cos_int(2e8), ValueError, "cos_int supports x <= 1e8, got 200000000.0"),
], ids=["region-full-4", "scene-n-1", "scene-alpha-0", "star-shaped-unbounded",
        "star-shaped-3d-varying", "sphere-psi", "sphere-no-psi", "cos-int-above-1e8"])
def test_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()
