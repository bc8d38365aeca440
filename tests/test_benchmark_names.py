"""The names the benchmark's layer tracer wraps must exist in nsdq.

``perfbench/layertrace.py`` times layers by replacing nsdq functions by
name from outside the library.  Deleting or renaming one of them breaks
``perfbench/run.py``; this test makes that a tier-1 failure.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from layertrace import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer()


def test_tracer_installs_and_restores():
    tracer = _tracer()
    tracer.install()
    tracer.restore()


def test_tracer_counts_every_newton_call():
    # every traced path, radial or endpoint, must reach the wrapped
    # newton_descent: one call per node row of the continuation.  The rule
    # builds and the polar grids are counted too: the sphere's w0 and its
    # companion build one trapezoid, two Gauss rules and two Q_r grids on
    # the same 100 directions through the wrapped names, whichever
    # composition sums them
    from nsdq import experiments, polar, scenes

    tracer = _tracer()
    tracer.install()
    try:
        region = scenes.default_region("ellipse")
        polar.integrate_star_shaped(scenes.ellipse_scene(100.0), region,
                                    polar.OuterPlan.for_region(region, trap=40), 8)
        ellipse = tracer.take()["counts"]
        experiments.run_sphere_scatter([100.0], [0.6283], m=5, n_trap=100)
        sphere = tracer.take()["counts"]
    finally:
        tracer.restore()
    assert (ellipse["paths.newton_calls"], ellipse["paths.newton_points"]) == (8, 64)
    assert (sphere["paths.newton_calls"], sphere["paths.newton_points"]) == (13, 1300)
    layers = ("rules.calls", "polar.calls", "polar.directions")
    assert tuple(ellipse[k] for k in layers) == (11, 2, 104)
    assert tuple(sphere[k] for k in layers) == (3, 2, 200)
