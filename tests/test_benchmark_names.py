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
    # newton_descent: one call solves every node row of a grid's paths, and
    # here no path falls back to the row-by-row continuation.  The rule
    # builds and the polar grids are counted too: the ellipse asks for the
    # trapezoid, the central and boundary rules and one endpoint rule per
    # distinct order (all its 8 endpoints have order 2); the sphere's w0 and its
    # companion build one trapezoid and two Gauss rules through the wrapped
    # names, and their Q_r on the same 100 directions are one grid call,
    # one trace of both rules' nodes (13 rows of 100 paths) in one solve
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
    assert (ellipse["paths.newton_calls"], ellipse["paths.newton_points"]) == (1, 64)
    assert ellipse["univariate.calls"] == 1
    assert (sphere["paths.newton_calls"], sphere["paths.newton_points"]) == (1, 1300)
    layers = ("rules.calls", "polar.calls", "polar.directions")
    assert tuple(ellipse[k] for k in layers) == (4, 2, 104)
    assert tuple(sphere[k] for k in layers) == (3, 1, 200)


def test_tracer_counts_the_rules_of_every_descent_sum():
    # every rule is built through a wrapped name, so the rule counts of the
    # --trace 1 records see each descent sum.  Duct: the outer CC, the
    # central Q_r's rule and the corner Laguerre and Hermite rules.  Disk:
    # the trapezoid and the central and boundary grids' rules.  Example1:
    # the outer CC and the Q_r rule of its polar row, and the Laguerre and
    # Hermite rules that the four corner terms of its direct row share
    from nsdq import experiments, polar, scenes

    tracer = _tracer()
    tracer.install()
    try:
        experiments.run_duct([1000.0], n_gl=8)
        duct = tracer.take()["counts"]
        region = scenes.default_region("disk")
        polar.integrate_star_shaped(scenes.disk_scene(100.0), region,
                                    polar.OuterPlan.for_region(region, trap=16), 4)
        disk = tracer.take()["counts"]
        experiments.run_example1([10.0], m=4, outer_cc=10)
        example1 = tracer.take()["counts"]
    finally:
        tracer.restore()
    layers = ("rules.calls", "polar.calls", "polar.directions")
    assert tuple(duct[k] for k in layers) == (4, 1, 30)
    assert tuple(disk[k] for k in layers) == (3, 2, 32)
    assert tuple(example1[k] for k in layers) == (4, 1, 10)


def test_tracer_counts_do_not_depend_on_the_grid_cache():
    # perfbench compares the layer counts of a cold traced sweep with those
    # of the warm ones (run.sweep_counts, without the rule cache's hits and
    # cold builds).  The outer grid cache, the ellipsoid's shared slope and
    # the kept stationary-point scan must leave every wrapped call in place:
    # an op on cold caches and the same op on warm ones count alike
    from nsdq import experiments, polar, scenes

    region = scenes.default_region("ellipse")
    plan = polar.OuterPlan.for_region(region, trap=40)
    ops = {"ellipsoid": lambda: experiments.run_ellipsoid([300.0], m=8, outer_cc=50, outer_trap=50),
           "ellipse": lambda: polar.integrate_star_shaped(scenes.ellipse_scene(100.0), region, plan, 8)}
    tracer = _tracer()
    tracer.install()
    try:
        counts = {}
        for name, op in ops.items():
            polar._grids.clear()
            scenes._last_slope[0] = polar._last_scan[0] = None
            for _ in range(2):
                op()
                taken = tracer.take()["counts"]
                del taken["rules.hits"], taken["rules.cold_builds"]
                counts.setdefault(name, []).append(taken)
    finally:
        tracer.restore()
    for cold, warm in counts.values():
        assert cold == warm
    assert counts["ellipsoid"][0]["rules.calls"] == 3
    assert counts["ellipse"][0]["rules.calls"] == 4
