"""Layer spans recorded from outside the library.

``Tracer.install`` replaces functions of nsdq with timing wrappers in every
module namespace that looks the name up at call time (``polar`` calls its
own ``newton_descent`` binding, ``experiments`` its own ``_central_grid``,
and so on), and wraps the callables of every ``RadialScene`` the
``scenes.*_scene`` builders return.  ``restore`` puts every original back.
The wrappers pass arguments and results through unchanged, so traced
values are bit-identical to untraced ones.

Each span has a name, a start, an end, a parent and the operation it
belongs to.  A layer's self time is its spans' durations minus the part
their child spans cover; its inclusive time counts only spans with no
ancestor of the same layer.  Self times of all layers add up to the
duration of the operation's root span.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

LAYERS = ("experiments", "polar", "univariate", "paths", "scenes", "rules", "specfun", "oracle")

_SCENE_BUILDERS = ("quarter_plane_scene", "disk_scene", "ellipse_scene", "duct_scene",
                   "ellipsoid_scene", "sphere_scatter_scene")
_SCENE_FIELDS = ("amplitude", "oscillator", "d_oscillator", "alpha_coeff", "boundary_radius",
                 "origin_path", "boundary_path")


class Tracer:
    """Span recorder and per-layer counters; one per traced run."""

    def __init__(self):
        self._stack = []          # frames [layer, child_seconds, span_id]
        self._depth = Counter()   # open spans per layer
        self._patches = []        # (owner, attribute, original)
        self._seen_rules = set()  # (name, args) of every rule built so far
        self._next_id = 0
        self.op_id = None
        self.record = False
        self.spans = []           # (span_id, parent_id, op_id, name, start, end)
        self.reset()

    def reset(self):
        """Zero the per-operation accumulators."""
        self.self_s = Counter()
        self.incl_s = Counter()
        self.counts = Counter()
        self.cold_rules_s = 0.0

    def take(self) -> dict:
        """Accumulators of the operation that just ran; then reset them."""
        out = {"self_s": self.self_s, "incl_s": self.incl_s, "counts": self.counts,
               "cold_rules_s": self.cold_rules_s}
        self.reset()
        return out

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer, name, before=None, after=None):
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            ctx = None
            if before is not None:
                args, ctx = before(args)
            if layer is None:
                result = fn(*args, **kwargs)
                dur = 0.0
            else:
                span_id = self._next_id
                self._next_id += 1
                frame = [layer, 0.0, span_id]
                stack.append(frame)
                depth[layer] += 1
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    depth[layer] -= 1
                    dur = t1 - t0
                    self.self_s[layer] += dur - frame[1]
                    if depth[layer] == 0:
                        self.incl_s[layer] += dur
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[1] += dur
                    if self.record:
                        self.spans.append((span_id, parent[2] if parent else None,
                                           self.op_id, name, t0, t1))
            if after is not None:
                replaced = after(args, result, dur, ctx)
                if replaced is not None:
                    result = replaced
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, layer, before=None, after=None):
        original = getattr(owner, attr)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name, before, after))

    def install(self):
        """Wrap every traced name; call ``restore`` to undo."""
        from nsdq import experiments, oracle, polar, scenes, univariate

        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spans = []
        for attr in ("run_ellipsoid", "run_duct", "run_sphere_scatter", "run_example1"):
            self._patch(experiments, attr, "experiments")
        # rules: every namespace that builds a rule
        for owner, attrs in ((polar, ("gauss_exp_power", "clenshaw_curtis", "trapezoid_periodic")),
                             (univariate, ("gauss_exp_power",)),
                             (experiments, ("trapezoid_periodic",))):
            for attr in attrs:
                self._patch(owner, attr, "rules", after=self._rule_built(attr))
        self._patch(experiments, "ellipsoid_reference", "specfun", after=self._count("specfun.calls"))
        self._patch(experiments, "acoustics_reference", "oracle")
        self._patch(oracle, "adaptive_quad_1d", "oracle", after=self._oracle_done)
        # polar: the integrators, the outer grid and the pre-quadrature grids,
        # both where polar calls them and where experiments reaches in
        for attr in ("integrate_unbounded", "_central_grid", "_outer_grid",
                     "rectangle_corner_contributions", "rectangle_direct_terms"):
            self._patch(experiments, attr, "polar", after=self._grid_done(attr))
        for attr in ("integrate_star_shaped", "_central_grid", "_boundary_grid", "_outer_grid",
                     "_boundary_is_constant", "_oscillatory_boundary_term", "_stationary_points"):
            self._patch(polar, attr, "polar", after=self._grid_done(attr))
        self._patch(polar, "_boundary_amplitude", "polar", after=self._wrap_amplitude)
        self._patch(polar, "nsd_interval", "univariate")
        self._patch(univariate, "endpoint_contribution", "univariate",
                    after=self._count("univariate.calls"))
        for owner in (polar, univariate):
            self._patch(owner, "newton_descent", "paths",
                        before=self._count_newton_steps, after=self._newton_done)
        for attr in _SCENE_BUILDERS:
            self._patch(scenes, attr, None, after=self._wrap_scene)

    def restore(self):
        """Put back every original; raise if any name is still wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        stale = [f"{o.__name__}.{a}" for o, a, orig in self._patches if getattr(o, a) is not orig]
        self._patches = []
        if stale:
            raise RuntimeError(f"wrapped names not restored: {', '.join(stale)}")

    # --- counters --------------------------------------------------------------

    def _count(self, key):
        def after(args, result, dur, ctx):
            self.counts[key] += 1
        return after

    def _rule_built(self, attr):
        def after(args, result, dur, ctx):
            self.counts["rules.calls"] += 1
            key = (attr, args)
            if key in self._seen_rules:
                self.counts["rules.hits"] += 1
            else:
                self._seen_rules.add(key)
                self.counts["rules.cold_builds"] += 1
                self.cold_rules_s += dur
        return after

    def _oracle_done(self, args, result, dur, ctx):
        self.counts["oracle.calls"] += 1
        self.counts["oracle.subdivisions"] += result.subdivisions

    def _grid_done(self, attr):
        if attr not in ("_central_grid", "_boundary_grid"):
            return None

        def after(args, result, dur, ctx):
            self.counts["polar.calls"] += 1
            self.counts["polar.directions"] += int(np.size(result))
        return after

    def _wrap_amplitude(self, args, amp, dur, ctx):
        # the boundary-term amplitude closure univariate descent evaluates
        return self._wrap(amp, "polar", "polar._boundary_amplitude.amp",
                          after=self._grid_done("_boundary_grid"))

    @staticmethod
    def _count_newton_steps(args):
        g, dg, *rest = args
        steps = [0]

        def counted_dg(z):
            steps[0] += 1
            return dg(z)

        return (g, counted_dg, *rest), steps

    def _newton_done(self, args, result, dur, steps):
        points = int(np.size(args[3]))
        self.counts["paths.newton_calls"] += 1
        self.counts["paths.newton_points"] += points
        self.counts["paths.newton_point_steps"] += steps[0] * points

    def _scene_eval_done(self, args, result, dur, ctx):
        self.counts["scenes.evals"] += 1
        self.counts["scenes.points"] += int(np.size(result[0] if isinstance(result, tuple) else result))

    def _wrap_scene(self, args, scene, dur, ctx):
        for field in _SCENE_FIELDS:
            fn = getattr(scene, field)
            if fn is not None:
                setattr(scene, field, self._wrap(fn, "scenes", f"scenes.{scene.name}.{field}",
                                                 after=self._scene_eval_done))
        return scene
