"""Workload inputs, the per-integral operations and their references.

Each workload is a *sweep*: the rows of one README convergence table.  The
seed moves every frequency (and incidence angle) a little around its README
grid value, so a new seed changes the inputs but not the cost mix.  One
operation is one integral, computed through the same public call the
``nsdq`` command line makes (``experiments.run_*`` with a one-element
grid) or through ``integrate_star_shaped`` for the planar scenes.

This module imports neither nsdq nor numpy at import time (``build_ops``
imports nsdq), so the set-up probe can time the whole import.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("ellipsoid", "sphere", "duct", "planar")

# Planar rule sizes: those of the acceptance suite's star-shaped checks.
_ELLIPSE_TRAP, _ELLIPSE_M = 40, 8
_DISK_TRAP, _DISK_M = 16, 4
# Relative error of the direct Cartesian origin term of example1: it is
# frequency independent (the documented failure the polar rule repairs).
EXAMPLE1_DIRECT_REL_ERR = 1.1872044516498e-3


def _geomspace(lo, hi, count):
    """The README's log-spaced ``min:max:count`` grid."""
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def _jitter(grid, rng):
    """Each value times a factor drawn from [1 - JITTER, 1 + JITTER)."""
    return [v * (1.0 + JITTER * (2.0 * rng.random() - 1.0)) for v in grid]


# The seed moves every frequency by at most 1% around its README grid value
# and every incidence angle by at most 0.01 rad above it.  A wider move
# would change the cost mix: the duct oracle's work grows like w (its
# subdivisions go from 6048 to 6678 within +-6% of w = 1e4), so
# runs with different seeds would no longer measure the same work.
JITTER = 0.01
PSI_JITTER = 0.01


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one run; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ellipsoid":
        # nsdq run --experiment ellipsoid --omega 100:1000:12 --radial-points 8
        return {"omega": _jitter(_geomspace(100.0, 1000.0, 12), rng)}
    if workload == "sphere":
        # nsdq run --experiment sphere --omega 50,100,150,200 --psi 0,pi/10,pi/5,pi/3
        return {"k": _jitter([50.0, 100.0, 150.0, 200.0], rng),
                "psi": [psi + PSI_JITTER * rng.random()
                        for psi in (0.0, math.pi / 10, math.pi / 5, math.pi / 3)]}
    if workload == "duct":
        # nsdq run --experiment duct --omega 10:10000:7 --gl 8 (corner mode)
        return {"omega": _jitter(_geomspace(10.0, 10000.0, 7), rng)}
    # Nine ellipse rows (nsd boundary, ~30 ms each) and six cheap disk and
    # example1 rows (< 1 ms).  With 15 ops per sweep both percentiles fall
    # on the middle of one row's times (ranks 7.5 and 13.5), inside the
    # ellipse cluster, not at the boundary between the clusters.
    # Sub-millisecond rows spread too much between processes (~6%) to carry
    # a gated percentile.
    return {"ellipse": _jitter(_geomspace(10.0, 1000.0, 9), rng),
            "disk": _jitter([10.0, 100.0, 1000.0], rng),
            # nsdq run --experiment example1 --omega 1,10,100
            "example1": _jitter([1.0, 10.0, 100.0], rng)}


# --- references -------------------------------------------------------------


def disk_reference(omega: float) -> complex:
    """Unit disk, unit amplitude, phase r: 2 pi ((1 - i w) e^{i w} - 1) / w^2."""
    return 2.0 * math.pi * ((1.0 - 1j * omega) * cmath.exp(1j * omega) - 1.0) / omega**2


def example1_reference(omega: float) -> complex:
    """Quarter plane, unit amplitude, phase r: -pi / (2 w^2)."""
    return complex(-math.pi / (2.0 * omega * omega))


def ellipse_reference(omega: float, nodes: int = 8192) -> complex:
    """Ellipse x^2 + 2 y^2 <= 1, unit amplitude, phase r.

    Periodic trapezoid in theta of the closed-form radial integral
    ``int_0^R r e^{i w r} dr = ((1 - i w R) e^{i w R} - 1) / w^2`` with
    ``R = 1/sqrt(1 + sin^2 theta)``; the integrand is analytic and periodic,
    so the rule converges geometrically.
    """
    import numpy as np

    th = np.arange(nodes) * (2.0 * math.pi / nodes)
    R = 1.0 / np.sqrt(1.0 + np.sin(th) ** 2)
    radial = ((1.0 - 1j * omega * R) * np.exp(1j * omega * R) - 1.0) / omega**2
    return complex(np.sum(radial) * (2.0 * math.pi / nodes))


# --- per-row tolerances -------------------------------------------------------
#
# Ten times the largest error the seed commit makes in each row, over at
# least 30 seeds and with every input at either end of its jitter, rounded up, and
# at least 1e-14.  An accuracy regression of one decade fails ok_frac.  The
# ellipse rows record nsdq's own error there (up to 6e-7 at w = 10, and
# 1e-10 to 2.5e-9 for w >= 30), far above the reference's round-off
# (< 1e-13); it is not fixed here.

ELLIPSOID_REL_TOL = 2e-14                           # seed max 1.4e-15
DUCT_REL_TOL = (5e-5, 7e-9, 1e-13, 3e-13, 9e-13, 2e-12, 8e-12)
SPHERE_SELF_TOL = ((2e-10, 2e-8, 4e-6, 8e-3),       # [k row][psi row]
                   (3e-13, 3e-11, 3e-8, 8e-4),
                   (1e-14, 6e-13, 1e-9, 2e-4),
                   (1e-14, 3e-14, 8e-11, 4e-5))
ELLIPSE_REL_TOL = (7e-6, 1e-6, 1e-8, 2e-9, 3e-9, 2e-9, 8e-9, 4e-9, 3e-8)
DISK_REL_TOL = 1e-14                                # seed max 5.6e-16
EXAMPLE1_POLAR_REL_TOL = 1e-14                      # seed max 7.1e-16
EXAMPLE1_DIRECT_TOL = 1e-14  # on |rel_err - EXAMPLE1_DIRECT_REL_ERR|, seed max 2.9e-16


def _rel(approx, ref):
    return abs(approx - ref) / abs(ref)


# --- operations ---------------------------------------------------------------


@dataclass
class Op:
    """One integral: ``call()`` computes it, ``check(result)`` judges it."""

    label: str
    call: Callable
    check: Callable


def build_ops(workload: str, inputs: dict, references: dict | None = None) -> list[Op]:
    """The operations of one sweep, in CLI row order.

    ``references`` maps an op label to its precomputed independent
    reference (see ``compute_references``); without it the ops can run but
    ``check`` is not usable.  Imports nsdq.
    """
    from nsdq import experiments, polar, scenes

    refs = references or {}
    ops = []
    if workload == "ellipsoid":
        for om in inputs["omega"]:
            label = f"ellipsoid w={om!r}"
            ops.append(Op(label,
                          lambda om=om: experiments.run_ellipsoid([om], m=8, outer_cc=50, outer_trap=50),
                          lambda rows, ref=refs.get(label):
                              _rel(rows[0].approx, ref) <= ELLIPSOID_REL_TOL))
    elif workload == "sphere":
        for j, psi in enumerate(inputs["psi"]):
            for i, k in enumerate(inputs["k"]):
                tol = SPHERE_SELF_TOL[i][j]
                ops.append(Op(f"sphere k={k!r} psi={psi!r}",
                              lambda k=k, psi=psi: experiments.run_sphere_scatter([k], [psi], m=5, n_trap=100),
                              lambda rows, tol=tol: rows[0].params["self_err"] <= tol))
    elif workload == "duct":
        for i, om in enumerate(inputs["omega"]):
            label = f"duct w={om!r}"
            ops.append(Op(label,
                          lambda om=om: experiments.run_duct([om], n_gl=8, mode="corner"),
                          lambda rows, ref=refs.get(label), tol=DUCT_REL_TOL[i]:
                              _rel(rows[0].approx, ref) <= tol))
    else:
        ellipse_region = scenes.default_region("ellipse")
        ellipse_plan = polar.OuterPlan.for_region(ellipse_region, trap=_ELLIPSE_TRAP)
        disk_region = scenes.default_region("disk")
        disk_plan = polar.OuterPlan.for_region(disk_region, trap=_DISK_TRAP)
        for om, tol in zip(inputs["ellipse"], ELLIPSE_REL_TOL):
            label = f"ellipse w={om!r}"
            ops.append(Op(label,
                          lambda om=om: polar.integrate_star_shaped(
                              scenes.ellipse_scene(om), ellipse_region, ellipse_plan, _ELLIPSE_M),
                          lambda v, ref=refs.get(label), tol=tol: _rel(v, ref) <= tol))
        for om in inputs["disk"]:
            ops.append(Op(f"disk w={om!r}",
                          lambda om=om: polar.integrate_star_shaped(
                              scenes.disk_scene(om), disk_region, disk_plan, _DISK_M),
                          lambda v, om=om: _rel(v, disk_reference(om)) <= DISK_REL_TOL))
        for om in inputs["example1"]:
            ops.append(Op(f"example1 w={om!r}",
                          lambda om=om: experiments.run_example1([om], m=4, outer_cc=10),
                          lambda rows, om=om: _example1_ok(rows, om)))
    return ops


def _example1_ok(rows, omega):
    ref = example1_reference(omega)
    polar_row, direct_row = rows
    return (_rel(polar_row.approx, ref) <= EXAMPLE1_POLAR_REL_TOL
            and abs(_rel(direct_row.approx, ref) - EXAMPLE1_DIRECT_REL_ERR) <= EXAMPLE1_DIRECT_TOL)


def compute_references(workload: str, inputs: dict) -> dict:
    """Independent references, keyed by op label, computed outside timing.

    The ellipsoid uses the Si/Ci closed form, the duct the adaptive GK15
    oracle on the reduced 1-D integral, the ellipse the benchmark's own
    trapezoid (checked against a doubled rule).  The sphere has no
    reference (a Mie series is out of scope); its ops are judged by the
    experiment's own self-convergence ``self_err``.
    """
    from nsdq.oracle import acoustics_reference
    from nsdq.specfun import ellipsoid_reference

    refs = {}
    if workload == "ellipsoid":
        for om in inputs["omega"]:
            refs[f"ellipsoid w={om!r}"] = ellipsoid_reference(om)
    elif workload == "duct":
        for om in inputs["omega"]:
            refs[f"duct w={om!r}"] = acoustics_reference(om, 1.0, 2.0, tol=1e-13)
    elif workload == "planar":
        for om in inputs["ellipse"]:
            ref = ellipse_reference(om)
            if _rel(ellipse_reference(om, 2 * 8192), ref) > 1e-12:
                raise RuntimeError(f"ellipse reference not converged at w={om!r}")
            refs[f"ellipse w={om!r}"] = ref
    return refs


def cli_commands(workload: str, inputs: dict) -> list[tuple[list[str], slice]]:
    """README ``nsdq run`` argument lists with this run's inputs.

    Each entry pairs an argument list with the slice of the sweep's ops
    whose rows its CSV table must reproduce.  Floats are written with
    ``repr`` so the command line parses back the identical doubles.
    """
    def grid(values):
        return ",".join(repr(float(v)) for v in values)

    if workload == "ellipsoid":
        return [(["run", "--experiment", "ellipsoid", "--omega", grid(inputs["omega"]),
                  "--radial-points", "8"], slice(None))]
    if workload == "sphere":
        return [(["run", "--experiment", "sphere", "--omega", grid(inputs["k"]),
                  "--psi", grid(inputs["psi"])], slice(None))]
    if workload == "duct":
        return [(["run", "--experiment", "duct", "--omega", grid(inputs["omega"]),
                  "--gl", "8"], slice(None))]
    n_star = len(inputs["ellipse"]) + len(inputs["disk"])
    return [(["run", "--experiment", "example1", "--omega", grid(inputs["example1"])],
             slice(n_star, None))]
