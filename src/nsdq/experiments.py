r"""Convergence experiments and machine-readable result tables.

Four experiments drive the library end to end:

* ``ellipsoid``: full-space integral with ellipsoidal phase against its
  closed form; radial rule sizes m = 2..8 reproduce the asymptotic error
  orders, and a reduced outer rule exposes the outer-integration plateau.
* ``duct``: the rectangle with the singular acoustic kernel, in three
  modes: the corner decomposition of the boundary term, the direct
  Cartesian descent (the documented failure), and the direct decomposition
  with the central term repaired by the polar rule.
* ``sphere``: the high-frequency sphere-scattering kernel; emits the local
  surface-field approximation -1/w0 and its error estimate ``self_err`` =
  |w0 - w0c|/|w0| + d^2, from a companion radial rule (m + 3 points) on the
  same directions and the gap d to the nested N/2 trapezoid (the analytic
  reference would require a Mie-series evaluation, which is out of scope,
  so the reference column stays empty).
* ``example1``: the quarter-plane sanity case with known value
  -pi/(2 w^2), plus the stagnating direct origin term for contrast.

Every run is deterministic: identical inputs produce bit-identical tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import scenes
from .oracle import acoustics_reference
from .polar import (
    OuterPlan,
    _central_grid,
    _outer_grid,
    _outer_sums,
    integrate_unbounded,
    rectangle_corner_contributions,
    rectangle_direct_terms,
)
from .rules import _MAX_POINTS, _count
from .rules import trapezoid_periodic  # not called here; perfbench/layertrace.py patches this name
from .specfun import ellipsoid_reference

__all__ = [
    "ExperimentRow",
    "SlopeFit",
    "fit_slope",
    "run_ellipsoid",
    "run_duct",
    "run_sphere_scatter",
    "run_example1",
    "rows_to_csv",
    "rows_to_json",
    "sphere_table",
    "ellipsoid_inner_grid",
    "ERROR_FLOOR",
]

ERROR_FLOOR = 1e-14  # machine-saturated rows are excluded from slope fits


@dataclass(frozen=True)
class ExperimentRow:
    """One (omega, approximation, reference) record of a convergence table."""

    omega: float
    approx: complex
    reference: complex | None = None
    params: dict = field(default_factory=dict)

    @property
    def abs_err(self) -> float | None:
        if self.reference is None:
            return None
        return abs(self.approx - self.reference)

    @property
    def rel_err(self) -> float | None:
        if self.reference is None or abs(self.reference) == 0:
            return None
        return abs(self.approx - self.reference) / abs(self.reference)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(err) against log(omega)."""

    slope: float
    intercept: float
    r_squared: float
    omega_range: tuple
    n_points: int


def fit_slope(rows, *, use: str = "abs", floor: float = ERROR_FLOOR) -> SlopeFit:
    """Fit the log-log error decay of a row list.

    Rows without a reference or with error at or below ``floor`` are
    excluded.  Raises ValueError when fewer than 3 usable rows remain.
    """
    if use not in ("abs", "rel"):
        raise ValueError(f"fit_slope use must be 'abs' or 'rel', got use={use!r}")
    pts = []
    for r in rows:
        err = r.abs_err if use == "abs" else r.rel_err
        if err is not None and err > floor:
            pts.append((math.log(r.omega), math.log(err)))
    if len(pts) < 3:
        raise ValueError(
            f"too few points above the error floor {floor:g} for a slope fit "
            f"({len(pts)} of {len(rows)})"
        )
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((A @ np.array([slope, intercept]) - y) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(float(slope), float(intercept), r2,
                    (math.exp(x.min()), math.exp(x.max())), len(pts))


def _omega_array(omega_grid):
    oms = np.sort(np.asarray(list(omega_grid), dtype=float))
    if len(oms) == 0 or not np.all(np.isfinite(oms)) or oms[0] <= 0:
        raise ValueError(f"omega grid must be non-empty, finite and positive, got omega={oms}")
    return oms


def run_ellipsoid(omega_grid, m: int = 8, outer_cc: int = 50, outer_trap: int = 50):
    """Ellipsoidal-phase experiment against the Si/Ci closed form.

    The sizes are integers, checked before any row runs: 1 <= m <= 16 and
    outer counts >= 2; otherwise ValueError.
    """
    m, outer_cc = _count("run_ellipsoid", "m", m, hi=16), _count("run_ellipsoid", "outer_cc", outer_cc)
    outer_trap = _count("run_ellipsoid", "outer_trap", outer_trap)
    oms = _omega_array(omega_grid)
    region = scenes.default_region("ellipsoid")
    plan = OuterPlan.for_region(region, cc=outer_cc, trap=outer_trap)
    rows = []
    for om in oms:
        sc = scenes.ellipsoid_scene(float(om))
        approx = integrate_unbounded(sc, region, plan, m)
        rows.append(ExperimentRow(
            float(om), approx, ellipsoid_reference(float(om)),
            params={"m": m, "outer_cc": outer_cc, "outer_trap": outer_trap},
        ))
    return rows


def ellipsoid_inner_grid(omega: float, m: int = 8, outer_cc: int = 50, outer_trap: int = 50):
    """|Q_r| of the ellipsoid scene over the outer grid, as (phi1, phi2, |Q_r|) rows."""
    sc = scenes.ellipsoid_scene(omega)
    region = scenes.default_region("ellipsoid")
    plan = OuterPlan.for_region(region, cc=outer_cc, trap=outer_trap)
    mesh, _ = _outer_grid(region, plan)
    q = np.abs(_central_grid(sc, mesh, m))
    phi1 = np.broadcast_to(mesh[0], q.shape)
    phi2 = np.broadcast_to(mesh[1], q.shape)
    return np.column_stack([phi1.ravel(), phi2.ravel(), q.ravel()])


def _duct_polar_central(omega, n_gl, a, b, plan):
    return integrate_unbounded(scenes.duct_scene(omega, a, b), scenes.default_region("duct"),
                               plan, n_gl)


def run_duct(omega_grid, n_gl: int = 8, n_gh: int | None = None, a: float = 1.0, b: float = 2.0,
             mode: str = "corner", outer_cc: int = 30):
    """Rectangular-duct experiment against the reduced 1-D reference.

    Modes: ``corner`` (polar central plus closed-form corner paths),
    ``direct`` (the plain Cartesian descent decomposition, which stalls),
    ``direct_modified`` (direct corners with the resonance substitution,
    central term replaced by the polar rule).

    The sizes are integers, checked before any row runs: the Laguerre
    ``n_gl`` and the Hermite ``n_gh`` (default ``2 * n_gl``) lie in
    [1, 64], and ``outer_cc >= 2``; otherwise ValueError.
    """
    if mode not in ("corner", "direct", "direct_modified"):
        raise ValueError(f"unknown duct mode {mode!r}")
    n_gl = _count("run_duct", "n_gl", n_gl, hi=_MAX_POINTS)
    n_gh = _count("run_duct", "n_gh", 2 * n_gl if n_gh is None else n_gh, hi=_MAX_POINTS,
                  reason=" (n_gh defaults to 2 * n_gl)")
    outer_cc = _count("run_duct", "outer_cc", outer_cc)
    plan = OuterPlan.for_region(scenes.default_region("duct"), cc=outer_cc)
    oms = _omega_array(omega_grid)

    def f_point(x, y):
        return y * np.cos(x) / np.sqrt(x * x + y * y)

    def f_polar(z, th):
        return z * np.sin(th) * np.cos(z * np.cos(th))

    rows = []
    for om in oms:
        om = float(om)
        if mode == "corner":
            approx = _duct_polar_central(om, n_gl, a, b, plan) - \
                rectangle_corner_contributions(f_polar, a, b, om, n_gl, n_gh)
        elif mode == "direct":
            t = rectangle_direct_terms(f_point, a, b, om, n_gl, n_gh)
            approx = t[(0.0, 0.0)] - t[(a, 0.0)] - t[(0.0, b)] + t[(a, b)]
        else:
            t = rectangle_direct_terms(f_point, a, b, om, n_gl, n_gh, outer_resonance_fix=True)
            approx = _duct_polar_central(om, n_gl, a, b, plan) \
                - t[(a, 0.0)] - t[(0.0, b)] + t[(a, b)]
        rows.append(ExperimentRow(
            om, complex(approx), acoustics_reference(om, a, b),
            params={"n_gl": n_gl, "n_gh": n_gh, "a": a, "b": b, "mode": mode,
                    "outer_cc": outer_cc},
        ))
    return rows


def run_sphere_scatter(k_grid, psi_grid=(0.0, math.pi / 10, math.pi / 5, math.pi / 3),
                       m: int = 5, n_trap: int = 100):
    """Sphere-scattering kernel experiment.

    Emits the prototype surface-field value ``-1/w0`` per (psi, k), where
    w0 = w0(m, N) is the polar rule's integral with m radial points on
    N = ``n_trap`` trapezoid directions.  Its error estimate ``self_err``
    goes into the params:

        self_err = |w0 - w0c|/|w0| + d^2,   d = |w0 - w0h|/|w0|,

    where w0c takes the companion radial rule (m + 3 points) on the same N
    directions, and w0h sums the Q_r values of w0 on every other direction
    with doubled weights (the nested N/2 trapezoid, no new scene
    evaluation).  The trapezoid converges geometrically on the smooth
    periodic angular integrand, so d^2 stands for the error of the N-node
    rule, and the companion gap for that of the radial rule.  The reference
    column stays empty: the analytic comparison requires a Mie-series
    evaluation, which this package does not ship.

    Every input is checked before any row runs: each psi lies in
    [0, pi/2), m is an integer with m + 3 <= 64 and n_trap an even integer
    >= 4; otherwise ValueError.
    """
    ks = _omega_array(k_grid)
    psis = [float(psi) for psi in psi_grid]
    if not psis:
        raise ValueError("psi grid must be non-empty")
    for psi in psis:
        if abs(psi - 0.5 * math.pi) < 1e-12:
            raise ValueError("psi = pi/2 puts the point on the shadow boundary; rejected")
        if not 0.0 <= psi < 0.5 * math.pi:
            raise ValueError(f"run_sphere_scatter needs 0 <= psi < pi/2, got psi={psi}")
    m = _count("run_sphere_scatter", "m", m, hi=_MAX_POINTS - 3,
               reason=" (the companion rule has m + 3 points)")
    n_trap = _count("run_sphere_scatter", "n_trap", n_trap, 4)
    if n_trap % 2:
        raise ValueError("run_sphere_scatter needs an even n_trap (the estimate also sums every "
                         f"other direction), got n_trap={n_trap}")
    region = scenes.default_region("sphere-scatter")
    plan = OuterPlan.for_region(region, trap=n_trap)
    rows = []
    for psi in psis:
        for k in ks:
            k = float(k)
            w0, w0c, w0h = _outer_sums(scenes.sphere_scatter_scene(k, psi), region, plan, m, m + 3)
            d = abs(w0 - w0h) / abs(w0)
            rows.append(ExperimentRow(
                k, -1.0 / w0, None,
                params={"psi": psi, "m": m, "n_trap": n_trap,
                        "w0_re": w0.real, "w0_im": w0.imag,
                        "self_err": abs(w0 - w0c) / abs(w0) + d * d},
            ))
    return rows


def sphere_table(rows) -> str:
    """Error-estimate table in the (psi row, k column) layout.

    One line per psi, one column per k; cells are each row's ``self_err``,
    |w0 - w0c|/|w0| + d^2 (see ``run_sphere_scatter``).  A trailing note
    gives that definition and records why no analytic reference is
    printed.
    """
    psis = sorted({r.params["psi"] for r in rows})
    ks = sorted({r.omega for r in rows})
    cell = {(r.params["psi"], r.omega): r.params["self_err"] for r in rows}
    lines = ["psi \\ k  " + "  ".join(f"{k:>12g}" for k in ks)]
    for psi in psis:
        lines.append(f"{psi:8.5f} " + "  ".join(f"{cell[(psi, k)]:12.5e}" for k in ks))
    lines.append(
        "note: cells are error estimates |w0 - w0c|/|w0| + d^2 of w0 = w0(m, N), with w0c the "
        "companion rule w0(m+3, N) and d = |w0 - w0(m, N/2)|/|w0| on the nested trapezoid; "
        "the analytic reference needs a Mie-series evaluation and is not shipped."
    )
    return "\n".join(lines)


def run_example1(omega_grid, m: int = 4, outer_cc: int = 10):
    """Quarter-plane sanity experiment with known value -pi/(2 w^2).

    Emits one polar-rule row and one direct-descent row (the origin term of
    the Cartesian decomposition, whose relative error is frequency
    independent) per omega.  The sizes are integers, checked before any
    row runs: the direct row takes a 2m-point Hermite rule, so
    1 <= m <= 32, and ``outer_cc >= 2``; otherwise ValueError.
    """
    m = _count("run_example1", "m", m, hi=_MAX_POINTS // 2,
               reason=" (the direct row takes a 2m-point Hermite rule)")
    outer_cc = _count("run_example1", "outer_cc", outer_cc)
    oms = _omega_array(omega_grid)
    region = scenes.default_region("quarter-plane")
    plan = OuterPlan.for_region(region, cc=outer_cc)
    one = lambda x, y: 1.0 + 0.0 * x
    rows = []
    for om in oms:
        om = float(om)
        ref = complex(-math.pi / (2.0 * om * om))
        sc = scenes.quarter_plane_scene(om)
        rows.append(ExperimentRow(
            om, integrate_unbounded(sc, region, plan, m), ref,
            params={"m": m, "mode": "polar", "outer_cc": outer_cc},
        ))
        origin = rectangle_direct_terms(one, 1.0, 1.0, om, m)[(0.0, 0.0)]
        rows.append(ExperimentRow(
            om, complex(origin), ref, params={"m": m, "mode": "direct", "outer_cc": outer_cc},
        ))
    return rows


# --- serialization ----------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, dict):
        return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(x.items()))
    return str(x)


_FIELDS = ("omega", "approx_re", "approx_im", "ref_re", "ref_im", "abs_err", "rel_err", "params")


def _records(rows):
    # one field dict per row, sorted by omega; a row without a reference
    # holds None in its reference and error fields
    for r in sorted(rows, key=lambda r: r.omega):
        ref = (None, None) if r.reference is None else (r.reference.real, r.reference.imag)
        values = (r.omega, r.approx.real, r.approx.imag, *ref, r.abs_err, r.rel_err, r.params)
        yield dict(zip(_FIELDS, values))


def rows_to_csv(rows) -> str:
    """CSV table, rows sorted by omega, floats at 17 significant digits.

    Reference-free rows leave the reference and error columns empty.
    """
    lines = [",".join(_FIELDS)] + [",".join(map(_fmt, rec.values())) for rec in _records(rows)]
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps(list(_records(rows)), indent=2, sort_keys=True) + "\n"
