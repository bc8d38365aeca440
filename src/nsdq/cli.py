"""Command line front end for the convergence experiments.

Usage::

    nsdq run --experiment ellipsoid --omega 100:1000:12 --radial-points 8 \
             --format csv --out table.csv

Omega grids are either comma-separated lists ("10,100,1000") or
logarithmic ranges "min:max:count".  An option the chosen experiment does
not read is a usage error.  Exit codes: 0 on success, 1 on usage errors,
2 when a reference oracle fails to converge, 3 when a descent path cannot
be traced (``PathError``, such as a sphere row near the shadow boundary);
each error is one line on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .oracle import OracleNotConverged
from .paths import PathError

_USAGE_EXIT = 1
_ORACLE_EXIT = 2
_PATH_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(_USAGE_EXIT)


def _parse_grid(spec: str):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be min:max:count, got {spec!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:  # an end that is not a number or a count that is not an integer
            lo = hi = count = 0
        if not (0 < lo < hi < np.inf and count >= 1):
            raise ValueError(f"bad grid range {spec!r}")
        return np.geomspace(lo, hi, count)
    return np.array(_parse_list(spec), dtype=float)


def _parse_list(spec: str):
    return [float(v) for v in spec.split(",") if v.strip()]


# experiment -> (its experiments.run_* function, {option it reads: keyword of
# that function}); keyword None marks an option the command reads itself.
# Options are None unless given, so the defaults live in experiments.run_*.
_EXPERIMENTS = {
    "ellipsoid": ("run_ellipsoid", {"radial_points": "m", "outer_cc": "outer_cc",
                                    "outer_trap": "outer_trap", "dump_inner_grid": None}),
    "duct": ("run_duct", {"gl": "n_gl", "gh": "n_gh", "mode": "mode", "outer_cc": "outer_cc"}),
    "sphere": ("run_sphere_scatter", {"radial_points": "m", "outer_trap": "n_trap", "psi": "psi_grid"}),
    "example1": ("run_example1", {"radial_points": "m", "outer_cc": "outer_cc"}),
}
_OPTIONS = sorted({dest for _, reads in _EXPERIMENTS.values() for dest in reads})


def _build_parser() -> _Parser:
    p = _Parser(prog="nsdq", description="oscillatory-integral convergence experiments")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment and emit a convergence table")
    run.add_argument("--experiment", required=True,
                     choices=list(_EXPERIMENTS))
    run.add_argument("--omega", default="10:2000:20",
                     help="comma list or min:max:count (log-spaced); for the sphere "
                          "experiment this is the wavenumber grid")
    run.add_argument("--radial-points", type=int, default=None, metavar="M",
                     help="radial Gaussian points (ellipsoid/sphere/example1)")
    run.add_argument("--outer-cc", type=int, default=None, metavar="N")
    run.add_argument("--outer-trap", type=int, default=None, metavar="N")
    run.add_argument("--gl", type=int, default=None, help="duct Gauss-Laguerre points")
    run.add_argument("--gh", type=int, default=None,
                     help="duct half-range Gauss-Hermite points (default 2*gl)")
    run.add_argument("--mode", default=None,
                     choices=["corner", "direct", "direct_modified"], help="duct mode")
    run.add_argument("--psi", type=_parse_list, default=None,
                     help="sphere incidence angles (comma list, radians; default 0, pi/10, pi/5, pi/3)")
    run.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json"])
    run.add_argument("--out", default="-", help="output path, '-' for stdout")
    run.add_argument("--dump-inner-grid", default=None, metavar="PATH",
                     help="also write (phi1, phi2, |Q_r|) of the ellipsoid scene at "
                          "the largest omega of the grid")
    return p


def _run(args) -> int:
    run, reads = _EXPERIMENTS[args.experiment]
    unread = [dest for dest in _OPTIONS if getattr(args, dest) is not None and dest not in reads]
    if unread:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in unread)
        sys.stderr.write(f"nsdq: error: the {args.experiment} experiment does not read {flags}\n")
        return _USAGE_EXIT
    try:
        omega = _parse_grid(args.omega)
    except ValueError as exc:
        sys.stderr.write(f"nsdq: error: {exc}\n")
        return _USAGE_EXIT

    given = {key: getattr(args, dest) for dest, key in reads.items()
             if key is not None and getattr(args, dest) is not None}
    try:
        rows = getattr(experiments, run)(omega, **given)
    except OracleNotConverged as exc:
        sys.stderr.write(f"nsdq: oracle did not converge: {exc}\n")
        return _ORACLE_EXIT
    except PathError as exc:
        sys.stderr.write(f"nsdq: descent path failed: {exc}\n")
        return _PATH_EXIT
    except ValueError as exc:
        sys.stderr.write(f"nsdq: error: {exc}\n")
        return _USAGE_EXIT

    text = experiments.rows_to_csv(rows) if args.fmt == "csv" else experiments.rows_to_json(rows)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)

    if args.experiment == "sphere":
        sys.stderr.write(experiments.sphere_table(rows) + "\n")

    if args.dump_inner_grid:
        grid = experiments.ellipsoid_inner_grid(float(np.max(omega)), **given)
        with open(args.dump_inner_grid, "w") as fh:
            fh.write("phi1,phi2,abs_qr\n")
            for phi1, phi2, qr in grid:
                fh.write(f"{phi1:.17g},{phi2:.17g},{qr:.17g}\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
