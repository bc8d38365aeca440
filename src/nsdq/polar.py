r"""Polar-coordinate steepest descent: the central and boundary rules.

The change to n-spherical coordinates around the special point confines the
oscillation of ``f exp(i w g)`` to the radial direction.  The radial
integral is deformed onto steepest-descent paths and discretized by the
Gaussian rules for ``x^d exp(-x^alpha)``; the remaining angular integral is
smooth and handled by classical rules (Clenshaw-Curtis, periodic
trapezoid).

Main entry points
-----------------
``integrate_unbounded``
    Outer tensor rule over an angular box applied to the pre-quadrature
    value Q_r, which captures the special point.
``integrate_star_shaped``
    The same for a star-shaped domain, minus its boundary term: by the
    plain outer rule when the boundary phase G = g(R(Theta), Theta) is
    constant, by univariate descent in the angle when G varies.  Both take
    one Gauss-Laguerre sum along the boundary paths.  G is read once, on
    the outer grid; the descent first checks there that G and dG/dtheta are
    real.  dG/dtheta is the scene's ``d_boundary_phase``, or
    ``complex_derivative`` of G when the scene has none, and that one
    callable serves throughout: the descent splits the angle at the
    stationary points of G, which a sign-change scan of dG/dtheta finds,
    and traces the paths of every interval endpoint together
    (``nsd_interval`` on arrays of edges) with it.  A phase that is
    stationary inside the domain raises PathError.
``rectangle_corner_contributions``
    The closed-form corner decomposition of the boundary term for an
    axis-aligned rectangle with phase sqrt(x^2 + y^2), including the
    resonance corners that need the half-range Hermite treatment.
``rectangle_direct_terms``
    The four corner terms of nested univariate steepest descent applied
    directly in Cartesian coordinates.  Kept deliberately: its origin term
    cannot converge faster than w^-2 (the integrand after scaling is
    w-independent), which is the failure the polar rule repairs.

Paths without a closed form are traced over the whole direction grid by
``univariate._trace``, the one tracer, which also traces the boundary
term's endpoint paths: one Newton solve of every node row from the series
seed, a branch check, and a row-by-row continuation for the paths that
fail it.  It returns drho/dp = i / g' with the roots.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .paths import (PathError, RadialScene, _taylor_coefficient, complex_derivative, corner_h11,
                    corner_h12, corner_h21, corner_h22)
from .paths import newton_descent  # not called here; perfbench/layertrace.py patches this name
from .rules import _count, _in_p, _node_sum, clenshaw_curtis, gauss_exp_power, trapezoid_periodic
from .univariate import _trace, nsd_interval

__all__ = [
    "AngularRegion",
    "OuterPlan",
    "spherical_map",
    "integrate_unbounded",
    "integrate_star_shaped",
    "rectangle_corner_contributions",
    "rectangle_direct_terms",
    "normalize_scene",
]

_TWO_PI = 2.0 * math.pi
# the interior radii, as fractions of R, of integrate_star_shaped's scan for
# stationary points of the phase along each ray
_SCAN_T = np.arange(1, 33) / 33
_last_scan = [None]  # (dG, lo, hi, points, end_a, end_b) of _stationary_points' last scan


def spherical_map(r, angles):
    """n-spherical coordinate map.

    ``x_j = r cos(phi_j) prod_{l<j} sin(phi_l)`` for ``j <= n-1`` and
    ``x_n = r prod sin(phi_l)``.  Returns the point and the angular surface
    factor ``prod_l sin(phi_l)^(n-1-l)``, so that the volume element is
    ``r^(n-1) * factor * dphi_1 ... dphi_(n-1)``.

    Accepts scalars or broadcastable arrays for ``r`` and the angles.
    """
    angles = tuple(np.asarray(a) for a in angles)
    n = len(angles) + 1
    sin_running = factor = 1.0
    coords = []
    for l, phi in enumerate(angles, start=1):
        sin_phi = np.sin(phi)
        coords.append(r * np.cos(phi) * sin_running)
        sin_running = sin_running * sin_phi
        if n - 1 - l:
            factor = factor * sin_phi ** (n - 1 - l)
    coords.append(r * sin_running)
    x = np.stack(np.broadcast_arrays(*coords)) if any(np.ndim(c) for c in coords) else np.array(coords)
    return x, factor


@dataclass(frozen=True)
class AngularRegion:
    """One coordinate box on the (n-1)-sphere's angle space.

    ``intervals`` holds one (lo, hi) interval per angle: the theta-range for
    n = 2, the phi1-range and the phi2-range for n = 3.
    """

    n: int
    intervals: tuple

    @classmethod
    def full(cls, n: int) -> "AngularRegion":
        if n == 2:
            return cls(2, ((0.0, _TWO_PI),))
        if n == 3:
            return cls(3, ((0.0, math.pi), (0.0, _TWO_PI)))
        raise NotImplementedError(f"full sphere regions cover n = 2, 3; got {n}")

    @classmethod
    def box(cls, n: int, *intervals) -> "AngularRegion":
        return cls(n, tuple((float(a), float(b)) for a, b in intervals))

    def __post_init__(self):
        ranges = [(0.0, math.pi)] * (self.n - 2) + [(0.0, _TWO_PI)]
        if len(self.intervals) != self.n - 1:
            raise ValueError(f"box {self.intervals} has wrong arity for n = {self.n}")
        for (lo, hi), (rlo, rhi) in zip(self.intervals, ranges):
            if not (rlo - 1e-12 <= lo < hi <= rhi + 1e-12):
                raise ValueError(f"angle interval [{lo}, {hi}] outside [{rlo}, {rhi}]")

    def axis_periodic(self, axis: int) -> bool:
        # only the last angle can be periodic, and only over its full range
        lo, hi = self.intervals[axis]
        return axis == self.n - 2 and abs((hi - lo) - _TWO_PI) < 1e-12


@dataclass(frozen=True)
class OuterPlan:
    """Outer node count per angle axis.

    The rule on each axis follows from the region: the periodic trapezoid
    on a full-period axis, Clenshaw-Curtis on any other.
    """

    counts: tuple

    def __post_init__(self):
        for c in self.counts:
            _count("OuterPlan", "counts", c, 2)

    @classmethod
    def for_region(cls, region: AngularRegion, cc: int = 50, trap: int = 50) -> "OuterPlan":
        """``trap`` nodes on a full-period axis, ``cc`` on any other."""
        return cls(tuple(trap if region.axis_periodic(axis) else cc for axis in range(region.n - 1)))


_grids: dict = {}  # outer grids by axis rules (by identity) and offsets; rules live for the process


def _outer_grid(region: AngularRegion, plan: OuterPlan):
    """Tensor nodes/weights over the angular box, surface factor included.

    The first angle is the outermost tensor index.  Returns a tuple of
    angle arrays (meshgrid, 'ij' indexing) and the combined weight array.
    The rules are asked for on every call, but the grid is built once per
    set of rules and shared, so its arrays are read-only.
    """
    axes = tuple((trapezoid_periodic(plan.counts[axis], hi - lo), lo) if region.axis_periodic(axis)
                 else (clenshaw_curtis(plan.counts[axis], lo, hi), None)
                 for axis, (lo, hi) in enumerate(region.intervals))
    if axes not in _grids:
        mesh = np.meshgrid(*(r.nodes if lo is None else r.nodes + lo for r, lo in axes), indexing="ij")
        _, factor = spherical_map(1.0, mesh)
        w = functools.reduce(np.multiply.outer, (r.weights for r, _ in axes)) * factor
        for a in (*mesh, w):
            a.setflags(write=False)
        _grids.setdefault(axes, (tuple(mesh), w))
    return _grids[axes]


def _check_dimensions(scene: RadialScene, region: AngularRegion, plan: OuterPlan):
    if not scene.n == region.n == len(plan.counts) + 1:
        raise ValueError(f"scene, region and plan disagree: scene.n = {scene.n}, region.n = {region.n}, "
                         f"len(plan.counts) = {len(plan.counts)} (needs n - 1)")


def _weight_degree(scene: RadialScene) -> int:
    # With a regular amplitude the Jacobian growth rho^(n-1) is folded into
    # the Gaussian weight (higher asymptotic order); an r^-nu singularity
    # eats ceil(nu) powers of it.
    nu = scene.singularity_order
    if nu == 0:
        return min(scene.n - 1, 8)
    return max(scene.n - 1 - math.ceil(nu), 0)


def _closed_form_samples(path, p_values, angles):
    # one call with p shaped (m, 1, ..., 1) to broadcast against the angles
    grid = np.broadcast_shapes(*(np.shape(a) for a in angles))
    p = np.asarray(p_values, dtype=float).reshape((-1,) + (1,) * len(grid))
    rho, drho = path(p, *angles)
    shape = (len(p),) + grid
    return np.broadcast_to(rho, shape), np.broadcast_to(drho, shape)


def _traced_samples(scene: RadialScene, angles, base, p_values, seed, start, alpha, context):
    # the paths of all directions at once (``univariate._trace``), with the
    # derivative the tracer took; ``paths`` picks directions of the grid
    grid = np.broadcast_shapes(*(np.shape(a) for a in angles))
    at = lambda paths: (angles if paths is ...
                        else tuple(np.broadcast_to(a, grid)[paths] for a in angles))
    g = lambda z, paths: scene.oscillator(z, *at(paths))
    dg = lambda z, paths: scene.d_oscillator(z, *at(paths))
    return _trace(g, dg, base, p_values, seed, start, alpha, context)


def _origin_samples(scene: RadialScene, angles, p_values):
    """(rho, drho) over ascending descent parameters, node axis leading.

    Both arrays have shape ``(m,) + angle shape``.  A closed-form path is
    evaluated once on the whole node x direction array; traced paths are
    solved for every node at once from the series seed, and a path that
    fails the tracer's branch check is continued node by node in p.  The
    derivative is the one the tracer took.
    """
    if scene.origin_path is not None:
        return _closed_form_samples(scene.origin_path, p_values, angles)
    grid = np.broadcast_shapes(*(np.shape(a) for a in angles))
    coeff = np.broadcast_to(np.asarray(scene.alpha_coeff(*angles), dtype=float), grid)
    if np.any(np.abs(coeff) < 1e-14):
        raise PathError("degenerate direction: vanishing leading coefficient on the grid")
    # leading term of the series rho ~ (i p / coeff)^(1/alpha)
    seed = lambda p, paths: np.power(1j * p / coeff[paths], 1.0 / scene.alpha)
    return _traced_samples(scene, angles, 0.0, p_values, seed, 0.0, scene.alpha, "origin grid")


def _boundary_samples(scene: RadialScene, angles, p_values):
    """Boundary-path counterpart of ``_origin_samples``, same shapes."""
    if scene.boundary_path is not None:
        return _closed_form_samples(scene.boundary_path, p_values, angles)
    # keep a complex dtype when tracing at complex angles (deformed outer
    # integration); real otherwise
    grid = np.broadcast_shapes(*(np.shape(a) for a in angles))
    R = np.asarray(scene.boundary_radius(*angles))
    if not np.iscomplexobj(R):
        R = R.astype(float)
    gR = np.asarray(scene.oscillator(R, *angles), dtype=complex)
    dgR = np.broadcast_to(np.asarray(scene.d_oscillator(R, *angles), dtype=complex), grid)
    R = np.broadcast_to(R, grid)
    seed = lambda p, paths: R[paths] + 1j * p / dgR[paths]
    return _traced_samples(scene, angles, gR, p_values, seed, R, 1, "boundary grid")


def _descent_sums(scene: RadialScene, angles, rules, samples) -> list:
    """The Gaussian descent sums of several radial rules along every path of a direction grid.

    ``sum_j w_j f(rho(p_j)) d(rho^n)/dp (p_j)`` for each radial rule
    ``(p, w)`` that ``rules._in_p`` reads from a Gaussian rule, in a list in
    the order of ``rules``.  The paths are sampled once by ``samples``
    (``_origin_samples`` or ``_boundary_samples``), on the ascending union
    of the rules' nodes (one Newton solve for traced paths), and the
    amplitude is evaluated once; each rule is summed over its own node rows,
    read in place.
    """
    p = np.concatenate([nodes for nodes, _ in rules])
    p.sort()
    rho, drho = samples(scene, angles, p)
    f = scene.amplitude(rho, *angles)
    sums = []
    for nodes, w in rules:
        # the Jacobian one node row at a time; [j, ...] keeps a row of a 1-D
        # grid an array, so each row has the bits of the whole-array product
        rows = p.searchsorted(nodes).tolist()
        jacobian = (scene.n * rho[j, ...] ** (scene.n - 1) * drho[j, ...] for j in rows)
        sums.append(_node_sum(w, (f[j] for j in rows), jacobian))
    return sums


def _central_grid(scene: RadialScene, angles, m):
    """Pre-quadrature value Q_r over a direction grid.

    Q_r(Theta) = alpha/(n w) sum_j w_j x_j^(alpha-1-d)
                 f(rho_0(x_j^alpha / w)) d(rho_0^n)/dp (x_j^alpha / w)

    with the Gaussian rule for ``x^d exp(-x^alpha)``; the weight degree d
    folds the Jacobian growth into the rule when the amplitude regularity
    allows it.  The amplitude's r^-nu singularity cancels against the
    Jacobian inside the product, which is evaluated at strictly positive
    nodes.

    ``m`` is one rule size, or a 1-D integer array of sizes: then the paths
    are traced once, on all the rules' nodes (``_descent_sums``), and the
    Q_r of each size are stacked on a trailing axis, in the order given, so
    that an array over the sizes broadcasts against the result.
    """
    alpha, d = scene.alpha, _weight_degree(scene)
    sizes = [int(size) for size in m] if isinstance(m, np.ndarray) else [m]
    rules = [_in_p(gauss_exp_power(size, alpha, d), alpha, scene.omega, d) for size in sizes]
    sums = _descent_sums(scene, angles, rules, _origin_samples)
    q = np.stack(sums, axis=-1) if isinstance(m, np.ndarray) else sums[0]
    return q * (alpha / (scene.n * scene.omega))


def _boundary_grid(scene: RadialScene, angles, m: int, G):
    """Boundary term of the star-shaped rule over a direction grid.

    Returns ``exp(i w G)/(n w) sum_j w_j f(rho_R) d(rho_R^n)/dp``, the
    plain Gauss-Laguerre sum along the boundary paths (the phase is regular
    at the boundary).  ``G`` holds the boundary phase g(R(Theta), Theta) on
    ``angles``, as the caller already evaluated it.  The star-shaped
    pre-quadrature value is ``_central_grid - _boundary_grid``.
    """
    rule = _in_p(gauss_exp_power(m, 1, 0), 1, scene.omega)
    total, = _descent_sums(scene, angles, [rule], _boundary_samples)
    return np.exp(1j * scene.omega * G) * total / (scene.n * scene.omega)


def _outer_sums(scene: RadialScene, region: AngularRegion, plan: OuterPlan, m: int,
                m_companion: int | None = None) -> list:
    """The outer sum ``sum(w * Q_r)`` of ``integrate_unbounded``, in a list.

    With ``m_companion`` the list also holds the two sums an error estimate
    reads, after the value: the companion radial rule's Q_r on the same
    outer grid, and the value's own Q_r on every other node of the last
    axis with doubled weights.  The value's and the companion's Q_r come
    from one ``_central_grid`` call, so their paths are one trace (one
    Newton solve for traced paths) on the union of both rules' nodes, in
    the one ``_descent_sums`` that a single size also takes.  The last
    axis must be a periodic trapezoid with an even count, so the third sum
    is the nested N/2 trapezoid; it costs no scene evaluation.  A non-finite
    sum (at a huge omega) raises ValueError naming the scene and omega.
    """
    _check_dimensions(scene, region, plan)
    mesh, w = _outer_grid(region, plan)
    with np.errstate(all="ignore"):
        if m_companion is None:
            terms = [(w, _central_grid(scene, mesh, m))]
        else:
            both = _central_grid(scene, mesh, np.array([m, m_companion]))
            q, qc = both[..., 0], both[..., 1]
            half = (..., slice(None, None, 2))
            terms = [(w, q), (w, qc), (2.0 * w[half], q[half])]
        sums = [complex(np.sum(w * q)) for w, q in terms]
    if not all(cmath.isfinite(total) for total in sums):
        raise ValueError(f"scene {scene.name!r}: the outer sum is not finite at omega={scene.omega}")
    return sums


def integrate_unbounded(scene: RadialScene, region: AngularRegion, plan: OuterPlan, m: int) -> complex:
    """Outer tensor rule applied to the central contribution over a cone.

    Error: the outer rule's own error on the smooth integrand Q_r plus the
    radial pre-quadrature error O(w^-((2m-1)/alpha)).  A non-finite value
    (the scene overflows at a huge omega) raises ValueError.
    """
    value, = _outer_sums(scene, region, plan, m)
    return value


def _boundary_is_constant(G):
    # the boundary term carries exp(i w G) with G = g(R(Theta), Theta):
    # it is smooth when G is constant on the outer grid, whatever R does
    return np.max(np.abs(G - G.flat[0])) <= 1e-12 * max(1.0, np.max(np.abs(G)))


def _boundary_phase(scene):
    # G(*angles) = g(R(Theta), Theta), the phase of the boundary term
    return lambda *angles: scene.oscillator(scene.boundary_radius(*angles), *angles)


def _boundary_amplitude(scene, m):
    # amplitude of the boundary term as an analytic function of the
    # (possibly complex) angle, its rule read once; the oscillatory factor
    # exp(i w G) is supplied by the univariate descent machinery
    rules = [_in_p(gauss_exp_power(m, 1, 0), 1, scene.omega)]
    return lambda th: _descent_sums(scene, (th,), rules, _boundary_samples)[0] / (scene.n * scene.omega)


def _stationary_points(dG, lo, hi):
    # interior zeros of dG/dtheta, read by its real part, located by sign
    # changes on 600 samples (a sample where dG is zero is a point), each
    # bracket halved until its midpoint rounds to an end.  The same dG
    # callable (held, so its id is not reused) on the same interval gets a
    # copy of the last scan's points, so a geometry is scanned once; the
    # fallback dG is new per integral
    if (last := _last_scan[0]) and last[0] is dG and last[1:3] == (lo, hi):
        return list(last[3]), *last[4:]
    ths = np.linspace(lo, hi, 600)
    d = dG(ths).real
    zero = (d[:-1] == 0.0) & (lo < ths[:-1]) & (ths[:-1] < hi)
    points = []
    for i in np.flatnonzero(zero | (d[:-1] * d[1:] < 0)):
        if zero[i]:
            points.append(ths[i])
            continue
        a, b, fa = float(ths[i]), float(ths[i + 1]), float(d[i])
        while a < (mid := 0.5 * (a + b)) < b:
            if fa * (fm := float(dG(mid).real)) <= 0:
                b = mid
            else:
                a, fa = mid, fm
        points.append(mid)
    bound = 1e-7 * max(1.0, abs(float(d[0])), abs(float(d[-1])))
    end_a, end_b = abs(float(d[0])) < bound, abs(float(d[-1])) < bound
    _last_scan[0] = dG, lo, hi, tuple(points), end_a, end_b
    return points, end_a, end_b


def _oscillatory_boundary_term(scene, region, m, mesh, G_mesh):
    # The boundary term int exp(i w G(th)) amp(th) dth with G = g(R(th), th)
    # handled by univariate steepest descent in the angle, split at the
    # resonance-induced stationary points of G.  Every interval goes into
    # one nsd_interval call, so all endpoint paths are traced together.
    # dG/dtheta is the scene's, or else complex_derivative of G; the
    # realness check, the scan and the paths all read that one.
    # G and dG/dtheta must be real on real angles; each is checked once, on
    # the outer grid ``mesh`` (G_mesh holds G there), and a complex dtype
    # whose imaginary part is round-off passes
    if scene.n != 2:
        raise NotImplementedError("oscillatory boundary treatment implemented for n = 2 only")
    G = _boundary_phase(scene)
    dG = scene.d_boundary_phase or (lambda th: complex_derivative(G, th))
    for values in (G_mesh, dG(*mesh)):
        if np.any(np.abs(np.imag(values)) > 1e-12 * np.maximum(1.0, np.abs(values))):
            raise ValueError(f"scene {scene.name!r}: the boundary phase is not real on real angles")
    (lo, hi), = region.intervals
    stat, end_lo, end_hi = _stationary_points(dG, lo, hi)
    edges = [lo] + stat + [hi]
    k = len(edges) - 1
    alpha_a = [2 if (i > 0 or end_lo) else 1 for i in range(k)]
    alpha_b = [2 if (i < k - 1 or end_hi) else 1 for i in range(k)]
    return nsd_interval(_boundary_amplitude(scene, m), G, edges[:-1], edges[1:], scene.omega, m,
                        dg=dG, alpha_a=alpha_a, alpha_b=alpha_b)


def _check_no_radial_stationary_point(scene, mesh, R):
    # Re g'(rho, Theta) on the _SCAN_T fractions of R on every outer ray, in
    # one d_oscillator call.  A sign change or a zero marks a stationary
    # point of the phase inside the domain: its contribution lies on
    # neither the origin nor the boundary paths, so the value would be
    # silently wrong.  Two stationary points between neighbouring radii
    # cancel in sign and are not seen
    shape = _SCAN_T.shape + np.shape(mesh[0])
    rho = _SCAN_T.reshape((-1,) + (1,) * (len(shape) - 1)) * np.real(R)
    d = np.real(scene.d_oscillator(rho, *mesh))
    if np.shape(d) != shape:  # broadcast only then: it is slow
        d = np.broadcast_to(d, shape)
    stationary = d[:-1] * d[1:] <= 0
    if not stationary.any():
        return
    j, *ray = np.argwhere(stationary)[0]
    rho = np.broadcast_to(rho, shape)
    angles = ", ".join(f"{float(a[tuple(ray)]):.6g}" for a in mesh)
    raise PathError(f"scene {scene.name!r}: the phase is stationary inside the domain on the ray "
                    f"at angles ({angles}), between rho = {rho[(j, *ray)]:.6g} and "
                    f"{rho[(j + 1, *ray)]:.6g}; integrate_star_shaped covers only the origin "
                    "and boundary contributions")


def integrate_star_shaped(scene: RadialScene, region: AngularRegion, plan: OuterPlan, m: int) -> complex:
    """Outer rule applied to the star-shaped pre-quadrature values.

    The central part is always smooth in the angles.  The boundary part
    carries the factor ``exp(i w G(Theta))``, G = g(R(Theta), Theta): with a
    boundary phase G that is constant on the outer grid it is smooth as
    well and the plain outer rule applies; otherwise it oscillates and is
    treated by univariate descent in the angle (n = 2 only).

    A stationary point of the phase inside the domain contributes to
    neither part, so the rule first samples Re dg/dr at 32 interior radii
    of every outer ray, in one ``d_oscillator`` call, and raises PathError
    on a sign change or a zero, naming the scene, the ray and the bracket
    in rho.
    """
    if scene.boundary_radius is None:
        raise ValueError("integrate_star_shaped needs a bounded scene")
    _check_dimensions(scene, region, plan)
    mesh, w = _outer_grid(region, plan)
    R = scene.boundary_radius(*mesh)
    _check_no_radial_stationary_point(scene, mesh, R)
    G = np.asarray(scene.oscillator(R, *mesh), dtype=complex)
    constant = _boundary_is_constant(G)
    q = _central_grid(scene, mesh, m)
    if constant:
        q = q - _boundary_grid(scene, mesh, m, G)
    total = complex(np.sum(w * q))
    if not constant:
        total -= _oscillatory_boundary_term(scene, region, m, mesh, G)
    return total


# --- rectangle decompositions ---------------------------------------------


def _check_rectangle(name, a, b, omega):
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"{name} needs finite rectangle sides 0 < a, b < inf, got a={a}, b={b}")
    if not (omega > 0 and math.isfinite(omega)):
        raise ValueError(f"{name} needs a finite omega > 0, got omega={omega}")


def _assert_finite(K, corner):
    if not np.all(np.isfinite(K)):
        raise ValueError(f"corner {corner}: non-finite integrand (inverse sec/csc branch failure)")


def rectangle_corner_contributions(f_polar, a: float, b: float, omega: float,
                                   m_lag: int, m_herm: int) -> complex:
    r"""Boundary term of the rectangle ``[0,a] x [0,b]`` with phase ``sqrt(x^2+y^2)``.

    The outer angular integral of the boundary term is itself oscillatory
    with phase R(theta); its four endpoint contributions run along the
    closed-form angle paths ``nsdq.paths.corner_h11`` ... ``corner_h22``

        h11(q) = asec(1 + iq/a),        h12(q) = asec((eta + iq)/a),
        h21(q) = acsc((eta + iq)/b),    h22(q) = acsc(1 + iq/b),

    with eta = sqrt(a^2 + b^2).  The corners at theta = 0 and theta = pi/2
    are resonance points (stationary points of R), so their q-integrals get
    the q -> q^2 substitution and a half-range Gauss-Hermite rule; the two
    contributions from the split angle beta = atan(b/a) use Gauss-Laguerre.
    ``f_polar(z, theta)`` is the polar amplitude, analytic in both
    arguments.

    Returns I_ext = I11 - I12 + I21 - I22; the full rectangle integral is
    (integral of Q_r over [0, pi/2]) minus this value.
    """
    _check_rectangle("rectangle_corner_contributions", a, b, omega)
    eta = math.hypot(a, b)
    pl, wl = _in_p(gauss_exp_power(m_lag, 1, 0), 1, omega)
    ph, wh = _in_p(gauss_exp_power(m_herm, 2, 0), 2, omega)
    P, Qh, Ql = pl[:, None], ph[None, :], pl[None, :]  # p = s/omega in rows; q = t^2/omega, t/omega
    # corner, signed scale, start, q-nodes, angle path (theta, D), q-weights; Hermite at theta = 0, pi/2,
    # Laguerre at beta.  Adds I11, -I12, I21, -I22, each wl K wq, K = f(start + iq + ip, theta(q))/D(q)
    corners = (("(1,1)", -2.0 * a, a, Qh, corner_h11(Qh, a), wh),
               ("(1,2)", a, eta, Ql, corner_h12(Ql, a, b), wl),
               ("(2,1)", b, eta, Ql, corner_h21(Ql, a, b), wl),
               ("(2,2)", -2.0 * b, b, Qh, corner_h22(Qh, b), wh))
    total = 0j
    for corner, scale, start, Q, (theta, D), wq in corners:
        K = f_polar(start + 1j * Q + 1j * P, theta) / D
        _assert_finite(K, corner)
        total += (scale * cmath.exp(1j * omega * start) / omega**2) * (wl @ K @ wq)
    return complex(total)


def _direct_corner(f, x0, y0, omega, lag, herm, outer_resonance_fix):
    # One corner term F(x0, y0) of the nested Cartesian descent
    # decomposition for the phase sqrt(x^2 + y^2).  The inner path v starts
    # on the stationary line y = 0 whenever y0 = 0; that sqrt singularity
    # gets the q -> q^2 substitution with the half-range Hermite rule.  The
    # corner (0, b) hides the mirror-image singularity in the *outer* path;
    # the plain recipe leaves it untreated (and therefore stalls), the
    # resonance fix applies the same substitution there.  numpy's warnings
    # are muted: _assert_finite reports a non-finite K (at a huge omega)
    G = math.hypot(x0, y0)
    P, wp = herm if x0 == 0.0 and y0 > 0.0 and outer_resonance_fix else lag
    Q, wq = herm if y0 == 0.0 else lag
    P, Q = P[:, None], Q[None, :]
    with np.errstate(all="ignore"):
        u = np.sqrt(x0**2 - P**2 + 2j * P * G)
        du = 1j * (G + 1j * P) / u
        v = np.sqrt(y0**2 - Q**2 + 2j * Q * (G + 1j * P))
        dv = 1j * (G + 1j * P + 1j * Q) / v
        K = f(u, v) * du * dv
    _assert_finite(K, f"({x0},{y0})")
    return cmath.exp(1j * omega * G) * (wp @ K @ wq)


def rectangle_direct_terms(f, a, b, omega, m, m_herm=None, outer_resonance_fix=False):
    r"""Corner terms of nested Cartesian steepest descent, phase ``sqrt(x^2+y^2)``.

    Returns ``{(x0, y0): F(x0, y0)}`` for the corners of ``[0,a] x [0,b]``;
    the integral is ``F(0,0) - F(a,0) - F(0,b) + F(a,b)``.  Each corner is
    evaluated with the inner-axis ``q -> q^2`` substitution and tensor
    Gaussian rules.  This is the method that the polar treatment repairs,
    kept as a documented failure mode:

    * the origin term's scaled integrand is independent of omega (the phase
      is homogeneous there), so its relative quadrature error never
      decreases with the frequency and the term stalls at absolute order
      w^-2; for unit amplitude it also carries poles at q = +-i sqrt(2p);
    * the corner (0, b) buries the same square-root singularity in the
      outer integration variable, which the recipe leaves untreated unless
      ``outer_resonance_fix`` is set.

    ``f(x, y)`` must be analytic in both arguments along the corner paths.
    """
    _check_rectangle("rectangle_direct_terms", a, b, omega)
    if m_herm is None:
        m_herm = 2 * m
    # (nodes, weights) in the path variable of the Laguerre rule and of the
    # half-range Hermite rule (after q -> q^2), read once for all corners
    pl, wl = _in_p(gauss_exp_power(m, 1, 0), 1, omega)
    ph, wh = _in_p(gauss_exp_power(m_herm, 2, 0), 2, omega)
    lag, herm = (pl, wl / omega), (ph, 2 * wh / omega)
    return {(x0, y0): _direct_corner(f, x0, y0, omega, lag, herm, outer_resonance_fix)
            for x0, y0 in ((0.0, 0.0), (a, 0.0), (0.0, b), (a, b))}


def normalize_scene(x0, f, g, omega: float, *, alpha: int = 1,
                    singularity_order: float = 0.0, boundary_radius=None,
                    grad_g=None, name: str = "") -> RadialScene:
    """Shift the special point of Cartesian callables to the origin.

    Builds a scene of dimension n = len(x0) with ``g~(z, angles) =
    g(x0 + z Theta) - g(x0)`` and the amplitude ``exp(i w g(x0)) f(x0 + z
    Theta)``, which carries the constant phase.  ``f`` and ``g`` must
    accept complex coordinate vectors and be analytic along the rays
    actually traced; that region is the caller's responsibility.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    g0 = float(np.real(g(x0)))
    phase = cmath.exp(1j * omega * g0)

    def point(z, *angles):
        # coordinates on axis 0; z may carry node axes in front of the angle shape
        theta, _ = spherical_map(1.0, angles)
        z = np.asarray(z)
        return np.stack(np.broadcast_arrays(*(x0[i] + z * theta[i] for i in range(n))))

    def g_tilde(z, *angles):
        return g(point(z, *angles)) - g0

    def f_tilde(z, *angles):
        return phase * f(point(z, *angles))

    if grad_g is not None:
        def dg_tilde(z, *angles):
            theta, _ = spherical_map(1.0, angles)
            grad = grad_g(point(z, *angles))
            return sum(theta[i] * grad[i] for i in range(n))
    else:
        def dg_tilde(z, *angles):
            return complex_derivative(lambda zz: g_tilde(zz, *angles), z)

    def coeff(*angles):
        return np.real(_taylor_coefficient(lambda z: g_tilde(z, *angles), 0.0, alpha, 2e-4))

    return RadialScene(
        n=n,
        omega=omega,
        amplitude=f_tilde,
        oscillator=g_tilde,
        d_oscillator=dg_tilde,
        alpha=alpha,
        alpha_coeff=coeff,
        singularity_order=singularity_order,
        boundary_radius=boundary_radius,
        name=name or "normalized",
    )
