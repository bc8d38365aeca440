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
    and traces the paths of every interval endpoint in one continuation
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
``univariate._trace``, the one Newton continuation in ``p``; it also traces
the boundary term's endpoint paths, starts each row from the tangent step
of the last and returns drho/dp = i / g' with the roots.
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
from .rules import clenshaw_curtis, gauss_exp_power, trapezoid_periodic
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
    sin_running = 1.0
    coords = []
    for phi in angles:
        coords.append(r * np.cos(phi) * sin_running)
        sin_running = sin_running * np.sin(phi)
    coords.append(r * sin_running)
    factor = 1.0
    for l, phi in enumerate(angles, start=1):
        expo = n - 1 - l
        if expo:
            factor = factor * np.sin(phi) ** expo
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
            if c < 2:
                raise ValueError(f"outer rule counts must be >= 2, got {c}")

    @classmethod
    def for_region(cls, region: AngularRegion, cc: int = 50, trap: int = 50) -> "OuterPlan":
        """``trap`` nodes on a full-period axis, ``cc`` on any other."""
        return cls(tuple(trap if region.axis_periodic(axis) else cc for axis in range(region.n - 1)))


def _outer_grid(region: AngularRegion, plan: OuterPlan):
    """Tensor nodes/weights over the angular box, surface factor included.

    The first angle is the outermost tensor index.  Returns a tuple of
    angle arrays (meshgrid, 'ij' indexing) and the combined weight array.
    """
    nodes, weights = [], []
    for axis, (lo, hi) in enumerate(region.intervals):
        if region.axis_periodic(axis):
            rule = trapezoid_periodic(plan.counts[axis], hi - lo)
            nodes.append(rule.nodes + lo)
        else:
            rule = clenshaw_curtis(plan.counts[axis], lo, hi)
            nodes.append(rule.nodes)
        weights.append(rule.weights)
    mesh = np.meshgrid(*nodes, indexing="ij")
    _, factor = spherical_map(1.0, mesh)
    return mesh, functools.reduce(np.multiply.outer, weights) * factor


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
    # the paths of all directions at once, one continuation row per p
    # (``univariate._trace``), with the derivative the continuation took
    g = lambda z: scene.oscillator(z, *angles)
    dg = lambda z: scene.d_oscillator(z, *angles)
    grid = np.broadcast_shapes(*(np.shape(a) for a in angles))
    grid_seed = lambda q: np.broadcast_to(seed(q), grid)
    return _trace(g, dg, base, p_values, grid_seed, start, alpha, context)


def _origin_samples(scene: RadialScene, angles, p_values):
    """(rho, drho) over ascending descent parameters, node axis leading.

    Both arrays have shape ``(m,) + angle shape``.  A closed-form path is
    evaluated once on the whole node x direction array; a traced path is
    continued node by node in p, each row predicted by the tangent of the
    previous one, and its derivative is the one the continuation took.
    """
    if scene.origin_path is not None:
        return _closed_form_samples(scene.origin_path, p_values, angles)
    coeff = np.asarray(scene.alpha_coeff(*angles), dtype=float)
    if np.any(np.abs(coeff) < 1e-14):
        raise PathError("degenerate direction: vanishing leading coefficient on the grid")
    # leading term of the series rho ~ (i p / coeff)^(1/alpha)
    seed = lambda p: np.power(1j * p / coeff, 1.0 / scene.alpha)
    return _traced_samples(scene, angles, 0.0, p_values, seed, 0.0, scene.alpha, "origin grid")


def _boundary_samples(scene: RadialScene, angles, p_values):
    """Boundary-path counterpart of ``_origin_samples``, same shapes."""
    if scene.boundary_path is not None:
        return _closed_form_samples(scene.boundary_path, p_values, angles)
    # keep a complex dtype when tracing at complex angles (deformed outer
    # integration); real otherwise
    R = np.asarray(scene.boundary_radius(*angles))
    if not np.iscomplexobj(R):
        R = R.astype(float)
    gR = np.asarray(scene.oscillator(R, *angles), dtype=complex)
    dgR = np.asarray(scene.d_oscillator(R, *angles), dtype=complex)
    seed = lambda p: R + 1j * p / dgR
    return _traced_samples(scene, angles, gR, p_values, seed, R, 1, "boundary grid")


def _descent_sum(scene: RadialScene, angles, m: int, alpha, d, samples):
    """The Gaussian descent sum along every path of a direction grid.

    ``sum_j w_j x_j^(alpha-1-d) f(rho(p_j)) d(rho^n)/dp (p_j)`` at
    ``p_j = x_j^alpha / w``, with the rule for ``x^d exp(-x^alpha)`` and the
    path samples from ``samples`` (``_origin_samples`` or
    ``_boundary_samples``).  Summed node by node in node order: a BLAS
    contraction would reorder the additions and change the last bits.
    """
    rule = gauss_exp_power(m, alpha, d)
    rho, drho = samples(scene, angles, rule.nodes**alpha / scene.omega)
    n, power = scene.n, alpha - 1 - d
    f = scene.amplitude(rho, *angles)
    jac = n * rho ** (n - 1) * drho
    total = 0.0
    for j, (xj, wj) in enumerate(zip(rule.nodes, rule.weights)):
        total = total + wj * xj ** power * f[j] * jac[j]
    # free the products before the path samples: in the other order the
    # allocator gives the pages back, and an ellipsoid op faults 280 times, not 202
    del f, jac
    return total


def _central_grid(scene: RadialScene, angles, m: int):
    """Pre-quadrature value Q_r over a direction grid.

    Q_r(Theta) = alpha/(n w) sum_j w_j x_j^(alpha-1-d)
                 f(rho_0(x_j^alpha / w)) d(rho_0^n)/dp (x_j^alpha / w)

    with the Gaussian rule for ``x^d exp(-x^alpha)``; the weight degree d
    folds the Jacobian growth into the rule when the amplitude regularity
    allows it.  The amplitude's r^-nu singularity cancels against the
    Jacobian inside the product, which is evaluated at strictly positive
    nodes.
    """
    alpha = scene.alpha
    total = _descent_sum(scene, angles, m, alpha, _weight_degree(scene), _origin_samples)
    return total * (alpha / (scene.n * scene.omega))


def _boundary_grid(scene: RadialScene, angles, m: int, G):
    """Boundary term of the star-shaped rule over a direction grid.

    Returns ``exp(i w G)/(n w) sum_j w_j f(rho_R) d(rho_R^n)/dp``, the
    plain Gauss-Laguerre sum along the boundary paths (the phase is regular
    at the boundary).  ``G`` holds the boundary phase g(R(Theta), Theta) on
    ``angles``, as the caller already evaluated it.  The star-shaped
    pre-quadrature value is ``_central_grid - _boundary_grid``.
    """
    total = _descent_sum(scene, angles, m, 1, 0, _boundary_samples)
    return np.exp(1j * scene.omega * G) * total / (scene.n * scene.omega)


def _outer_sums(scene: RadialScene, region: AngularRegion, plan: OuterPlan, m: int,
                m_companion: int | None = None) -> list:
    """The outer sum ``phase * sum(w * Q_r)`` of ``integrate_unbounded``, in a list.

    With ``m_companion`` the list also holds the two sums an error estimate
    reads, after the value: the companion radial rule's Q_r on the same
    outer grid, and the value's own Q_r on every other node of the last
    axis with doubled weights.  That axis must be a periodic trapezoid with
    an even count, so the second sum is the nested N/2 trapezoid; it costs
    no scene evaluation.
    """
    _check_dimensions(scene, region, plan)
    mesh, w = _outer_grid(region, plan)
    q = _central_grid(scene, mesh, m)
    terms = [(w, q)]
    if m_companion is not None:
        half = (..., slice(None, None, 2))
        terms += [(w, _central_grid(scene, mesh, m_companion)), (2.0 * w[half], q[half])]
    return [complex(scene.phase_at_origin) * complex(np.sum(w * q)) for w, q in terms]


def integrate_unbounded(scene: RadialScene, region: AngularRegion, plan: OuterPlan, m: int) -> complex:
    """Outer tensor rule applied to the central contribution over a cone.

    Error: the outer rule's own error on the smooth integrand Q_r plus the
    radial pre-quadrature error O(w^-((2m-1)/alpha)).
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
    # (possibly complex) angle; the oscillatory factor exp(i w G) is
    # supplied by the univariate descent machinery.
    return lambda th: _descent_sum(scene, (th,), m, 1, 0, _boundary_samples) / (scene.n * scene.omega)


def _stationary_points(dG, lo, hi):
    # interior zeros of dG/dtheta, read by its real part, located by sign
    # changes on 600 samples plus bisection.  A bracket is halved until its
    # midpoint rounds to one of its ends
    ths = np.linspace(lo, hi, 600)
    d = dG(ths).real
    zero = (d[:-1] == 0.0) & (lo < ths[:-1]) & (ths[:-1] < hi)
    points = []
    for i in np.flatnonzero(zero | (d[:-1] * d[1:] < 0)):
        if zero[i]:
            points.append(ths[i])
            continue
        a, b = ths[i], ths[i + 1]
        fa, mid = d[i], 0.5 * (a + b)
        while a < mid < b:
            fm = float(dG(mid).real)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
            mid = 0.5 * (a + b)
        points.append(mid)
    scale = max(abs(float(d[0])), abs(float(d[-1])), 1e-30)
    end_a = abs(float(d[0])) < 1e-7 * max(1.0, scale)
    end_b = abs(float(d[-1])) < 1e-7 * max(1.0, scale)
    return points, end_a, end_b


def _oscillatory_boundary_term(scene, region, m, mesh, G_mesh):
    # The boundary term int exp(i w G(th)) amp(th) dth with G = g(R(th), th)
    # handled by univariate steepest descent in the angle, split at the
    # resonance-induced stationary points of G.  Every interval goes into
    # one nsd_interval call, so all endpoint paths are traced in one
    # continuation.  dG/dtheta is the scene's, or else complex_derivative
    # of G; the realness check, the scan and the paths all read that one.
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
    # complex(): the nsd term turns the total into a numpy scalar
    return complex(complex(scene.phase_at_origin) * total)


# --- rectangle decompositions ---------------------------------------------


def _check_rectangle(name, a, b, omega):
    if not (a > 0 and b > 0):
        raise ValueError(f"rectangle sides must be positive, got a={a}, b={b}")
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
    gl = gauss_exp_power(m_lag, 1, 0)
    gh = gauss_exp_power(m_herm, 2, 0)
    P = gl.nodes[:, None] / omega  # p = s/omega, rows
    wl = gl.weights

    def corner_sum(corner, start, Q, path, wq):
        # wl K wq with K = f(start + i q + i p, theta(q)) / D(q) over the (p, q) grid
        theta, D = path
        K = f_polar(start + 1j * Q + 1j * P, theta) / D
        _assert_finite(K, corner)
        return wl @ K @ wq

    # corners at theta = 0 and pi/2: q = t^2/omega
    Qh = (gh.nodes**2 / omega)[None, :]
    wh = gh.weights * gh.nodes
    I11 = -(2.0 * a * cmath.exp(1j * omega * a) / omega**2) * corner_sum(
        "(1,1)", a, Qh, corner_h11(Qh, a), wh)
    I22 = (2.0 * b * cmath.exp(1j * omega * b) / omega**2) * corner_sum(
        "(2,2)", b, Qh, corner_h22(Qh, b), wh)

    # corners at theta = beta: q = t/omega
    Ql = (gl.nodes / omega)[None, :]
    I12 = -(a * cmath.exp(1j * omega * eta) / omega**2) * corner_sum(
        "(1,2)", eta, Ql, corner_h12(Ql, a, b), wl)
    I21 = (b * cmath.exp(1j * omega * eta) / omega**2) * corner_sum(
        "(2,1)", eta, Ql, corner_h21(Ql, a, b), wl)

    return complex(I11 - I12 + I21 - I22)


def _direct_corner(f, x0, y0, omega, m_lag, m_herm, outer_resonance_fix):
    # One corner term F(x0, y0) of the nested Cartesian descent
    # decomposition for the phase sqrt(x^2 + y^2).  The inner path v starts
    # on the stationary line y = 0 whenever y0 = 0; that sqrt singularity
    # gets the q -> q^2 substitution with a half-range Hermite rule.  The
    # corner (0, b) hides the mirror-image singularity in the *outer* path;
    # the plain recipe leaves it untreated (and therefore stalls), the
    # resonance fix applies the same substitution there.
    G = math.hypot(x0, y0)

    def rule(singular):
        # (nodes, weights) in the path variable: Laguerre, or half-range
        # Hermite after the q -> q^2 substitution at a square-root singularity
        if singular:
            gh = gauss_exp_power(m_herm, 2, 0)
            return gh.nodes**2 / omega, 2.0 * gh.weights * gh.nodes / omega
        gl = gauss_exp_power(m_lag, 1, 0)
        return gl.nodes / omega, gl.weights / omega

    P, wp = rule(x0 == 0.0 and y0 > 0.0 and outer_resonance_fix)
    Q, wq = rule(y0 == 0.0)
    P, Q = P[:, None], Q[None, :]

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
    return {(x0, y0): _direct_corner(f, x0, y0, omega, m, m_herm, outer_resonance_fix)
            for x0, y0 in ((0.0, 0.0), (a, 0.0), (0.0, b), (a, b))}


def normalize_scene(x0, f, g, omega: float, *, n: int | None = None, alpha: int = 1,
                    singularity_order: float = 0.0, boundary_radius=None,
                    grad_g=None, name: str = "") -> RadialScene:
    """Shift the special point of Cartesian callables to the origin.

    Builds a scene with ``g~(z, angles) = g(x0 + z Theta) - g(x0)`` and the
    constant ``exp(i w g(x0))`` recorded in ``phase_at_origin`` (the
    integrators multiply it back).  ``f`` and ``g`` must accept complex
    coordinate vectors and be analytic along the rays actually traced; that
    region is the caller's responsibility.
    """
    x0 = np.asarray(x0, dtype=float)
    if n is None:
        n = len(x0)
    g0 = float(np.real(g(x0)))

    def point(z, *angles):
        # coordinates on axis 0; z may carry node axes in front of the angle shape
        theta, _ = spherical_map(1.0, angles)
        z = np.asarray(z)
        return np.stack(np.broadcast_arrays(*(x0[i] + z * theta[i] for i in range(n))))

    def g_tilde(z, *angles):
        return g(point(z, *angles)) - g0

    def f_tilde(z, *angles):
        return f(point(z, *angles))

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
        phase_at_origin=cmath.exp(1j * omega * g0),
        name=name or "normalized",
    )
