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
    Outer tensor rule over an angular region applied to the pre-quadrature
    value Q_r, which captures the special point.
``integrate_star_shaped``
    The same for a star-shaped domain, minus its boundary term: by the
    plain outer rule when the boundary radius R is constant, by univariate
    descent in the angle when R varies.  That descent traces the paths of
    every interval endpoint in one continuation (``nsd_interval`` on arrays
    of edges) and takes dG/dtheta from the scene's ``d_boundary_phase``
    when it has one.
``rectangle_corner_contributions``
    The closed-form corner decomposition of the boundary term for an
    axis-aligned rectangle with phase sqrt(x^2 + y^2), including the
    resonance corners that need the half-range Hermite treatment.
``rectangle_direct_terms``
    The four corner terms of nested univariate steepest descent applied
    directly in Cartesian coordinates.  Kept deliberately: its origin term
    cannot converge faster than w^-2 (the integrand after scaling is
    w-independent), which is the failure the polar rule repairs.

Paths without a closed form are traced by one Newton continuation in ``p``
over the whole direction grid (``_traced_samples``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .paths import (PathError, RadialScene, complex_derivative, corner_h11, corner_h12,
                    corner_h21, corner_h22, newton_descent)
from .rules import clenshaw_curtis, gauss_exp_power, trapezoid_periodic
from .univariate import nsd_interval

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
_MAX_RAMP_QUARTERS = 16  # the first-point ramp starts no lower than p / 4^16


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
    """Union of coordinate boxes on the (n-1)-sphere's angle space.

    Each box is a tuple of per-angle intervals: one interval for n = 2, a
    pair (phi1-range, phi2-range) for n = 3.  ``full_sphere`` marks the
    whole sphere, whose last axis is periodic.
    """

    n: int
    boxes: tuple = ()
    full_sphere: bool = False

    @classmethod
    def full(cls, n: int) -> "AngularRegion":
        if n == 2:
            return cls(2, (((0.0, _TWO_PI),),), full_sphere=True)
        if n == 3:
            return cls(3, (((0.0, math.pi), (0.0, _TWO_PI)),), full_sphere=True)
        raise NotImplementedError(f"full sphere regions cover n = 2, 3; got {n}")

    @classmethod
    def box(cls, n: int, *intervals) -> "AngularRegion":
        if len(intervals) != n - 1:
            raise ValueError(f"need {n - 1} angle intervals for n = {n}, got {len(intervals)}")
        return cls(n, (tuple((float(a), float(b)) for a, b in intervals),))

    def __post_init__(self):
        ranges = [(0.0, math.pi)] * (self.n - 2) + [(0.0, _TWO_PI)]
        for box in self.boxes:
            if len(box) != self.n - 1:
                raise ValueError(f"box {box} has wrong arity for n = {self.n}")
            for (lo, hi), (rlo, rhi) in zip(box, ranges):
                if not (rlo - 1e-12 <= lo < hi <= rhi + 1e-12):
                    raise ValueError(f"angle interval [{lo}, {hi}] outside [{rlo}, {rhi}]")

    def axis_periodic(self, axis: int, box) -> bool:
        # only the last angle can be periodic, and only over its full range
        lo, hi = box[axis]
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
        """``trap`` nodes on an axis that is a full period in every box, ``cc``
        on an axis that is one in none; an axis that is a full period in some
        boxes only takes ``max(cc, trap)``, so the plan does not depend on
        the order of the boxes."""
        counts = []
        for axis in range(region.n - 1):
            periodic = {region.axis_periodic(axis, box) for box in region.boxes}
            counts.append(max(cc, trap) if periodic == {True, False} else trap if True in periodic else cc)
        return cls(tuple(counts))


def _outer_grid(region: AngularRegion, plan: OuterPlan, box):
    """Tensor nodes/weights over one angular box, surface factor included.

    The first angle is the outermost tensor index.  Returns a tuple of
    angle arrays (meshgrid, 'ij' indexing) and the combined weight array.
    """
    nodes, weights = [], []
    for axis, (lo, hi) in enumerate(box):
        if region.axis_periodic(axis, box):
            rule = trapezoid_periodic(plan.counts[axis], hi - lo)
            nodes.append(rule.nodes + lo)
        else:
            rule = clenshaw_curtis(plan.counts[axis], lo, hi)
            nodes.append(rule.nodes)
        weights.append(rule.weights)
    if len(nodes) == 1:
        mesh = (nodes[0],)
        w = weights[0].copy()
    else:
        mesh = np.meshgrid(*nodes, indexing="ij")
        w = weights[0][:, None] * weights[1][None, :]
    _, factor = spherical_map(1.0, mesh)
    return mesh, w * factor


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


def _first_samples(g, dg, base, p, seed, start, grid, context):
    # Newton from the series seed at the first p.  Where the seed is far from
    # the root it can converge to another branch, so its root is trusted only
    # within 0.5 |seed - start| of the seed in every direction.  Otherwise q
    # is divided by 4 until every root lies within 0.1 |seed(q) - start| of
    # its seed, and the roots are continued geometrically up to p, 4 steps
    # per octave.
    def solve(q, tol):
        s = np.broadcast_to(seed(q), grid)
        try:
            z = newton_descent(g, dg, base + 1j * q, s, context=context)
        except PathError:
            return None
        return z if np.all(np.abs(z - s) <= tol * np.abs(s - start)) else None

    z = solve(p, 0.5)
    if z is not None:
        return z
    for k in range(1, _MAX_RAMP_QUARTERS + 1):
        z = solve(p / 4.0**k, 0.1)
        if z is not None:
            for q in np.geomspace(p / 4.0**k, p, 8 * k + 1)[1:]:
                z = newton_descent(g, dg, base + 1j * q, z, context=context)
            return z
    raise PathError(f"no first path point near the series seed down to p/4^{_MAX_RAMP_QUARTERS} {context}")


def _traced_samples(scene: RadialScene, angles, base, p_values, seed, start, context):
    # Newton continuation of g(rho(p)) = base + i p over ascending p, all
    # directions at once: the first p from seed(p) (``_first_samples``), each
    # later p from the previous solution.
    g = lambda z: scene.oscillator(z, *angles)
    dg = lambda z: scene.d_oscillator(z, *angles)
    grid = np.broadcast_shapes(*(np.shape(a) for a in angles))
    zs = [_first_samples(g, dg, base, p_values[0], seed, start, grid, context)]
    for p in p_values[1:]:
        zs.append(newton_descent(g, dg, base + 1j * p, zs[-1], context=context))
    rho = np.stack(zs)
    return rho, 1j / np.asarray(dg(rho), dtype=complex)


def _origin_samples(scene: RadialScene, angles, p_values):
    """(rho, drho) over ascending descent parameters, node axis leading.

    Both arrays have shape ``(m,) + angle shape``.  A closed-form path is
    evaluated once on the whole node x direction array; a traced path is
    continued node by node in p, and its derivative evaluated once on the
    stacked solutions.
    """
    if scene.origin_path is not None:
        return _closed_form_samples(scene.origin_path, p_values, angles)
    coeff = np.asarray(scene.alpha_coeff(*angles), dtype=float)
    if np.any(np.abs(coeff) < 1e-14):
        raise PathError("degenerate direction: vanishing leading coefficient on the grid")
    # leading term of the series rho ~ (i p / coeff)^(1/alpha)
    seed = lambda p: np.power(1j * p / coeff, 1.0 / scene.alpha)
    return _traced_samples(scene, angles, 0.0, p_values, seed, 0.0, "origin grid")


def _boundary_samples(scene: RadialScene, angles, p_values):
    """Boundary-path counterpart of ``_origin_samples``, same shapes."""
    if scene.boundary_path is not None:
        return _closed_form_samples(scene.boundary_path, p_values, angles)
    if scene.boundary_radius is None:
        raise ValueError("scene has no boundary radius")
    # keep a complex dtype when tracing at complex angles (deformed outer
    # integration); real otherwise
    R = np.asarray(scene.boundary_radius(*angles))
    if not np.iscomplexobj(R):
        R = R.astype(float)
    gR = np.asarray(scene.oscillator(R, *angles), dtype=complex)
    dgR = np.asarray(scene.d_oscillator(R, *angles), dtype=complex)
    seed = lambda p: R + 1j * p / dgR
    return _traced_samples(scene, angles, gR, p_values, seed, R, "boundary grid")


def _radial_sum(scene: RadialScene, angles, rule, power, rho, drho):
    # sum_j w_j x_j^power f(rho_j) d(rho_j^n)/dp, summed node by node in node
    # order: a BLAS contraction would reorder the additions and change the
    # last bits
    n = scene.n
    f = scene.amplitude(rho, *angles)
    jac = n * rho ** (n - 1) * drho
    total = 0.0
    for j, (xj, wj) in enumerate(zip(rule.nodes, rule.weights)):
        total = total + wj * xj ** power * f[j] * jac[j]
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
    alpha, n, omega = scene.alpha, scene.n, scene.omega
    d = _weight_degree(scene)
    rule = gauss_exp_power(m, alpha, d)
    rho, drho = _origin_samples(scene, angles, rule.nodes**alpha / omega)
    total = _radial_sum(scene, angles, rule, alpha - 1 - d, rho, drho)
    return total * (alpha / (n * omega))


def _boundary_grid(scene: RadialScene, angles, m: int):
    """Boundary term of the star-shaped rule over a direction grid.

    Returns ``exp(i w g(R Theta))/(n w) sum_j w_j f(rho_R) d(rho_R^n)/dp``
    with the plain Gauss-Laguerre rule (the phase is regular at the
    boundary).  The star-shaped pre-quadrature value is
    ``_central_grid - _boundary_grid``.
    """
    n, omega = scene.n, scene.omega
    rule = gauss_exp_power(m, 1, 0)
    rho, drho = _boundary_samples(scene, angles, rule.nodes / omega)
    R = np.asarray(scene.boundary_radius(*angles))
    gR = np.asarray(scene.oscillator(R, *angles), dtype=complex)
    total = _radial_sum(scene, angles, rule, 0, rho, drho)
    return np.exp(1j * omega * gR) * total / (n * omega)


def integrate_unbounded(scene: RadialScene, region: AngularRegion, plan: OuterPlan, m: int) -> complex:
    """Outer tensor rule applied to the central contribution over a cone.

    Error: the outer rule's own error on the smooth integrand Q_r plus the
    radial pre-quadrature error O(w^-((2m-1)/alpha)).
    """
    total = 0.0 + 0.0j
    for box in region.boxes:
        mesh, w = _outer_grid(region, plan, box)
        q = _central_grid(scene, mesh, m)
        total += complex(np.sum(w * q))
    return complex(scene.phase_at_origin) * total


def _boundary_is_constant(scene, grids):
    for mesh, _ in grids:
        R = np.asarray(scene.boundary_radius(*mesh), dtype=float)
        if np.max(R) - np.min(R) > 1e-12 * max(1.0, np.max(np.abs(R))):
            return False
    return True


def _boundary_phase(scene):
    def G(th):
        R = scene.boundary_radius(th)
        return scene.oscillator(R, th)

    return G


def _boundary_amplitude(scene, m):
    # amplitude of the boundary term as an analytic function of the
    # (possibly complex) angle; the oscillatory factor exp(i w G) is
    # supplied by the univariate descent machinery.
    rule = gauss_exp_power(m, 1, 0)
    ps = rule.nodes / scene.omega
    scale = scene.n * scene.omega
    return lambda th: _radial_sum(scene, (th,), rule, 0, *_boundary_samples(scene, (th,), ps)) / scale


def _stationary_points(G, lo, hi, nsamples=600):
    # interior zeros of G' located by sign changes plus bisection
    ths = np.linspace(lo, hi, nsamples)
    h = (hi - lo) / (8.0 * nsamples)
    dG = (np.asarray(G(ths + h), float) - np.asarray(G(ths - h), float)) / (2 * h)
    points = []
    for i in range(nsamples - 1):
        if dG[i] == 0.0 and lo < ths[i] < hi:
            points.append(ths[i])
        elif dG[i] * dG[i + 1] < 0:
            a, b = ths[i], ths[i + 1]
            fa = dG[i]
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = (float(G(mid + h)) - float(G(mid - h))) / (2 * h)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            points.append(0.5 * (a + b))
    scale = max(abs(float(dG[0])), abs(float(dG[-1])), 1e-30)
    end_a = abs(float(dG[0])) < 1e-7 * max(1.0, scale)
    end_b = abs(float(dG[-1])) < 1e-7 * max(1.0, scale)
    return points, end_a, end_b


def _oscillatory_boundary_term(scene, region, m):
    # The boundary term int exp(i w G(th)) amp(th) dth with G = g(R(th), th)
    # handled by univariate steepest descent in the angle, split at the
    # resonance-induced stationary points of G.  Every interval of every box
    # goes into one nsd_interval call, so all endpoint paths are traced in
    # one continuation.
    if scene.n != 2:
        raise NotImplementedError("oscillatory boundary treatment implemented for n = 2 only")
    G = _boundary_phase(scene)
    a, b, alpha_a, alpha_b = [], [], [], []
    for box in region.boxes:
        (lo, hi), = box
        stat, end_lo, end_hi = _stationary_points(G, lo, hi)
        edges = [lo] + stat + [hi]
        k = len(edges) - 1
        a += edges[:-1]
        b += edges[1:]
        alpha_a += [2 if (i > 0 or end_lo) else 1 for i in range(k)]
        alpha_b += [2 if (i < k - 1 or end_hi) else 1 for i in range(k)]
    return nsd_interval(_boundary_amplitude(scene, m), G, a, b, scene.omega, m,
                        dg=scene.d_boundary_phase, alpha_a=alpha_a, alpha_b=alpha_b)


def integrate_star_shaped(scene: RadialScene, region: AngularRegion, plan: OuterPlan, m: int) -> complex:
    """Outer rule applied to the star-shaped pre-quadrature values.

    The central part is always smooth in the angles.  The boundary part
    carries the factor ``exp(i w g(R(Theta) Theta))``: with a boundary
    radius that is constant on the outer grid it is smooth as well and the
    plain outer rule applies; otherwise it oscillates and is treated by
    univariate descent in the angle (n = 2 only).
    """
    if scene.boundary_radius is None:
        raise ValueError("integrate_star_shaped needs a bounded scene")
    grids = [_outer_grid(region, plan, box) for box in region.boxes]
    constant = _boundary_is_constant(scene, grids)
    total = 0.0 + 0.0j
    for mesh, w in grids:
        q = _central_grid(scene, mesh, m)
        if constant:
            q = q - _boundary_grid(scene, mesh, m)
        total += complex(np.sum(w * q))
    if not constant:
        total -= _oscillatory_boundary_term(scene, region, m)
    # complex(): the nsd term turns the total into a numpy scalar
    return complex(complex(scene.phase_at_origin) * total)


# --- rectangle decompositions ---------------------------------------------


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
    if not (a > 0 and b > 0):
        raise ValueError(f"rectangle sides must be positive, got a={a}, b={b}")
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
    p_singular = (x0 == 0.0 and y0 > 0.0) and outer_resonance_fix
    q_singular = (y0 == 0.0)
    gl = gauss_exp_power(m_lag, 1, 0)
    gh = gauss_exp_power(m_herm, 2, 0)

    if p_singular:
        P = (gh.nodes**2 / omega)[:, None]
        wp = 2.0 * gh.weights * gh.nodes / omega
    else:
        P = (gl.nodes / omega)[:, None]
        wp = gl.weights / omega
    if q_singular:
        Q = (gh.nodes**2 / omega)[None, :]
        wq = 2.0 * gh.weights * gh.nodes / omega
    else:
        Q = (gl.nodes / omega)[None, :]
        wq = gl.weights / omega

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
    if not (a > 0 and b > 0):
        raise ValueError(f"rectangle sides must be positive, got a={a}, b={b}")
    if m_herm is None:
        m_herm = 2 * m
    return {
        (0.0, 0.0): _direct_corner(f, 0.0, 0.0, omega, m, m_herm, outer_resonance_fix),
        (a, 0.0): _direct_corner(f, a, 0.0, omega, m, m_herm, outer_resonance_fix),
        (0.0, b): _direct_corner(f, 0.0, b, omega, m, m_herm, outer_resonance_fix),
        (a, b): _direct_corner(f, a, b, omega, m, m_herm, outer_resonance_fix),
    }


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
        h = 1e-4
        if alpha == 1:
            return np.real((g_tilde(h, *angles) - g_tilde(-h, *angles)) / (2 * h))
        ks = np.arange(-alpha, alpha + 1)
        vals = np.stack([np.asarray(g_tilde(k * h, *angles), dtype=complex) for k in ks])
        A = np.vander(ks * h, 2 * alpha + 1, increasing=True).T
        rhs = np.zeros(2 * alpha + 1)
        rhs[alpha] = math.factorial(alpha)
        c = np.linalg.solve(A, rhs)
        return np.real(np.tensordot(c, vals, axes=1)) / math.factorial(alpha)

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
