r"""Univariate numerical steepest descent.

An oscillatory integral ``int_a^b f(x) exp(i w g(x)) dx`` with monotone
phase equals ``G(a) - G(b)`` up to exponentially small terms, where each
endpoint contribution

    G(x) = exp(i w g(x)) int_0^inf f(h_x(p)) h_x'(p) exp(-w p) dp

runs along the steepest-descent path ``g(h_x(p)) = g(x) + i p``.  When the
first ``alpha - 1`` derivatives of ``g`` vanish at the endpoint the path
behaves like ``p^(1/alpha)`` and the substitution ``p -> q^alpha`` restores
analyticity; the integral is then resolved by the Gaussian rule for the
weight ``exp(-q^alpha)``, giving an error of order ``w^-((2m-1)/alpha)``.

The paths of any number of endpoints are traced together: one Newton
continuation in ``p`` over the (m, E) array of descent parameters, with
``newton_descent`` solving one node row for all E endpoints at a time.
That continuation, ``_trace``, is the only one in the package: the polar
rules trace their radial paths with it too.  It is a predictor-corrector:
each row starts from the tangent step dz/dp = i / g'(z) of the previous
row's roots, taken in the node variable ``x = (w p)^(1/alpha)`` in which
the path is analytic, and it returns that derivative on the roots with
them, so the callers never evaluate g' again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .paths import PathError, _taylor_coefficient, complex_derivative, newton_descent
from .rules import gauss_exp_power

__all__ = ["Endpoint1D", "endpoint_contribution", "nsd_interval"]

_MAX_RAMP_QUARTERS = 16  # the first-row ramp starts no lower than p / 4^16


@dataclass(frozen=True)
class Endpoint1D:
    """An endpoint of an oscillatory integral.

    Attributes
    ----------
    x : location of the endpoint, a finite real.
    alpha_local : 1 + number of vanishing derivatives of the phase at x,
        an integer.
    side : +1 when the integration interval lies to the right of x,
        -1 when it lies to the left.  Selects the descent branch when
        alpha_local >= 2; irrelevant otherwise.
    """

    x: float
    alpha_local: int = 1
    side: int = +1

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError(f"x must be finite, got x={self.x!r}")
        if not isinstance(self.alpha_local, (int, np.integer)) or self.alpha_local < 1:
            raise ValueError(f"alpha_local must be an integer >= 1, got {self.alpha_local!r}")
        if self.side not in (+1, -1):
            raise ValueError(f"side must be +1 or -1, got {self.side}")


def _phase_coefficient(g, dg, x, alpha):
    # Leading Taylor coefficient g^(alpha)(x)/alpha!; only seeds Newton.
    if alpha == 1:
        return complex(dg(x))
    return complex(_taylor_coefficient(g, x, alpha, 1e-2))


def _branch_seed(p, alpha, lead_coeff, side):
    # Roots of z^alpha = i p alpha! / g^(alpha) = i p / lead_coeff; pick the
    # one pointing into the interval (Re > 0 for side=+1, Re < 0 for -1),
    # with the principal root as tie-break.
    c = 1j * p / lead_coeff
    base = c ** (1.0 / alpha)
    roots = [base * cmath.exp(2j * cmath.pi * k / alpha) for k in range(alpha)]
    key = (lambda z: z.real) if side > 0 else (lambda z: -z.real)
    return max(roots, key=key)


def _endpoint_list(endpoints):
    return ", ".join(f"(x={e.x!r}, alpha={e.alpha_local}, side={e.side:+d})" for e in endpoints)


def _trace(g, dg, base, p, seed, start, alpha, context):
    # Newton continuation of g(z) = base + i p over the rows of ascending p,
    # the one tracer of every descent path: a row is a scalar (one p for a
    # whole direction grid) or an array (one p per path), and each row is one
    # newton_descent call.  Returns the roots and dz/dp = i / g'(z) on them.
    # The first row starts from seed(p[0]).  Far from its root a seed can
    # converge to another branch, so that root is trusted only within
    # 0.5 |seed - start| of the seed in every path.  Otherwise q = p[0] is
    # divided by 4 until every root lies within 0.1 |seed(q) - start| of its
    # seed, and those roots are continued geometrically up to p[0], 4 steps
    # per octave.  Only Newton's own failures (``failed`` set) start the
    # ramp; any other PathError, such as a scene refusing a complex argument,
    # propagates.  Every later row, ramp or node, starts from the tangent
    # step in the node variable (p^(1/alpha)), where the path is analytic.
    def solve(q, tol):
        # (roots, None), or (None, mask of the paths without a trusted root)
        s = seed(q)
        try:
            z = newton_descent(g, dg, base + 1j * q, s, context=context)
        except PathError as err:
            if err.failed is None:
                raise
            return None, err.failed
        far = ~(np.abs(z - s) <= tol * np.abs(s - start))
        return (None, far) if np.any(far) else (z, None)

    (z, failed), k = solve(p[0], 0.5), 0
    while z is None:
        k += 1
        if k > _MAX_RAMP_QUARTERS:
            raise PathError(f"no first path point near the series seed down to "
                            f"p/4^{_MAX_RAMP_QUARTERS} {context}", failed)
        z, failed = solve(p[0] / 4.0**k, 0.1)
    derivative = lambda z: np.broadcast_to(1j / np.asarray(dg(z), dtype=complex), np.shape(z))
    zs, dzs, prev = [z], [derivative(z)], p[0] / 4.0**k
    for q in [*(np.geomspace(prev, p[0], 8 * k + 1)[1:] if k else ()), *p[1:]]:
        step = alpha * prev * ((q / prev) ** (1.0 / alpha) - 1.0)
        zs.append(newton_descent(g, dg, base + 1j * q, zs[-1] + step * dzs[-1], context=context))
        dzs.append(derivative(zs[-1]))
        prev = q
    return np.stack(zs[-len(p):]), np.stack(dzs[-len(p):])


def endpoint_contribution(f, g, endpoints, omega: float, m: int, dg=None):
    """Descent-path contributions G(x) of a sequence of endpoints.

    Every endpoint's path is traced in one Newton continuation in ``p``:
    row j of the (m, E) array of descent parameters is one
    ``newton_descent`` call over all E endpoints, seeded by the tangent step
    from the previous row in each endpoint's node variable (p^(1/alpha))
    (the first row from each endpoint's branch seed, whose root is trusted
    only near the seed; otherwise the first row is ramped up from a smaller
    p).  The continuation evaluates ``dg`` on each row's roots, for the next
    row's tangent and for the path derivative h' = i / dg; ``f`` is then
    evaluated once on the (m, E) array of path points, and each endpoint's
    node sum is taken in node order.

    Parameters
    ----------
    f, g : callables accepting complex arrays, analytic near the paths;
        a scalar result is broadcast.
    endpoints : a non-empty sequence of :class:`Endpoint1D`; the result is a
        complex array, one value per endpoint.
    omega : frequency (finite, > 0).
    m : number of Gaussian points for the radial rule.
    dg : optional analytic derivative of g; a finite-difference fallback is
        used when omitted.

    Raises PathError naming omega and the failing endpoints as
    (x, alpha, side) when a path cannot be traced.
    """
    if not (omega > 0 and math.isfinite(omega)):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    ends = tuple(endpoints)
    if not ends:
        raise ValueError("endpoint_contribution needs at least one endpoint, got endpoints=[]")
    dge = dg if dg is not None else (lambda z: complex_derivative(g, z))
    leads = [_phase_coefficient(g, dge, e.x, e.alpha_local) for e in ends]
    flat = [e for e, lead in zip(ends, leads) if abs(lead) < 1e-14]
    if flat:
        raise PathError(
            f"omega={omega}: phase coefficient of the declared order vanishes at endpoints "
            f"{_endpoint_list(flat)}; alpha_local is wrong or the path is degenerate"
        )

    x = np.array([e.x for e in ends], dtype=float)
    alpha = np.array([e.alpha_local for e in ends])
    rules = [gauss_exp_power(m, e.alpha_local, 0) for e in ends]
    nodes = np.stack([r.nodes for r in rules], axis=1)            # (m, E)
    weights = np.stack([r.weights for r in rules], axis=1) * nodes ** (alpha - 1)
    p = nodes**alpha / omega
    gx = np.broadcast_to(np.asarray(g(x), dtype=complex), x.shape)
    seed = lambda q: x + np.array([_branch_seed(qe, e.alpha_local, lead, e.side)
                                   for qe, e, lead in zip(q, ends, leads)])
    # below the asymptotic regime Newton's iterates can reach angles where g
    # overflows; newton_descent turns the non-finite values into PathError,
    # so numpy's warnings are silenced here
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            z, dz = _trace(g, dge, gx, p, seed, x, alpha, "along the endpoint paths")
        except PathError as err:
            failed = ends if err.failed is None else [e for e, bad in zip(ends, err.failed) if bad]
            raise PathError(f"{err} at omega={omega}; failing endpoints {_endpoint_list(failed)}",
                            err.failed) from err
    terms = weights * np.broadcast_to(f(z), z.shape) * dz
    total = 0.0
    for term in terms:
        total = total + term
    return np.exp(1j * omega * gx) * (alpha / omega) * total


def nsd_interval(f, g, a, b, omega: float, m: int, *, dg=None, alpha_a=1, alpha_b=1) -> complex:
    """Steepest-descent value of ``int_a^b f exp(i w g) dx``.

    The phase must be monotone on ``[a, b]`` with nonvanishing derivative in
    the interior; endpoints with vanishing derivatives are declared through
    the integer orders ``alpha_a`` and ``alpha_b`` (1 + the number of
    vanishing derivatives).  Returns G(a) - G(b); the error is of order
    ``w^-((2m-1)/alpha_max)`` plus exponentially small terms.  The branch
    of an ``alpha >= 2`` endpoint is chosen to point into the interval, so
    ``a < b`` is required.

    ``a``, ``b``, ``alpha_a`` and ``alpha_b`` may also be equal-length,
    non-empty sequences of intervals: every endpoint is then traced in one
    :func:`endpoint_contribution` call and the interval values are summed
    in order.
    """
    a, b, alpha_a, alpha_b = np.broadcast_arrays(a, b, alpha_a, alpha_b)
    if a.size == 0:
        raise ValueError("nsd_interval needs at least one interval, got empty a and b")
    for name, order in (("alpha_a", alpha_a), ("alpha_b", alpha_b)):
        if order.dtype.kind not in "iu" or order.min() < 1:
            raise ValueError(f"{name} must hold integers >= 1, got {order.tolist()}")
    ends = []
    for ai, bi, aa, ab in zip(a.ravel(), b.ravel(), alpha_a.ravel(), alpha_b.ravel()):
        if not ai < bi:
            raise ValueError(f"nsd_interval needs a < b, got [{ai}, {bi}]")
        ends += [Endpoint1D(float(ai), int(aa), side=+1), Endpoint1D(float(bi), int(ab), side=-1)]
    values = endpoint_contribution(f, g, ends, omega, m, dg=dg)
    total = 0.0 + 0.0j
    for i in range(0, len(ends), 2):
        total += complex(values[i] - values[i + 1])
    return total
