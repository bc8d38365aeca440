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

An endpoint is a location, an order ``alpha`` and the side its interval
lies on; ``endpoint_contribution`` takes them as three arrays.  The
paths of any number of endpoints are traced together by ``_trace``, the
package's one tracer: the polar rules trace their radial paths with it
too.  It solves every node row of every path in one ``newton_descent``
call from the series seeds, and a path keeps those roots while they pass
a branch check: the first near its seed, each later one near the
trapezoid step of dz/dp = i / g'(z) from the row before, in the node
variable ``x = (w p)^(1/alpha)`` in which the path is analytic.  A path
that fails it is continued row by row from its last kept row, each row
starting from the tangent step of the row before.  The tracer returns
the derivative on the roots with them, so the callers never evaluate g'
again.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .paths import PathError, _taylor_coefficient, newton_descent
from .rules import _in_p, _node_sum, gauss_exp_power

__all__ = ["endpoint_contribution", "nsd_interval"]

_MAX_RAMP_QUARTERS = 16  # the first-row ramp starts no lower than p / 4^16


def _orders(name, order):
    # endpoint orders are integer arrays, each >= 1; a float order is refused, not rounded
    if order.dtype.kind not in "iu" or order.min() < 1:
        raise ValueError(f"{name} must hold integers >= 1, got {order.tolist()}")


def _phase_coefficients(g, dg, x, alpha):
    # Leading Taylor coefficients g^(alpha)(x)/alpha!, one dg call (alpha = 1)
    # or one stencil call per higher order on all its endpoints; they only
    # seed Newton
    lead = np.empty(x.shape, dtype=complex)
    for order in np.unique(alpha):
        at = alpha == order
        lead[at] = dg(x[at]) if order == 1 else _taylor_coefficient(g, x[at], int(order), 1e-2)
    return lead


def _branch_rotation(alpha, lead_coeff, side):
    # The roots of z^alpha = i p alpha! / g^(alpha) = i p / lead_coeff are the
    # principal one times exp(2 pi i k / alpha); return the rotation of the
    # root pointing into the interval (Re > 0 for side=+1, Re < 0 for -1),
    # with the principal root as tie-break.  A p > 0 scales every root
    # alike, so p = 1 picks the branch of every row.
    base = (1j / lead_coeff) ** (1.0 / alpha)
    return max((cmath.exp(2j * cmath.pi * k / alpha) for k in range(alpha)),
               key=lambda rot: side * (base * rot).real)


def _endpoint_list(x, alpha, side, mask):
    return ", ".join(f"(x={float(xe)!r}, alpha={int(ae)}, side={int(se):+d})"
                     for xe, ae, se in zip(x[mask], alpha[mask], side[mask]))


def _on_branch(z, dz, p, seed, start, alpha):
    # which roots z (node rows first) continue the branch of the series
    # seed: row 0 lies within 0.5 |seed - start| of its seed, and each later
    # row within 0.25 |dz| of the trapezoid step of dz/dx from the row
    # before, in the node variable x = p^(1/alpha) (dz/dx = dz/dp alpha p / x)
    x = p ** (1.0 / alpha)
    dzdx = dz * (alpha * p / x)
    step = np.diff(z, axis=0)
    trapezoid = 0.5 * np.diff(x, axis=0) * (dzdx[:-1] + dzdx[1:])
    near = np.abs(z[0] - seed) <= 0.5 * np.abs(seed - start)
    return np.concatenate([near[None], np.abs(step - trapezoid) <= 0.25 * np.abs(step)])


def _trace(g, dg, base, p, seed, start, alpha, context):
    # Newton roots of g(z) = base + i p over the rows of ascending p, the one
    # tracer of every descent path: a row of p is a scalar (one p for every
    # path) or an array of the path shape.  g(z, paths), dg(z, paths) and
    # seed(q, paths) take ``paths``, Ellipsis for every path or a boolean
    # mask over the path shape that picks some of them, flattened; base,
    # start and alpha broadcast against the path shape.  Returns the roots
    # and dz/dp = i / g'(z) on them, node rows first.
    # Every row is solved in one newton_descent call from its series seed.
    # A path keeps its roots up to the first row that did not converge or
    # fails the branch check (``_on_branch``); the paths with such a row are
    # continued row by row (``_continue``) from the last row all of them
    # kept, or from the series seed, ramp included, when that is none.
    # Only Newton's own failures are failures here; any other PathError,
    # such as a scene refusing a complex argument, propagates.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        seeds = np.stack([seed(q, ...) for q in p])
        shape = seeds.shape[1:]
        p = np.reshape(p, np.shape(p) + (1,) * (seeds.ndim - np.ndim(p)))
        p = np.broadcast_to(p, seeds.shape)
        dg_all = lambda z: dg(z, ...)
        z, err = newton_descent(lambda z: g(z, ...), dg_all, base + 1j * p, seeds, context=context)
        dz = _derivative(dg_all, z)
        on = _on_branch(z, dz, p, seeds[0], start, alpha)
        if err is not None:
            on &= ~err.failed
        kept = np.logical_and.accumulate(on, axis=0).sum(axis=0)  # leading rows kept, per path
        bad = kept < len(p)
        if not np.any(bad):
            return z, dz
        rows = int(np.min(kept[bad]))  # the rows every failing path kept
        lo = max(rows - 1, 0)
        z, dz = np.array(z), np.array(dz)
        first = (z[lo, bad], dz[lo, bad]) if rows else None
        at = lambda a: np.broadcast_to(a, shape)[bad]
        try:
            z[lo:, bad], dz[lo:, bad] = _continue(
                lambda z: g(z, bad), lambda z: dg(z, bad), at(base), p[lo:, bad],
                lambda q: seed(q, bad), at(start), at(alpha), context, first)
        except PathError as err:
            if err.failed is not None:
                failed = np.zeros(shape, dtype=bool)
                failed[bad] = err.failed
                err.failed = failed
            raise
    return z, dz


def _derivative(dg, z):
    # dz/dp = i / g'(z) on the roots z
    return np.broadcast_to(1j / np.asarray(dg(z), dtype=complex), np.shape(z))


def _continue(g, dg, base, p, seed, start, alpha, context, first=None):
    # Newton continuation of g(z) = base + i p over the rows of p, one
    # newton_descent call per row, for 1-D arrays of paths; ``first`` holds
    # trusted roots at p[0] and their derivative, or is None: the one solve
    # of all rows failed some path's root at p[0] (Newton, or the 0.5
    # |seed - start| trust test: a seed far from its root can converge to
    # another branch), and is not repeated.  Then q = p[0] / 4 is divided by
    # 4 until every root lies within 0.1 |seed(q) - start| of its seed, and
    # those roots are continued geometrically up to p[0], 4 steps per octave.
    # Every later row, ramp or node, starts from the tangent step in the
    # node variable (p^(1/alpha)), where the path is analytic.
    k = 0
    while first is None:
        k += 1
        if k > _MAX_RAMP_QUARTERS:
            raise PathError(f"no first path point near the series seed down to "
                            f"p/4^{_MAX_RAMP_QUARTERS} {context}", failed)
        q = p[0] / 4.0**k
        s = seed(q)
        z, err = newton_descent(g, dg, base + 1j * q, s, context=context)
        # the paths without a trusted root: Newton failed, or the root lies far from its seed
        failed = err.failed if err is not None else ~(np.abs(z - s) <= 0.1 * np.abs(s - start))
        if not np.any(failed):
            first = z, _derivative(dg, z)
    zs, dzs, prev = [first[0]], [first[1]], p[0] / 4.0**k
    for q in [*(np.geomspace(prev, p[0], 8 * k + 1)[1:] if k else ()), *p[1:]]:
        step = alpha * prev * ((q / prev) ** (1.0 / alpha) - 1.0)
        z, err = newton_descent(g, dg, base + 1j * q, zs[-1] + step * dzs[-1], context=context)
        if err is not None:
            raise err
        zs.append(z)
        dzs.append(_derivative(dg, z))
        prev = q
    return np.stack(zs[-len(p):]), np.stack(dzs[-len(p):])


def endpoint_contribution(f, g, x, omega: float, m: int, *, dg, alpha=1, side=1):
    """Descent-path contributions G(x) of a sequence of endpoints.

    Every endpoint's path is traced by the one tracer: all m rows of the
    (m, E) array of descent parameters are one ``newton_descent`` call from
    each endpoint's branch seed (the branch is picked once per endpoint,
    and a row's seed is one root times its rotation; the rule in p is
    built once per distinct order), and an endpoint whose roots fail the
    branch check is continued row by row in its node variable (p^(1/alpha)),
    its first row ramped up from a smaller p when even that root is far
    from its seed.  The tracer evaluates ``dg`` on the roots for the path
    derivative h' = i / dg; ``f`` is then
    evaluated once on the (m, E) array of path points, and the sum runs in
    node order over one column of the rule in p per endpoint (``rules._in_p``).

    Parameters
    ----------
    f, g : callables accepting complex arrays, analytic near the paths;
        a scalar result is broadcast.
    x : the endpoint locations, a non-empty 1-D array of finite reals; the
        result is a complex array, one value per endpoint.
    omega : frequency (finite, > 0).
    m : number of Gaussian points for the radial rule.
    dg : the analytic derivative of g, required: it seeds the order-1
        paths and gives every path derivative.
    alpha, side : the endpoint orders (1 + the number of vanishing
        derivatives of the phase at x, integers >= 1) and sides (+1 where
        the interval lies to the right of x, -1 to the left; the branch of
        an alpha >= 2 path points into it), broadcast against x.

    Raises PathError naming omega and the failing endpoints as
    (x, alpha, side) when a path cannot be traced.
    """
    x, alpha, side = np.broadcast_arrays(np.asarray(x, dtype=float), alpha, side)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"endpoint_contribution needs at least one endpoint in a 1-D x, "
                         f"got x={x.tolist()}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got x={float(x[~np.isfinite(x)][0])!r}")
    _orders("alpha", alpha)
    if not np.all((side == 1) | (side == -1)):
        raise ValueError(f"side must hold +1 or -1, got {side.tolist()}")
    if not (omega > 0 and math.isfinite(omega)):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    leads = _phase_coefficients(g, dg, x, alpha)
    flat = np.abs(leads) < 1e-14
    if np.any(flat):
        raise PathError(
            f"omega={omega}: phase coefficient of the declared order vanishes at endpoints "
            f"{_endpoint_list(x, alpha, side, flat)}; alpha is wrong or the path is degenerate"
        )

    rules = {a: _in_p(gauss_exp_power(m, a, 0), a, omega) for a in np.unique(alpha).tolist()}
    p, weights = (np.stack(c, axis=1) for c in zip(*(rules[a] for a in alpha.tolist())))
    gx = np.broadcast_to(np.asarray(g(x), dtype=complex), x.shape)
    rotation = np.array([_branch_rotation(*end) for end in zip(alpha.tolist(), leads.tolist(),
                                                                side.tolist())])
    seed = lambda q, paths: x[paths] + np.array([
        (1j * qe / lead) ** (1.0 / a) * rot
        for qe, a, lead, rot in zip(np.asarray(q).tolist(), alpha[paths].tolist(),
                                    leads[paths].tolist(), rotation[paths].tolist())])
    try:
        z, dz = _trace(lambda z, paths: g(z), lambda z, paths: dg(z), gx, p, seed, x, alpha,
                       "along the endpoint paths")
    except PathError as err:
        failed = slice(None) if err.failed is None else err.failed
        raise PathError(f"{err} at omega={omega}; failing endpoints "
                        f"{_endpoint_list(x, alpha, side, failed)}", err.failed) from err
    total = _node_sum(weights, np.broadcast_to(f(z), z.shape), dz)
    return np.exp(1j * omega * gx) * (alpha / omega) * total


def nsd_interval(f, g, a, b, omega: float, m: int, *, dg, alpha_a=1, alpha_b=1) -> complex:
    """Steepest-descent value of ``int_a^b f exp(i w g) dx``.

    The phase must be monotone on ``[a, b]`` with nonvanishing derivative in
    the interior, and ``dg`` is its analytic derivative; endpoints with
    vanishing derivatives are declared through the integer orders
    ``alpha_a`` and ``alpha_b`` (1 + the number of vanishing derivatives).
    Returns G(a) - G(b); the error is of order
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
    _orders("alpha_a", alpha_a)
    _orders("alpha_b", alpha_b)
    for ai, bi in zip(a.ravel(), b.ravel()):
        if not ai < bi:
            raise ValueError(f"nsd_interval needs a < b, got [{ai}, {bi}]")
    # the ends interleaved, a_0, b_0, a_1, b_1, ..., each side pointing into its interval
    interleave = lambda lo, hi: np.stack([lo, hi], axis=-1).ravel()
    values = endpoint_contribution(f, g, interleave(a, b), omega, m, dg=dg,
                                   alpha=interleave(alpha_a, alpha_b), side=np.tile([+1, -1], a.size))
    total = 0.0 + 0.0j
    for ga, gb in values.reshape(-1, 2):
        total += complex(ga - gb)
    return total
