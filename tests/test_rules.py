import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsdq
from nsdq.rules import (
    clenshaw_curtis,
    exp_power_moment,
    gauss_exp_power,
    integrate,
    trapezoid_periodic,
)


def test_laguerre_one_point():
    rule = gauss_exp_power(1, 1, 0)
    np.testing.assert_allclose(rule.nodes, [1.0], rtol=1e-14)
    np.testing.assert_allclose(rule.weights, [1.0], rtol=1e-14)


def test_laguerre_two_points_closed_form():
    # nodes/weights from the 2x2 Jacobi matrix of the Laguerre recurrence
    rule = gauss_exp_power(2, 1, 0)
    np.testing.assert_allclose(rule.nodes, [2 - math.sqrt(2), 2 + math.sqrt(2)], rtol=1e-14)
    np.testing.assert_allclose(
        rule.weights, [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], rtol=1e-13
    )


def test_half_range_hermite_weight_sum():
    rule = gauss_exp_power(4, 2, 0)
    assert abs(rule.weights.sum() - math.sqrt(math.pi) / 2) < 1e-12


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2, 5, 8])
def test_moment_exactness(alpha, degree):
    for m in (1, 2, 3, 5, 10, 20, 64):
        rule = gauss_exp_power(m, alpha, degree)
        for k in range(2 * m):
            exact = exp_power_moment(k, alpha, degree)
            got = float(np.sum(rule.weights * rule.nodes**k))
            assert abs(got - exact) <= 1e-10 * exact, (alpha, degree, m, k)


@given(
    m=st.integers(min_value=1, max_value=24),
    alpha=st.sampled_from([1, 2, 3, 4]),
    degree=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_gauss_rule_structure(m, alpha, degree):
    rule = gauss_exp_power(m, alpha, degree)
    assert len(rule.nodes) == len(rule.weights) == m
    assert (rule.nodes > 0).all()
    assert (np.diff(rule.nodes) > 0).all()
    assert (rule.weights > 0).all()
    moment0 = exp_power_moment(0, alpha, degree)
    assert abs(rule.weights.sum() - moment0) <= 1e-12 * moment0


@pytest.mark.parametrize(
    "m, alpha, degree",
    [(0, 1, 0), (65, 1, 0), (4, 5, 0), (4, 0, 0), (4, 1, 9), (4, 1, -1)],
)
def test_gauss_rule_rejects_unsupported(m, alpha, degree):
    with pytest.raises(ValueError):
        gauss_exp_power(m, alpha, degree)


def test_gauss_rule_cached():
    assert gauss_exp_power(7, 2, 1) is gauss_exp_power(7, 2, 1)
    assert gauss_exp_power(7, 2) is gauss_exp_power(7, 2, 0)


@pytest.mark.parametrize(
    "build",
    [lambda: gauss_exp_power(6, 3, 1), lambda: clenshaw_curtis(6, 0.0, 1.0),
     lambda: clenshaw_curtis(2, -1.0, 1.0), lambda: trapezoid_periodic(6, 1.0)],
)
def test_cached_rules_are_read_only(build):
    rule = build()
    assert build() is rule
    for arr in (rule.nodes, rule.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_cache_concurrent_construction():
    # threads racing on a cold rule may each build it, but all get the one stored
    results = []

    def build():
        results.append(gauss_exp_power(33, 3, 2))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r is results[0] for r in results)


def test_clenshaw_curtis_quadratic():
    rule = clenshaw_curtis(3, -1.0, 1.0)
    assert abs(integrate(rule, lambda x: x * x) - 2.0 / 3.0) < 1e-14


def test_clenshaw_curtis_two_point_length():
    rule = clenshaw_curtis(2, 0.0, 1.0)
    assert abs(integrate(rule, lambda x: 1.0) - 1.0) < 1e-15


def test_clenshaw_curtis_two_point_nodes_are_float():
    # integer bounds share the float cache key, so they must build float nodes
    assert clenshaw_curtis(2, 3, 7).nodes.dtype == np.float64
    rule = clenshaw_curtis(2, 3.0, 7.0)
    assert rule.nodes.dtype == np.float64
    np.testing.assert_array_equal(rule.nodes, [3.0, 7.0])
    np.testing.assert_array_equal(rule.weights, [2.0, 2.0])


def test_clenshaw_curtis_cosine():
    rule = clenshaw_curtis(50, 0.0, math.pi / 2)
    assert abs(integrate(rule, math.cos) - 1.0) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 31])
def test_clenshaw_curtis_polynomial_exactness(n):
    a, b = -0.3, 1.7
    rule = clenshaw_curtis(n, a, b)
    for k in range(n):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        got = complex(integrate(rule, lambda x: x**k)).real
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (n, k)


def test_clenshaw_curtis_symmetric_layout():
    rule = clenshaw_curtis(9, 2.0, 5.0)
    mid = 3.5
    np.testing.assert_allclose(rule.nodes + rule.nodes[::-1], 2 * mid, rtol=0, atol=1e-13)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], rtol=1e-12)


def test_trapezoid_basics():
    rule = trapezoid_periodic(4, 2 * math.pi)
    assert abs(integrate(rule, math.cos)) < 1e-15
    one = trapezoid_periodic(1, 2 * math.pi)
    assert abs(integrate(one, lambda t: 1.0) - 2 * math.pi) < 1e-15


def test_trapezoid_entire_periodic():
    # 2 pi I0(1), cross-checked against scipy's Bessel implementation
    from scipy.special import i0

    rule = trapezoid_periodic(16, 2 * math.pi)
    got = integrate(rule, lambda t: math.exp(math.sin(t)))
    assert abs(got - 7.954926521012846) < 1e-12
    assert abs(got - 2 * math.pi * i0(1.0)) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_trapezoid_aliasing(n):
    rule = trapezoid_periodic(n, 2 * math.pi)
    for k in range(1, n):
        got = integrate(rule, lambda t, k=k: complex(math.cos(k * t), math.sin(k * t)))
        assert abs(got) <= 1e-13, (n, k)


def test_integrate_examples():
    assert abs(integrate(gauss_exp_power(2, 1, 0), lambda x: x**3) - 6.0) < 1e-12
    assert abs(integrate(trapezoid_periodic(4, 1.0), lambda t: 1.0) - 1.0) < 1e-15
    rule = clenshaw_curtis(9, 0.0, 1.0)
    assert abs(integrate(rule, lambda x: x**4) - 0.2) < 1e-14


def test_integrate_rejects_nonfinite():
    rule = gauss_exp_power(3, 1, 0)
    bad_node = rule.nodes[1]

    def f(x):
        return math.nan if abs(x - bad_node) < 1e-12 else 1.0

    with pytest.raises(ValueError, match="non-finite"):
        integrate(rule, f)


def test_rule_preconditions():
    with pytest.raises(ValueError):
        clenshaw_curtis(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        clenshaw_curtis(5, 1.0, 1.0)
    with pytest.raises(ValueError):
        trapezoid_periodic(0, 1.0)
    with pytest.raises(ValueError):
        trapezoid_periodic(4, 0.0)


@pytest.mark.parametrize("build, args", [
    (clenshaw_curtis, (3, 0.0, math.inf)),
    (clenshaw_curtis, (3, -math.inf, 1.0)),
    (clenshaw_curtis, (3, math.nan, 1.0)),
    (clenshaw_curtis, (3, -1e308, 1e308)),
    (trapezoid_periodic, (4, math.inf)),
    (trapezoid_periodic, (4, math.nan)),
], ids=["cc-inf-b", "cc-inf-a", "cc-nan-a", "cc-overflowing-length", "trap-inf", "trap-nan"])
def test_rules_need_a_finite_interval(build, args):
    # clenshaw_curtis(3, 0, inf) gave nodes [nan, inf, inf] and
    # trapezoid_periodic(4, inf) [nan, inf, inf, inf], each memoized
    with pytest.raises(ValueError, match="needs a finite interval of positive length"):
        build(*args)


@pytest.mark.parametrize("build, args, named", [
    (gauss_exp_power, (2.5, 1, 0), "m=2.5"),
    (gauss_exp_power, (5.0, 1, 0), "m=5.0"),
    (trapezoid_periodic, (10.5, 1.0), "n=10.5"),
    (clenshaw_curtis, (7.5, 0.0, 1.0), "n=7.5"),
], ids=["gauss-2.5", "gauss-5.0", "trap-10.5", "cc-7.5"])
def test_rule_sizes_must_be_integers(build, args, named):
    # a float size once built a rule of another size (m = 2.5 gave three
    # points) and memoized it under the float
    with pytest.raises(ValueError, match=named):
        build(*args)


def test_rule_sizes_accept_numpy_integers():
    assert gauss_exp_power(np.int64(5), 1, 0) is gauss_exp_power(5, 1, 0)
    assert trapezoid_periodic(np.int32(10), 1.0) is trapezoid_periodic(10, 1.0)
    assert clenshaw_curtis(np.int64(7), 0.0, 1.0) is clenshaw_curtis(7, 0.0, 1.0)


def test_import_loads_no_scipy():
    # the Gauss nodes come from numpy's eigensolver: scipy is a test-only
    # reference, so neither the import nor a rule build may load it
    code = ("import sys, nsdq; from nsdq.rules import gauss_exp_power; gauss_exp_power(8, 2); "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    src = str(Path(nsdq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


_NODE_CASES = [(m, 1, degree) for m in range(2, 65) for degree in range(9)] + [
    (m, alpha, degree) for alpha in (2, 3, 4) for m in (2, 3, 4, 5, 8, 11, 16, 32, 64)
    for degree in (0, 1, 8)]


def test_nodes_match_scipy_tridiagonal_solver():
    # the nodes are the eigenvalues of the Jacobi matrix, taken from numpy's
    # dense symmetric solver; scipy's tridiagonal solver on the same
    # coefficients gives the same bits.  A different LAPACK that breaks this
    # fails here, by name, rather than by drifting every pinned value
    from scipy.linalg import eigh_tridiagonal

    from nsdq.rules import _laguerre_coefficients, _stieltjes_coefficients

    differ = []
    for m, alpha, degree in _NODE_CASES:
        if alpha == 1:
            a, b = _laguerre_coefficients(m, degree)
        else:
            a, b = _stieltjes_coefficients(m, alpha, degree)
        expected = np.sort(eigh_tridiagonal(a, np.sqrt(b[1:]), eigvals_only=True))
        if not np.array_equal(gauss_exp_power(m, alpha, degree).nodes, expected):
            differ.append((m, alpha, degree))
    assert differ == [], f"{len(differ)} of {len(_NODE_CASES)} rules differ from scipy: {differ[:5]}"
