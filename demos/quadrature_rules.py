"""Build the half-line Gaussian rules and check them against their moments.

The steepest-descent integrators lean on Gaussian rules for the weights
x^d exp(-x^alpha) on [0, inf).  alpha = 1 is classical Gauss-Laguerre;
alpha = 2 is the half-range Hermite family, which has no closed-form
recurrence and is built by a discretized Stieltjes procedure.  Either way
the rule must reproduce the moments Gamma((k + d + 1)/alpha)/alpha for all
monomials x^k up to degree 2m - 1.
"""

import numpy as np

from nsdq import clenshaw_curtis, exp_power_moment, gauss_exp_power, trapezoid_periodic

print("Gaussian rules for x^d exp(-x^alpha) on [0, inf)")
print("=" * 60)
for alpha, degree, m in [(1, 0, 4), (1, 2, 6), (2, 0, 8), (3, 1, 8), (4, 0, 12)]:
    rule = gauss_exp_power(m, alpha, degree)
    worst = 0.0
    for k in range(2 * m):
        exact = exp_power_moment(k, alpha, degree)
        got = float(np.sum(rule.weights * rule.nodes**k))
        worst = max(worst, abs(got - exact) / exact)
    print(f"alpha={alpha} d={degree} m={m:2d}: nodes in ({rule.nodes[0]:.3f}, {rule.nodes[-1]:.3f}),"
          f" worst moment error {worst:.2e}")

print()
print("Clenshaw-Curtis on [0, pi/2] applied to cos -> 1")
for n in (4, 8, 16, 50):
    rule = clenshaw_curtis(n, 0.0, np.pi / 2)
    err = abs(rule.weights @ np.cos(rule.nodes) - 1.0)
    print(f"  n={n:2d}: error {err:.2e}")

print()
print("Periodic trapezoid on exp(sin t) over one period (spectral accuracy)")
exact = 7.954926521012846  # 2 pi I0(1)
for n in (4, 8, 12, 16):
    rule = trapezoid_periodic(n, 2 * np.pi)
    err = abs(rule.weights @ np.exp(np.sin(rule.nodes)) - exact)
    print(f"  n={n:2d}: error {err:.2e}")
