"""Local surface-field approximation for sphere scattering.

The phase-extracted scattering kernel on the unit sphere has its special
point where the observation point meets the surface.  Integrating only the
central contribution of the polar descent rule gives a local approximation
w0 of the kernel's action on a constant field, and -1/w0 approximates the
surface density itself.  An analytic comparison would require a Mie-series
evaluation, so the table reports the error estimate of w0 = w0(m, N)
instead: |w0 - w0c|/|w0| + d^2, where w0c takes the companion radial rule
with m + 3 points on the same N directions and d = |w0 - w0(m, N/2)|/|w0|
is the gap to the nested N/2 trapezoid, summed from the same Q_r values.
"""

import math

from nsdq.experiments import run_sphere_scatter, sphere_table

ks = [50.0, 100.0, 150.0, 200.0]
psis = [0.0, math.pi / 10, math.pi / 5, math.pi / 3]

rows = run_sphere_scatter(ks, psis, m=5, n_trap=100)

print("prototype surface-field values -1/w0 (psi = incidence angle):")
for r in rows:
    if r.omega == 100.0:
        print(f"  psi={r.params['psi']:.4f}  k={r.omega:5.0f}  "
              f"q = {r.approx.real:+.4f} {r.approx.imag:+.4f}i")

print()
print(sphere_table(rows))
