"""Numerical steepest descent quadrature in polar coordinates.

Evaluates multivariate oscillatory integrals whose phase behaves like
``|x - x0|^alpha`` at a special point, by switching to n-spherical
coordinates around that point and deforming the radial integral onto paths
of steepest descent.  Ships the quadrature building blocks, the descent
paths, the polar integrators, independent references, and the convergence
experiments exposed through the ``nsdq`` command line tool.
"""

from .rules import (
    QuadRule,
    clenshaw_curtis,
    exp_power_moment,
    gauss_exp_power,
    trapezoid_periodic,
)
from .specfun import EULER_GAMMA, cos_int, ellipsoid_reference, sin_int
from .paths import RadialScene
from .univariate import endpoint_contribution, nsd_interval
from .polar import (
    AngularRegion,
    OuterPlan,
    integrate_star_shaped,
    integrate_unbounded,
    normalize_scene,
    rectangle_corner_contributions,
    spherical_map,
)
from .oracle import AdaptiveResult, OracleNotConverged, acoustics_reference, adaptive_quad_1d

__version__ = "0.1.0"
