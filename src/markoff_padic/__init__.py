"""Exact finite-precision p-adic experiments on Markoff surface dynamics."""

from .padic import PadicInt, legendre, newton_solve, sqrt
from .chebyshev import (
    DensePoly,
    Mat2,
    chebyshev_T,
    chebyshev_T_at,
    chebyshev_U,
    chebyshev_U_at,
    companion_power,
    fixed_point_Tp,
    rotation_order,
)
from .surface import (
    AutWord,
    DistClass,
    SurfacePoint,
    apply_generator,
    apply_word,
    dist,
    eval_P,
    is_point,
    lift_point,
    point,
)
from .flow import (
    PointMap,
    local_minimality_det,
    mahler_flow,
    newton_inverse,
    twisted_minimality_det,
)
from .polydisk import PolydiskChart, parametrize, recentre
from .census import (
    OrbitPartition,
    check_transitivity,
    count_points,
    enumerate_points,
    finite_orbit_catalog,
    orbit_divisibility,
    orbits,
)
from .certify import (
    certify_minimal_polydisk,
    check_XD,
    find_special_point,
    residual_transitivity,
    strict_move_search,
)

__version__ = "0.1.0"
