"""Exact partition counting and q-series identity verification.

Five layers: cyclotomic scalar arithmetic (`ring`), truncated exact power
series (`series`), combinatorial counters with a brute-force oracle
(`partitions`), generating functions and the correction-series routes
(`genfun`), and theorem checking / density scans (`verify`), fronted by the
`glaisher` CLI.
"""

from .ring import (
    CycInt,
    CycPoly,
    chi,
    cyc_as_integer,
    cyc_root_power,
    cyclotomic_polynomial,
    euler_phi,
)
from .series import (
    CoefficientRangeError,
    CyclotomicRing,
    NotIntegerCoefficientError,
    PochSpec,
    PrecisionMismatchError,
    Series,
    Z,
    inv_pochhammer,
    map_ring,
    pochhammer,
    qbinomial,
    qbinomial_poly,
)
from .partitions import (
    BRUTE_FORCE_LIMIT,
    CountTable,
    FamilySpec,
    brute_force_count,
    count_A,
    count_B,
    count_Bj,
    count_C,
    count_D,
    count_bounded_mult,
    count_table,
)
from .genfun import (
    EPSILON_ROUTES,
    epsilon,
    gf_Bj_lhs,
    gf_C,
    gf_D,
    gf_regular,
    p_polynomial,
)
from .verify import (
    DensityStats,
    IdentityReport,
    THEOREMS,
    density_report,
    verify,
)

__version__ = "0.1.0"
