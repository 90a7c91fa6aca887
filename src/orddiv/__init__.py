"""Density of primes p with d | ord_p(g), by three mutually verifying routes.

* ``density``            exact closed form (rational output)
* ``series_exact``       the field-degree series summed exactly over classes of v
* ``series_partial``     truncated field-degree series with a rigorous tail
                         bound bracketing the exact value
* ``run_census``         empirical segmented prime census up to x
* ``verify_key_identity`` exact finite-x identity tying the census to the
                         Mobius-weighted residual-index counts
"""

from .arith import (
    Factorization,
    divisors_of_dinfty,
    euler_phi,
    factorize,
    gcd_with_dinfty,
    is_prime,
    squarefree_divisors,
    valuation,
)
from .base import (
    BaseDecomposition,
    RationalBase,
    as_base,
    decompose,
    fundamental_discriminant,
    gamma_exponent,
)
from .census import (
    CensusConfig,
    CensusResult,
    CheckpointError,
    KeyIdentityReport,
    run_census,
    verify_key_identity,
    verify_order_flip,
)
from .density import (
    DensityReport,
    density,
    density_by_transfer,
    epsilon_table,
    s_factor,
)
from .kummer import (
    SeriesEstimate,
    closed_sum_s1,
    closed_sum_s2,
    closed_sum_s3,
    degree,
    series_exact,
    series_partial,
    sum_s1,
    sum_s2,
    sum_s3,
    tail_bound,
)
from .tables import TABLE_NEGATIVE, TABLE_POSITIVE, TableRow, table_rows

__version__ = "0.1.0"
