"""Exact Kloosterman sums, their symmetric-power moments, and the
modular-form identities they satisfy, over prime fields."""

__version__ = "0.1.0"

from .cyclotomic import CycInt, as_integer
from .errors import KlmomentsError
from .evans import (
    EvansReport,
    MomentEngine,
    batch_report,
    evans_d5,
    evans_d6,
    evans_d7,
    evans_d8,
    trace_middle,
)
from .ffprime import (
    Prime,
    double_factorial,
    is_prime,
    jacobi_symbol,
)
from .invariants import (
    GOOD,
    dim_m_middle,
    dim_m_shriek,
    dims_table,
    det_character_check,
    fuwan_det,
    local_inv_inf,
    molien_dim_series,
    molien_frob_series,
    swan_sym,
)
from .kloosterman import kl2_counts, kl2_value
from .modforms import (
    EtaQuotient,
    QSeries,
    eta_quotient_series,
    eta_unit_series,
    hecke_validate,
    prime_coefficients,
)
from .moments import (
    MomentValue,
    PowerSumTable,
    power_sums_exact,
    power_sums_float,
    power_sums_float_auto,
    sym_moment_appendix8,
    sym_moment_direct,
    sym_moment_girard,
)

__all__ = [name for name in dir() if not name.startswith("_")]
