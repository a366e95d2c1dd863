"""Exact Kloosterman sums, their symmetric-power moments, and the
modular-form identities they satisfy, over prime fields.

The public names below are resolved on first access (PEP 562), so
``import klmoments.cli`` loads only the modules the CLI itself imports.
"""

__version__ = "0.1.0"

# Each submodule, with the names the package re-exports from it; the
# submodules are public names too.
_EXPORTS = {
    "convolve": (),
    "cyclotomic": (),
    "errors": ("KlmomentsError",),
    "evans": (
        "EvansReport",
        "MomentEngine",
        "batch_report",
        "evans_d5",
        "evans_d6",
        "evans_d7",
        "evans_d8",
        "trace_middle",
    ),
    "ffprime": ("Prime", "double_factorial", "is_prime", "jacobi_symbol"),
    "invariants": (
        "GOOD",
        "dim_m_middle",
        "dim_m_shriek",
        "dims_table",
        "det_character_check",
        "fuwan_det",
        "local_inv_inf",
        "molien_dim_series",
        "molien_frob_series",
        "swan_sym",
    ),
    "kloosterman": ("kl2_counts",),
    "modforms": (
        "EtaQuotient",
        "QSeries",
        "eta_quotient_series",
        "eta_unit_series",
        "hecke_validate",
        "prime_coefficients",
    ),
    "moments": (
        "MomentValue",
        "PowerSumTable",
        "power_sums_exact",
        "power_sums_float",
        "power_sums_float_auto",
        "sym_moment_appendix8",
        "sym_moment_direct",
        "sym_moment_girard",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace; __import__, unlike
        # importlib.import_module, also shows it in `python -X importtime`
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in _HOME:
        value = getattr(__getattr__(_HOME[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *__all__])
