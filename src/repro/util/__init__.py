"""Small shared utilities: seeded RNG, formatting, and structured logging."""

from repro.util.rng import RngStream, derive_seed, make_rng
from repro.util.fmt import fmt_float, fmt_int, render_table
from repro.util.log import (
    StructuredLogger,
    get_logger,
    log_context,
    log_format,
    log_level,
    set_log_format,
    set_log_level,
)

__all__ = [
    "RngStream",
    "derive_seed",
    "make_rng",
    "fmt_float",
    "fmt_int",
    "render_table",
    "StructuredLogger",
    "get_logger",
    "log_context",
    "log_format",
    "log_level",
    "set_log_format",
    "set_log_level",
]
