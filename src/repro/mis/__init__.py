"""Maximal-independent-set substrates: Luby, Ghaffari, the nearly-maximal
IS + Luby composite, (Δ+1)-coloring, and the exact MWIS oracle."""

from .composite import nmis_plus_luby_mis
from .coloring import (
    ColoringResult,
    delta_plus_one_coloring,
    linial_coloring,
    linial_step,
    reduce_palette,
)
from .ghaffari import (
    DOMINATED,
    GhaffariProgram,
    GoldenRoundStats,
    IN_IS,
    RESIDUAL,
    nearly_maximal_is,
)
from .greedy import exact_mwis, mwis_weight
from .luby import IN_MIS, LubyProgram, OUT_MIS, luby_mis

__all__ = [
    "ColoringResult",
    "nmis_plus_luby_mis",
    "DOMINATED",
    "GhaffariProgram",
    "GoldenRoundStats",
    "IN_IS",
    "IN_MIS",
    "LubyProgram",
    "OUT_MIS",
    "RESIDUAL",
    "delta_plus_one_coloring",
    "exact_mwis",
    "linial_coloring",
    "linial_step",
    "luby_mis",
    "mwis_weight",
    "nearly_maximal_is",
    "reduce_palette",
]
