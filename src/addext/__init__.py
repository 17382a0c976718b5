"""Deterministic extractors for additive sources, with an exact verification harness."""

__version__ = "0.1.0"

import os

# before numpy loads: its OpenBLAS pool spins idle threads; only even-q lines scans gain (README)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import additive_charsum
from .errors import AddextError, BudgetError, CapacityError, InputError, SearchBudgetError
from .extractors import (build_ap_extractor, build_line_extractor,
                         build_pgc_extractor, build_zp_extractor,
                         build_zpn_extractor, extract_many)
from .sources import (AdditiveProfile, Group, Source, additive_profile,
                      build_source, doubling, sym_set)

__all__ = [
    "AddextError", "AdditiveProfile", "BudgetError", "CapacityError", "Group",
    "InputError", "SearchBudgetError", "Source", "__version__", "additive_charsum",
    "additive_profile", "build_ap_extractor", "build_line_extractor",
    "build_pgc_extractor", "build_source", "build_zp_extractor", "build_zpn_extractor",
    "doubling", "extract_many", "sym_set",
]
