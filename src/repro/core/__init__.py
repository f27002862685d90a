"""Core of the reproduction: the contaminated-garbage collector.

See :mod:`repro.core.collector` for the algorithm and DESIGN.md for the map
from thesis sections to modules.
"""

from .collector import ContaminatedCollector, ResetSnapshot
from .equilive import EquiliveBlock, EquiliveManager
from .policy import CGPolicy
from .recycle import RecycleList
from .stats import (
    CAUSE_INTERN,
    CAUSE_MERGED,
    CAUSE_NATIVE,
    CAUSE_PUTSTATIC,
    CAUSE_ROOTLESS,
    CAUSE_SHARED,
    CGStats,
)

__all__ = [
    "CAUSE_INTERN",
    "CAUSE_MERGED",
    "CAUSE_NATIVE",
    "CAUSE_PUTSTATIC",
    "CAUSE_ROOTLESS",
    "CAUSE_SHARED",
    "CGPolicy",
    "CGStats",
    "ContaminatedCollector",
    "EquiliveBlock",
    "EquiliveManager",
    "RecycleList",
    "ResetSnapshot",
]
