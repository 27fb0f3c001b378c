"""Anti-pattern detection (paper §III-A): the analysis half of XPlacer."""

from .advisor import (Diagnosis, detect_anti_patterns, diagnose,
                      format_findings)
from .alternating import detect_alternating
from .density import block_densities, detect_low_density
from .patterns import AntiPattern, Finding, remedies_for
from .placement import (
    PlacementAction,
    PlacementPlan,
    apply_plan,
    recommend_placement,
)
from .transfers import detect_unnecessary_transfers

__all__ = [
    "Diagnosis",
    "detect_anti_patterns",
    "diagnose",
    "format_findings",
    "detect_alternating",
    "block_densities",
    "detect_low_density",
    "AntiPattern",
    "Finding",
    "remedies_for",
    "PlacementAction",
    "PlacementPlan",
    "apply_plan",
    "recommend_placement",
    "detect_unnecessary_transfers",
]
