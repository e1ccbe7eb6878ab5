"""Checks of the paper's closed-form results that need only the standard library.

Shared by the library workloads and by ``cli_session``, whose worker does
not import the library.
"""

from __future__ import annotations

import math

PPR5 = "phi,phi,sqrt(5)"


def criterion9_ppr5_ok(intervals) -> bool:
    """Criterion 9 on phi,phi,sqrt(5): one blocked interval with known ends."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    B = math.sqrt(5.0) * phi**2
    return (
        len(intervals) == 1
        and abs(intervals[0][0] - (math.sqrt(5.0) + 2.0) / B) < 1e-9
        and abs(intervals[0][1] - (math.sqrt(5.0) * phi + 1.0) / B) < 1e-9
    )
