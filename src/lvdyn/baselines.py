"""Published baseline estimates for the bundled China AI case study.

Two fitted subsystems ship with the package: AI capital against physical
capital and AI capital against labor compensation, annual data 2016-2023 in
billion yuan.  The continuous-parameter baselines below are the published
point estimates used by the ``--params-from-paper`` reproduction path; the
95% confidence intervals are carried for reference reporting only and never
feed the sensitivity boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import ContinuousParams


@dataclass(frozen=True)
class SubsystemBaseline:
    key: str
    params: ContinuousParams
    ci: dict[str, tuple[float, float]]   # 95% intervals keyed by parameter name


AI_PHYSICAL = SubsystemBaseline(
    key="ai_physical",
    params=ContinuousParams(
        a1=3.852613, b11=-0.006965, b12=-0.000048,
        a2=4.934909, b21=0.007846, b22=-0.000126,
    ),
    ci={
        "a1": (3.35, 4.35),
        "b11": (-8.36e-3, -5.58e-3),
        "b12": (-5.8e-5, -3.8e-5),
        "a2": (4.45, 5.42),
        "b21": (6.30e-3, 9.40e-3),
        "b22": (-1.51e-4, -1.01e-4),
    },
)

AI_LABOR = SubsystemBaseline(
    key="ai_labor",
    params=ContinuousParams(
        a1=3.741844, b11=-0.000943, b12=-0.000081,
        a2=4.480796, b21=0.020083, b22=-0.000187,
    ),
    ci={
        "a1": (3.20, 4.28),
        "b11": (-1.13e-3, -7.54e-4),
        "b12": (-9.7e-5, -6.5e-5),
        "a2": (4.00, 4.96),
        "b21": (1.61e-2, 2.41e-2),
        "b22": (-2.24e-4, -1.50e-4),
    },
)

BASELINES: dict[str, SubsystemBaseline] = {b.key: b for b in (AI_PHYSICAL, AI_LABOR)}


def baseline_for_labels(label_y: str) -> SubsystemBaseline | None:
    """Pick the published baseline matching a y-series label, if any."""
    name = label_y.lower()
    if "phys" in name:
        return AI_PHYSICAL
    if "labor" in name or "labour" in name or "wage" in name:
        return AI_LABOR
    return None
