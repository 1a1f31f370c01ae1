"""Figure 4 — ROC curves for the three detection metrics (``DR-FP-M-D``).

Setup (paper Section 7.4): x = 10 % compromised neighbours, m = 300 sensors
per group, Dec-Bounded attacks; one panel per degree of damage
D ∈ {80, 120, 160}; one curve per metric (Diff, Add-all, Probability).

Expected qualitative outcome: the Diff metric dominates the other two; all
metrics sharpen rapidly as D grows; at D = 160 the Diff metric reaches
~100 % detection at ~0 false positives.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.metrics import ALL_METRICS, METRICS
from repro.experiments.config import SimulationConfig
from repro.experiments.figures.common import (
    DEFAULT_ROC_FP_GRID,
    resolve_session,
    run_roc_figure,
)
from repro.experiments.results import FigureResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession

__all__ = [
    "run",
    "render",
    "spec",
    "DEGREES_OF_DAMAGE",
    "COMPROMISED_FRACTION",
    "ATTACK_CLASS",
]

#: Degrees of damage of the three panels.
DEGREES_OF_DAMAGE: tuple[float, ...] = (80.0, 120.0, 160.0)

#: Fraction of compromised neighbours.
COMPROMISED_FRACTION: float = 0.10

#: Attack class used throughout the figure.
ATTACK_CLASS: str = "dec_bounded"


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
) -> ScenarioSpec:
    """The figure's evaluation as a declarative scenario."""
    return ScenarioSpec(
        name="fig4",
        description="ROC curves per detection metric and degree of damage",
        metrics=tuple(metric.name for metric in ALL_METRICS),
        attacks=(ATTACK_CLASS,),
        degrees=tuple(degrees),
        fractions=(COMPROMISED_FRACTION,),
        config=config or SimulationConfig(),
    ).scaled(scale)


def render(
    scenario: ScenarioSpec,
    *,
    session: Optional[LadSession] = None,
    workers: int = 0,
    store=None,
    fp_grid: Sequence[float] = DEFAULT_ROC_FP_GRID,
) -> FigureResult:
    """Render Figure 4 from an already-built scenario spec."""
    session = resolve_session(session, spec=scenario, store=store)
    return run_roc_figure(
        scenario,
        figure_id="fig4",
        title="ROC curves for different detection metrics and degrees of damage",
        series_axis="metrics",
        series_label=lambda name: METRICS.create(name).paper_name,
        parameters={
            "compromised_fraction": scenario.fractions[0],
            "group_size": session.config.group_size,
            "attack": scenario.attacks[0],
        },
        session=session,
        workers=workers,
        fp_grid=fp_grid,
    )


def run(
    simulation: Optional[LadSession] = None,
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fp_grid: Sequence[float] = DEFAULT_ROC_FP_GRID,
    workers: int = 0,
    store=None,
) -> FigureResult:
    """Reproduce Figure 4 and return its series."""
    return render(
        spec(config, scale, degrees=degrees),
        session=simulation,
        workers=workers,
        store=store,
        fp_grid=fp_grid,
    )
