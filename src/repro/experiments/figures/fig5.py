"""Figure 5 — ROC curves for the two attack classes at small D (``DR-FP-T-D``).

Setup (paper Section 7.5): x = 10 %, m = 300, Diff metric; panels for
D ∈ {40, 80}; one curve per attack class (Dec-Bounded vs Dec-Only).

Expected qualitative outcome: the Dec-Bounded attack is markedly harder to
detect than the Dec-Only attack at these small degrees of damage — at
D = 40 the Dec-Only curve rises quickly while the Dec-Bounded curve stays
low until large false-positive rates.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.attacks.constraints import ATTACKS, DecBoundedAttack, DecOnlyAttack
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
    "METRIC",
]

#: Degrees of damage of the two panels.
DEGREES_OF_DAMAGE: tuple[float, ...] = (40.0, 80.0)

#: Fraction of compromised neighbours.
COMPROMISED_FRACTION: float = 0.10

#: Detection metric used throughout the figure.
METRIC: str = "diff"

#: Attack classes compared by the figure.
ATTACK_CLASSES: tuple[str, ...] = (DecBoundedAttack.name, DecOnlyAttack.name)


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    name: str = "fig5",
) -> ScenarioSpec:
    """The figure's evaluation as a declarative scenario."""
    return ScenarioSpec(
        name=name,
        description="ROC curves per attack class",
        metrics=(METRIC,),
        attacks=ATTACK_CLASSES,
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
    """Render Figure 5 from an already-built scenario spec."""
    session = resolve_session(session, spec=scenario, store=store)
    return run_roc_figure(
        scenario,
        figure_id="fig5",
        title="ROC curves for different attacks (small degrees of damage)",
        series_axis="attacks",
        series_label=lambda name: ATTACKS.create(name).paper_name + "s",
        parameters={
            "compromised_fraction": scenario.fractions[0],
            "group_size": session.config.group_size,
            "metric": scenario.metrics[0],
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
    """Reproduce Figure 5 and return its series."""
    return render(
        spec(config, scale, degrees=degrees),
        session=simulation,
        workers=workers,
        store=store,
        fp_grid=fp_grid,
    )
