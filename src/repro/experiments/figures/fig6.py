"""Figure 6 — ROC curves for the two attack classes at large D (``DR-FP-T-D``).

Same setup as Figure 5 but with D ∈ {120, 160}.

Expected qualitative outcome: with large degrees of damage the gap between
the Dec-Bounded and Dec-Only attacks closes — both are detected at ≳99 %
with small false-positive rates, which is the paper's argument that the
expensive authentication/wormhole-detection machinery needed to force
Dec-Only behaviour is unnecessary when only high-impact anomalies matter.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import SimulationConfig
from repro.experiments.figures import fig5
from repro.experiments.figures.common import DEFAULT_ROC_FP_GRID
from repro.experiments.results import FigureResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession

__all__ = ["run", "render", "spec", "DEGREES_OF_DAMAGE"]

#: Degrees of damage of the two panels.
DEGREES_OF_DAMAGE: tuple[float, ...] = (120.0, 160.0)


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
) -> ScenarioSpec:
    """The figure's evaluation as a declarative scenario."""
    return fig5.spec(config, scale, degrees=degrees, name="fig6")


def render(
    scenario: ScenarioSpec,
    *,
    session: Optional[LadSession] = None,
    workers: int = 0,
    store=None,
    fp_grid: Sequence[float] = DEFAULT_ROC_FP_GRID,
) -> FigureResult:
    """Render Figure 6 from an already-built scenario spec."""
    figure = fig5.render(
        scenario,
        session=session,
        workers=workers,
        store=store,
        fp_grid=fp_grid,
    )
    figure.figure_id = "fig6"
    figure.title = "ROC curves for different attacks (large degrees of damage)"
    return figure


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
    """Reproduce Figure 6 and return its series."""
    return render(
        spec(config, scale, degrees=degrees),
        session=simulation,
        workers=workers,
        store=store,
        fp_grid=fp_grid,
    )
