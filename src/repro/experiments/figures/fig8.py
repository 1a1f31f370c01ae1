"""Figure 8 — Detection rate vs node-compromise percentage (``DR-x-D``).

Setup (paper Section 7.7): false-positive budget 1 %, m = 300, Diff metric,
Dec-Bounded attacks; one curve per degree of damage D ∈ {80, 120, 160}; the
compromise fraction x sweeps 0 .. 60 %.

Expected qualitative outcome: the larger the degree of damage, the more
node compromise the detector tolerates — at D = 160 the detection rate
stays high up to roughly half of the neighbourhood being compromised, while
at D = 80 it degrades much earlier.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import SimulationConfig
from repro.experiments.figures.common import resolve_session, run_rate_figure
from repro.experiments.results import FigureResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession

__all__ = [
    "run",
    "render",
    "spec",
    "COMPROMISED_FRACTIONS",
    "DEGREES_OF_DAMAGE",
    "FALSE_POSITIVE_RATE",
    "METRIC",
    "ATTACK_CLASS",
]

#: Swept compromise fractions (x axis, as fractions of the neighbourhood).
COMPROMISED_FRACTIONS: tuple[float, ...] = (0.0, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60)

#: Degrees of damage (one curve each).
DEGREES_OF_DAMAGE: tuple[float, ...] = (80.0, 120.0, 160.0)

#: False-positive budget at which the detection rate is read.
FALSE_POSITIVE_RATE: float = 0.01

#: Detection metric and attack class of the figure.
METRIC: str = "diff"
ATTACK_CLASS: str = "dec_bounded"


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
) -> ScenarioSpec:
    """The figure's evaluation as a declarative scenario."""
    return ScenarioSpec(
        name="fig8",
        description="Detection rate vs percentage of compromised nodes",
        metrics=(METRIC,),
        attacks=(ATTACK_CLASS,),
        degrees=tuple(degrees),
        fractions=tuple(fractions),
        false_positive_rate=false_positive_rate,
        config=config or SimulationConfig(),
    ).scaled(scale)


def render(
    scenario: ScenarioSpec,
    *,
    session: Optional[LadSession] = None,
    workers: int = 0,
    store=None,
) -> FigureResult:
    """Render Figure 8 from an already-built scenario spec."""
    session = resolve_session(session, spec=scenario, store=store)
    return run_rate_figure(
        scenario,
        figure_id="fig8",
        title="Detection rate vs percentage of compromised nodes",
        panel_title="DR-x-D",
        x_axis="fractions",
        x_label="The Percentage of Compromised Nodes",
        series_axis="degrees",
        series_label=lambda degree: f"D={degree:g}",
        x_transform=lambda fraction: fraction * 100.0,
        parameters={
            "false_positive_rate": scenario.false_positive_rate,
            "group_size": session.config.group_size,
            "metric": scenario.metrics[0],
            "attack": scenario.attacks[0],
        },
        session=session,
        workers=workers,
    )


def run(
    simulation: Optional[LadSession] = None,
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
    workers: int = 0,
    store=None,
) -> FigureResult:
    """Reproduce Figure 8 and return its series."""
    return render(
        spec(
            config,
            scale,
            fractions=fractions,
            degrees=degrees,
            false_positive_rate=false_positive_rate,
        ),
        session=simulation,
        workers=workers,
        store=store,
    )
