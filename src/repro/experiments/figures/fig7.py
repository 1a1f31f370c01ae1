"""Figure 7 — Detection rate vs degree of damage (``DR-D-x``).

Setup (paper Section 7.6): false-positive budget 1 %, m = 300, Diff metric,
Dec-Bounded attacks; one curve per compromise fraction x ∈ {10, 20, 30} %;
the degree of damage D sweeps 40 .. 160 m.

Expected qualitative outcome: the detection rate is low for small D (the
attack hides inside the localization scheme's own error) and approaches
100 % as D grows, for every compromise level.
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
    "DEGREES_OF_DAMAGE",
    "COMPROMISED_FRACTIONS",
    "FALSE_POSITIVE_RATE",
    "METRIC",
    "ATTACK_CLASS",
]

#: Swept degrees of damage (x axis).
DEGREES_OF_DAMAGE: tuple[float, ...] = (40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0)

#: Compromise fractions (one curve each).
COMPROMISED_FRACTIONS: tuple[float, ...] = (0.10, 0.20, 0.30)

#: False-positive budget at which the detection rate is read.
FALSE_POSITIVE_RATE: float = 0.01

#: Detection metric and attack class of the figure.
METRIC: str = "diff"
ATTACK_CLASS: str = "dec_bounded"


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
) -> ScenarioSpec:
    """The figure's evaluation as a declarative scenario."""
    return ScenarioSpec(
        name="fig7",
        description="Detection rate vs degree of damage",
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
    """Render Figure 7 from an already-built scenario spec."""
    session = resolve_session(session, spec=scenario, store=store)
    return run_rate_figure(
        scenario,
        figure_id="fig7",
        title="Detection rate vs degree of damage",
        panel_title="DR-D-x",
        x_axis="degrees",
        x_label="The Degree of Damage D",
        series_axis="fractions",
        series_label=lambda fraction: f"x={int(round(fraction * 100))}%",
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
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
    workers: int = 0,
    store=None,
) -> FigureResult:
    """Reproduce Figure 7 and return its series."""
    return render(
        spec(
            config,
            scale,
            degrees=degrees,
            fractions=fractions,
            false_positive_rate=false_positive_rate,
        ),
        session=simulation,
        workers=workers,
        store=store,
    )
