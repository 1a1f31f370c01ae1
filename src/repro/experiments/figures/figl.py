"""Figure L — Detection rate vs degree of damage per localization scheme.

A cross-localizer comparison that is not in the paper but directly supports
its Section 7.2 discussion: LAD is agnostic to the localization scheme, and
the trained thresholds absorb each scheme's own benign error.  This figure
trains LAD behind every scheme on the ``localizers`` axis (beacon-based
schemes get the scenario's ``[beacons]`` infrastructure) and reads the
detection rate at a fixed false-positive budget across the degree of
damage — one curve per scheme, one panel per compromise fraction.

Each localizer needs its own threshold-training pass (that is what makes
the comparison meaningful), so the localizer axis dominates the cost;
``workers`` fans the schemes over worker processes exactly like the
density axis of Figure 9 (a single scheme fans its point grid instead),
and with an artifact store attached every scheme's trained state persists
independently (the artifact keys carry the localizer identity and the
beacon fingerprint, so the schemes never share warm artifacts).

Expected qualitative outcome: the coarser a scheme's benign localization
error, the looser its trained thresholds and the lower its detection rate
at small D — the beaconless MLE detects the earliest, the coarse range-free
baselines the latest.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import SimulationConfig
from repro.experiments.figures.common import _effective_beacons, session_axis_rates
from repro.experiments.results import FigureResult, PanelResult, SeriesResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession
from repro.experiments.sweep import SweepPoint

__all__ = [
    "run",
    "render",
    "spec",
    "LOCALIZERS_COMPARED",
    "DEGREES_OF_DAMAGE",
    "COMPROMISED_FRACTIONS",
    "FALSE_POSITIVE_RATE",
    "METRIC",
    "ATTACK_CLASS",
]

#: Localization schemes compared (one curve each).
LOCALIZERS_COMPARED: tuple[str, ...] = (
    "beaconless",
    "centroid",
    "mmse",
    "dvhop",
    "apit",
)

#: Degrees of damage along the x axis.
DEGREES_OF_DAMAGE: tuple[float, ...] = (40.0, 80.0, 120.0, 160.0)

#: Compromise fractions (one panel each).
COMPROMISED_FRACTIONS: tuple[float, ...] = (0.10,)

#: False-positive budget at which the detection rate is read.
FALSE_POSITIVE_RATE: float = 0.01

#: Detection metric and attack class of the figure.
METRIC: str = "diff"
ATTACK_CLASS: str = "dec_bounded"


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    localizers: Sequence[str] = LOCALIZERS_COMPARED,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
) -> ScenarioSpec:
    """The figure's evaluation as a declarative scenario."""
    return ScenarioSpec(
        name="figl",
        description="Detection rate vs degree of damage per localization scheme",
        metrics=(METRIC,),
        attacks=(ATTACK_CLASS,),
        degrees=tuple(degrees),
        fractions=tuple(fractions),
        localizers=tuple(localizers),
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
    """Render figure L from an already-built scenario spec.

    The *session* argument is ignored (each localizer needs its own
    threshold training); it is accepted for interface uniformity with the
    other figure renderers.  *workers* fans the localization schemes (see
    :func:`~repro.experiments.figures.common.session_axis_rates`); the
    result is identical to the serial run.
    """
    del session

    figure = FigureResult(
        figure_id="figl",
        title="Detection rate vs degree of damage per localization scheme",
        parameters={
            "false_positive_rate": scenario.false_positive_rate,
            "metric": scenario.metrics[0],
            "attack": scenario.attacks[0],
            "beacons": _effective_beacons(scenario),
        },
    )

    rates_at = session_axis_rates(
        scenario,
        "localizer",
        scenario.localizer_values(),
        workers=workers,
        store=store,
    )

    for fraction in scenario.fractions:
        panel = PanelResult(
            title=f"x={int(round(fraction * 100))}%",
            x_label="D-Degree of Damage (m)",
            y_label="DR-Detection Rate",
        )
        for localizer in scenario.localizer_values():
            rates = [
                rates_at[localizer][
                    SweepPoint(
                        scenario.metrics[0],
                        scenario.attacks[0],
                        float(degree),
                        float(fraction),
                    )
                ].detection_rate
                for degree in scenario.degrees
            ]
            panel.add_series(
                SeriesResult(
                    label=localizer,
                    x=[float(degree) for degree in scenario.degrees],
                    y=rates,
                )
            )
        figure.add_panel(panel)
    return figure


def run(
    simulation: Optional[LadSession] = None,
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    localizers: Sequence[str] = LOCALIZERS_COMPARED,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
    workers: int = 0,
    store=None,
) -> FigureResult:
    """Reproduce figure L and return its series (see :func:`render`)."""
    return render(
        spec(
            config,
            scale,
            localizers=localizers,
            degrees=degrees,
            fractions=fractions,
            false_positive_rate=false_positive_rate,
        ),
        session=simulation,
        workers=workers,
        store=store,
    )
