"""Figure T — Delivery and detection rate over time as an attack spreads.

The temporal companion of the paper's static detection-rate figures: a
live network evolves under a :class:`~repro.events.timeline.TimelineSpec`
(default: nodes jitter every epoch, the attack switches on mid-run and
keeps spreading periodically) while the trained detector re-scores every
victim's claim per epoch.  Each panel is one ``(D, x)`` sweep point with
three curves against epoch time — detection rate over the attacked
victims, false-positive rate over the benign ones, and the delivery rate
(live, unflagged claims) — and the panel parameters carry the online
metric family: detection latency, time to first false positive, and the
detection-rate drift.

Expected qualitative outcome: before the attack switches on the detection
rate is zero and delivery is near one; at the attack epoch the detection
rate jumps (the latency records how soon) while delivery collapses as
flagged claims are rejected; continued mobility slowly blurs deployment
knowledge, which shows up as drift.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.events.timeline import EventSpec, TimelineSpec
from repro.experiments.config import SimulationConfig
from repro.experiments.figures.common import resolve_session
from repro.experiments.results import FigureResult, PanelResult, SeriesResult
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.session import LadSession

__all__ = [
    "run",
    "render",
    "spec",
    "DEFAULT_TIMELINE",
    "DEGREES_OF_DAMAGE",
    "COMPROMISED_FRACTIONS",
    "FALSE_POSITIVE_RATE",
    "METRIC",
    "ATTACK_CLASS",
]

#: The figure's default timeline: per-epoch jitter from epoch 1, the attack
#: switching on at epoch 4 and spreading over a third of the victims per
#: epoch thereafter.
DEFAULT_TIMELINE = TimelineSpec(
    epochs=12,
    epoch_duration=1.0,
    events=(
        EventSpec(
            kind="attack",
            action="on",
            period=1.0,
            start=4.0,
            fraction=0.34,
        ),
        EventSpec(
            kind="mobility",
            action="jitter",
            period=1.0,
            start=1.0,
            fraction=0.25,
            amplitude=5.0,
        ),
    ),
)

#: Degrees of damage (one panel each).
DEGREES_OF_DAMAGE: tuple[float, ...] = (120.0,)

#: Compromise fractions (one panel each).
COMPROMISED_FRACTIONS: tuple[float, ...] = (0.10,)

#: False-positive budget the thresholds are trained at.
FALSE_POSITIVE_RATE: float = 0.01

#: Detection metric and attack class of the figure.
METRIC: str = "diff"
ATTACK_CLASS: str = "dec_bounded"


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    timeline: Optional[TimelineSpec] = None,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
) -> ScenarioSpec:
    """The figure's evaluation as a declarative (temporal) scenario."""
    return ScenarioSpec(
        name="figt",
        description=(
            "Delivery and detection rate over time as an attack spreads"
        ),
        metrics=(METRIC,),
        attacks=(ATTACK_CLASS,),
        degrees=tuple(degrees),
        fractions=tuple(fractions),
        false_positive_rate=false_positive_rate,
        timeline=timeline if timeline is not None else DEFAULT_TIMELINE,
        config=config or SimulationConfig(),
    ).scaled(scale)


def render(
    scenario: ScenarioSpec,
    *,
    session: Optional[LadSession] = None,
    workers: int = 0,
    store=None,
) -> FigureResult:
    """Render figure T from an already-built scenario spec.

    Every sweep point of the scenario runs through its ``[timeline]``
    (the figure default when the spec carries none) on the session's
    cached state; ``workers`` fans the points over worker processes with
    bit-identical results, and an attached store persists each point's
    epoch record under the timeline fingerprint.
    """
    timeline = scenario.timeline or DEFAULT_TIMELINE
    session = resolve_session(session, spec=scenario, store=store)
    runner = session.temporal(timeline, workers=workers)
    outcomes = runner.outcomes(
        scenario.points(), false_positive_rate=scenario.false_positive_rate
    )

    figure = FigureResult(
        figure_id="figt",
        title="Delivery and detection rate over time as an attack spreads",
        parameters={
            "false_positive_rate": scenario.false_positive_rate,
            "metric": scenario.metrics[0],
            "attack": scenario.attacks[0],
            "epochs": timeline.epochs,
            "epoch_duration": timeline.epoch_duration,
            "timeline_events": [
                event.as_dict() for event in timeline.events
            ],
            # One summary entry per panel: the online metric family.
            "points": [
                {
                    "degree_of_damage": point.degree_of_damage,
                    "compromised_fraction": point.compromised_fraction,
                    "detection_latency": outcome.detection_latency,
                    "first_false_positive": outcome.first_false_positive,
                    "detection_drift": outcome.detection_drift,
                    "threshold": outcome.threshold,
                }
                for point, outcome in outcomes.items()
            ],
        },
    )

    for point, outcome in outcomes.items():
        panel = PanelResult(
            title=(
                f"D={point.degree_of_damage:g}m "
                f"x={int(round(point.compromised_fraction * 100))}%"
            ),
            x_label="time (epochs)",
            y_label="rate",
        )
        times = [float(t) for t in outcome.times]
        panel.add_series(
            SeriesResult(
                label="detection rate",
                x=times,
                y=[float(r) for r in outcome.detection_rates()],
            )
        )
        panel.add_series(
            SeriesResult(
                label="delivery rate",
                x=times,
                y=[float(r) for r in outcome.delivery_rates()],
            )
        )
        panel.add_series(
            SeriesResult(
                label="false positives",
                x=times,
                y=[float(r) for r in outcome.false_positive_rates()],
            )
        )
        figure.add_panel(panel)
    return figure


def run(
    simulation: Optional[LadSession] = None,
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    timeline: Optional[TimelineSpec] = None,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
    workers: int = 0,
    store=None,
) -> FigureResult:
    """Reproduce figure T and return its series (see :func:`render`)."""
    return render(
        spec(
            config,
            scale,
            timeline=timeline,
            degrees=degrees,
            fractions=fractions,
            false_positive_rate=false_positive_rate,
        ),
        session=simulation,
        workers=workers,
        store=store,
    )
