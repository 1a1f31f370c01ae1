"""Figure M — The localizer × attack robustness matrix.

Figure L compares every localization scheme under the *one* abstract
Dec-Bounded adversary.  This figure generalises that comparison into a
full matrix: every scheme on the ``localizers`` axis is trained
independently and then evaluated against every attack class on the
``attacks`` axis — the paper's observation-tainting adversaries *and*
the modality-targeted physical-layer attacks of
:mod:`repro.attacks.modality`.  One panel per attack class, one curve
per scheme, detection rate over the degree of damage.

The matrix makes the modality gating visible: an RSSI amplifier read
against DV-Hop produces a flat zero-displacement row (nothing to
detect — the attack is futile against that scheme), while the same
attack against the RSSI path-loss scheme displaces up to its physical
cap and is caught essentially immediately because the victim's
observation stays honest.  The Dec-* columns reproduce Figure L's
ordering for every scheme including the new RSSI/TDOA localizers.

Cost scales as ``len(localizers)`` training passes (each sweeping the
full ``attacks × degrees × fractions`` grid); ``workers`` fans the
localizer axis over worker processes exactly like Figure L, and an
attached artifact store keeps every scheme's trained state under its
own modality-aware beacon fingerprint — cross-scheme artifacts are
never shared.
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
    "ATTACKS_COMPARED",
    "DEGREES_OF_DAMAGE",
    "COMPROMISED_FRACTIONS",
    "FALSE_POSITIVE_RATE",
    "METRIC",
]

#: Localization schemes down the matrix (one curve each).
LOCALIZERS_COMPARED: tuple[str, ...] = (
    "beaconless",
    "centroid",
    "mmse",
    "dvhop",
    "apit",
    "rssi",
    "tdoa",
)

#: Attack classes across the matrix (one panel each): the paper's
#: strongest observation-tainting adversary plus both modality attacks.
ATTACKS_COMPARED: tuple[str, ...] = ("dec_bounded", "rssi_amp", "tdoa_skew")

#: Degrees of damage along the x axis.
DEGREES_OF_DAMAGE: tuple[float, ...] = (80.0, 160.0)

#: Compromise fractions (the detection-side ``x``; modality attacks
#: ignore it — they never touch the observation).
COMPROMISED_FRACTIONS: tuple[float, ...] = (0.10,)

#: False-positive budget at which the detection rate is read.
FALSE_POSITIVE_RATE: float = 0.01

#: Detection metric of the matrix.
METRIC: str = "diff"


def spec(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    *,
    localizers: Sequence[str] = LOCALIZERS_COMPARED,
    attacks: Sequence[str] = ATTACKS_COMPARED,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
) -> ScenarioSpec:
    """The figure's evaluation as a declarative scenario."""
    return ScenarioSpec(
        name="figm",
        description="Localizer x attack robustness matrix",
        metrics=(METRIC,),
        attacks=tuple(attacks),
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
    """Render figure M from an already-built scenario spec.

    The *session* argument is ignored (each localizer needs its own
    threshold training); it is accepted for interface uniformity with the
    other figure renderers.  *workers* fans the localization schemes (see
    :func:`~repro.experiments.figures.common.session_axis_rates`); the
    result is identical to the serial run.
    """
    del session

    figure = FigureResult(
        figure_id="figm",
        title="Localizer x attack robustness matrix",
        parameters={
            "false_positive_rate": scenario.false_positive_rate,
            "metric": scenario.metrics[0],
            "attacks": list(scenario.attacks),
            "localizers": list(scenario.localizer_values()),
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

    for attack in scenario.attacks:
        for fraction in scenario.fractions:
            title = f"attack={attack}"
            if len(scenario.fractions) > 1:
                title += f", x={int(round(fraction * 100))}%"
            panel = PanelResult(
                title=title,
                x_label="D-Degree of Damage (m)",
                y_label="DR-Detection Rate",
            )
            for localizer in scenario.localizer_values():
                rates = [
                    rates_at[localizer][
                        SweepPoint(
                            scenario.metrics[0],
                            attack,
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
    attacks: Sequence[str] = ATTACKS_COMPARED,
    degrees: Sequence[float] = DEGREES_OF_DAMAGE,
    fractions: Sequence[float] = COMPROMISED_FRACTIONS,
    false_positive_rate: float = FALSE_POSITIVE_RATE,
    workers: int = 0,
    store=None,
) -> FigureResult:
    """Reproduce figure M and return its series (see :func:`render`)."""
    return render(
        spec(
            config,
            scale,
            localizers=localizers,
            attacks=attacks,
            degrees=degrees,
            fractions=fractions,
            false_positive_rate=false_positive_rate,
        ),
        session=simulation,
        workers=workers,
        store=store,
    )
