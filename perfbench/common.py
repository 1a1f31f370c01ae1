"""What the benchmark's processes share: paths, workload inputs, checks.

Only the standard library and numpy are imported at module level, so a
child process can time its own ``import repro`` from a clean start.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path
from typing import List

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test, imported from source.
SRC = ROOT / "src"
#: Scratch space for artifact stores and claim files; removed after a run.
WORK = ROOT / ".perfbench-work"
#: Raw span dumps of traced runs, kept for inspection.
TRACES = ROOT / ".perfbench-traces"

#: Monte-Carlo scale of each workload's config at full size.  The sweeps
#: run at 0.25 so that a run holds several renders (the fastest is
#: reported); the serve workload's 0.5 gives 400 distinct claims.
SCALES = {"fig4_roc": 0.25, "fig9_density": 0.25, "serve": 0.5}
#: Scale of every workload in the self-test (``--size tiny``).
TINY_SCALE = 0.05

#: The one attacked point whose claims are mixed with the honest ones.
SERVE_DEGREE = 120.0
SERVE_FRACTION = 0.10


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))


def workload_spec(workload: str, seed: int, size: str):
    """The scenario spec a workload runs: the only input the program gets.

    The seed becomes the config's master seed, from which the program
    derives every deployment, victim and attack stream.
    """
    from repro.experiments.config import SimulationConfig
    from repro.experiments.figures import FIGURE_SPECS
    from repro.experiments.scenario import ScenarioSpec

    config = SimulationConfig(seed=int(seed))
    scale = TINY_SCALE if size == "tiny" else SCALES[workload]
    if workload == "fig4_roc":
        return FIGURE_SPECS["fig4"](config, scale)
    if workload == "fig9_density":
        return FIGURE_SPECS["fig9"](config, scale)
    if workload == "serve":
        return ScenarioSpec(
            name="serve",
            metrics=("diff",),
            attacks=("dec_bounded",),
            degrees=(SERVE_DEGREE,),
            fractions=(SERVE_FRACTION,),
            config=config,
        ).scaled(scale)
    raise ValueError(f"unknown workload {workload!r}")


def write_claims(session, path: Path) -> None:
    """Honest victim claims interleaved with attacked ones, saved as arrays.

    The session's store must already hold its trained state; the attacked
    claims come from the session's own attack stream, as in
    ``LadSession.attacked_claims``.
    """
    import numpy as np

    victims = session.victims()
    attacked = session.attacked_claims(
        "diff",
        "dec_bounded",
        degree_of_damage=SERVE_DEGREE,
        compromised_fraction=SERVE_FRACTION,
    )
    observations, locations = [], []
    for i, claim in enumerate(attacked):
        observations += [victims.observations[i], claim.observation]
        locations += [victims.actual_locations[i], claim.claimed_location]
    np.savez(path, observations=np.stack(observations), locations=np.stack(locations))


def figure_digest(figure) -> str:
    """SHA-256 of every panel's series, exactly as the figure holds them."""
    payload = json.dumps(figure.as_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def figure_problems(figure, roc: bool) -> List[str]:
    """Structural checks every correct figure passes.

    Rates are finite and within [0, 1]; ROC series (sampled on an
    ascending false-positive grid) never decrease.
    """
    problems = []
    if not figure.panels:
        problems.append("figure has no panels")
    for panel in figure.panels:
        if not panel.series:
            problems.append(f"{panel.title}: no series")
        for series in panel.series:
            where = f"{panel.title}/{series.label}"
            if len(series.x) != len(series.y) or not series.y:
                problems.append(f"{where}: empty or ragged series")
                continue
            if any(not math.isfinite(y) or not 0.0 <= y <= 1.0 for y in series.y):
                problems.append(f"{where}: rate outside [0, 1]")
            if roc and any(b < a for a, b in zip(series.y, series.y[1:])):
                problems.append(f"{where}: ROC curve decreases")
    return problems
