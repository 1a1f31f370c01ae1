"""Serving rounds against an in-process :class:`ServiceRuntime`.

A run interleaves serving rounds with the program processes it starts, so
that its serving samples are spread over the whole run: the shared
machine this runs on has slow periods, lasting from seconds to minutes,
in which everything runs up to 1.5x slower.  A phase's peak is the median
of its bursts and its median latency the median of its segments'
medians; its p99 pools every open-loop sample.

Each round runs, per phase, one saturating burst (every claim submitted at
once) and one open-loop segment: claim *i* is due at ``start + i / rate``
whatever happened to earlier claims, and its latency is timed from that
due time, so a stall that delays later submissions is charged to them.
How late the generator itself ran is recorded per claim.
(``repro.serving.loadgen`` times each claim from when its task started
instead, which hides generator stalls; it is left as it is.)
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True)
class PhasePlan:
    """Per round: burst size, open-loop segment size and rate of one phase."""

    name: str
    localize: bool
    burst_claims: int
    segment_claims: int
    rate: float


@dataclass
class DriveResult:
    """What one burst or open-loop segment observed, per claim in send order."""

    attempted: int
    succeeded: int
    rejected: int
    failed: int
    duration_s: float
    latencies_ms: np.ndarray
    late_ms: np.ndarray
    scores: np.ndarray
    flagged: np.ndarray

    @property
    def claims_per_s(self) -> float:
        return self.succeeded / self.duration_s


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return float(np.percentile(values, q)) if values.size else float("nan")


async def drive(runtime, claims: Sequence, rate: float = 0.0) -> DriveResult:
    """Submit *claims* all at once (``rate=0``) or open-loop at *rate*/s."""
    from repro.serving.runtime import ServiceOverloaded

    loop = asyncio.get_running_loop()
    n = len(claims)
    scores = np.full(n, np.nan)
    flagged = np.zeros(n, dtype=bool)
    latencies = np.full(n, np.nan)
    late = np.zeros(n)
    outcome = {"rejected": 0, "failed": 0}

    async def one(index: int, claim, due: float) -> None:
        try:
            verdict = await runtime.submit(claim)
        except ServiceOverloaded:
            outcome["rejected"] += 1
            return
        except Exception:  # counted as a failed operation, not fatal
            outcome["failed"] += 1
            return
        latencies[index] = (time.perf_counter() - due) * 1000.0
        scores[index] = verdict.score
        flagged[index] = verdict.anomalous

    start = time.perf_counter()
    tasks = []
    for index, claim in enumerate(claims):
        due = start
        if rate > 0:
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late[index] = (time.perf_counter() - due) * 1000.0
        tasks.append(loop.create_task(one(index, claim, due)))
    await asyncio.gather(*tasks)
    return DriveResult(
        attempted=n,
        succeeded=int(np.isfinite(latencies).sum()),
        rejected=outcome["rejected"],
        failed=outcome["failed"],
        duration_s=time.perf_counter() - start,
        latencies_ms=latencies,
        late_ms=late,
        scores=scores,
        flagged=flagged,
    )


@dataclass
class _Phase:
    """Everything one phase served, in order, for the final check."""

    runs: List[DriveResult] = field(default_factory=list)
    bursts: List[DriveResult] = field(default_factory=list)
    segments: List[DriveResult] = field(default_factory=list)
    queue_waits_ms: List[float] = field(default_factory=list)
    server_ms: List[float] = field(default_factory=list)


class Serving:
    """Serving rounds over one warm :class:`DetectionService`.

    *claim_arrays* holds the distinct claims (``observations`` and
    ``locations``); every submitted claim is a fresh object cycling over
    them.  Construction verifies one batch per phase directly, and the
    first round starts each phase with an untimed burst, so that lazily
    built state (down to the allocator's heap) is in the steady state of a
    long-running server before anything is timed.
    """

    def __init__(
        self,
        service,
        claim_arrays: Dict[str, np.ndarray],
        plans: Sequence[PhasePlan],
    ):
        self.service = service
        self.plans = tuple(plans)
        self.observations = claim_arrays["observations"]
        self.locations = claim_arrays["locations"]
        self.phases = {plan.name: _Phase() for plan in self.plans}
        self.stats = {"batches": 0, "batched_claims": 0, "rejected": 0, "failed": 0}
        self.rounds = 0
        for plan in self.plans:
            service.verify_batch(self._claims(plan, plan.burst_claims, "warm"))

    def _claims(self, plan: PhasePlan, count: int, tag: str) -> List:
        from repro.serving.claims import LocationClaim

        unique = self.observations.shape[0]
        return [
            LocationClaim(
                observation=self.observations[i % unique],
                claimed_location=None if plan.localize else self.locations[i % unique],
                claim_id=f"{plan.name}-{tag}-{i}",
            )
            for i in range(count)
        ]

    def round(self, tracer=None) -> float:
        """One burst and one open-loop segment per phase; returns busy seconds."""
        tag = f"r{self.rounds}"
        work = {
            plan.name: (
                self._claims(plan, plan.burst_claims, tag + "w")
                if self.rounds == 0
                else None,
                self._claims(plan, plan.burst_claims, tag + "b"),
                self._claims(plan, plan.segment_claims, tag + "o"),
            )
            for plan in self.plans
        }
        self.rounds += 1
        # The pre-built claims are the benchmark's, not the server's: freeze
        # them (and the warm service) out of the collector's reach, so that
        # full collections scanning them do not stall the timed runs.  A real
        # server's requests are short-lived and never pile up like this.
        gc.collect()
        gc.freeze()
        try:
            return asyncio.run(self._round(work, tracer))
        finally:
            gc.unfreeze()

    async def _round(self, work, tracer) -> float:
        from repro.serving.runtime import ServiceRuntime, ServingConfig

        busy = 0.0
        config = ServingConfig(overflow="block")
        async with ServiceRuntime(self.service, config) as runtime:
            for plan in self.plans:
                phase = self.phases[plan.name]
                warm, burst, segment = work[plan.name]
                if warm is not None:
                    phase.runs.append(await drive(runtime, warm))
                phase.runs.append(await drive(runtime, burst))
                phase.bursts.append(phase.runs[-1])
                waits_before = len(tracer.queue_waits_ms) if tracer else 0
                server_before = len(runtime.stats.latencies_ms)
                phase.runs.append(await drive(runtime, segment, plan.rate))
                phase.segments.append(phase.runs[-1])
                phase.server_ms += runtime.stats.latencies_ms[server_before:]
                if tracer is not None:
                    phase.queue_waits_ms += tracer.queue_waits_ms[waits_before:]
                busy += phase.bursts[-1].duration_s + phase.segments[-1].duration_s
        for key, value in (
            ("batches", runtime.stats.batches),
            ("batched_claims", runtime.stats.batched_claims),
            ("rejected", runtime.stats.rejected),
            ("failed", runtime.stats.failed),
        ):
            self.stats[key] += value
        return busy

    def finish(self) -> dict:
        """Check every served verdict and summarise each phase.

        The check: every served score is bit-identical to the score one
        ``DetectionService.verify_batch`` call over the distinct claims
        gives the same claim, and the flagged counts match.
        """
        unique = self.observations.shape[0]
        summary = {"phases": {}, "problems": []}
        for plan in self.plans:
            phase = self.phases[plan.name]
            reference = self.service.verify_batch(self._claims(plan, unique, "ref"))
            ref_scores = np.array([verdict.score for verdict in reference])
            ref_flags = np.array([verdict.anomalous for verdict in reference])
            ok = True
            for run in phase.runs:
                rows = np.arange(run.attempted) % unique
                ok &= np.array_equal(run.scores, ref_scores[rows], equal_nan=True)
                ok &= int(run.flagged.sum()) == int(ref_flags[rows].sum())
            if not ok:
                summary["problems"].append(
                    f"{plan.name}: served verdicts differ from one verify_batch call"
                )
            for kind, samples in (
                ("burst claims/s", [run.claims_per_s for run in phase.bursts]),
                (
                    "segment p50 ms",
                    [percentile(run.latencies_ms, 50) for run in phase.segments],
                ),
            ):
                listed = " ".join(f"{value:.4g}" for value in samples)
                print(f"{plan.name} {kind} samples ({len(samples)}): {listed}")
            attempted = sum(run.attempted for run in phase.runs)
            latencies = np.concatenate([run.latencies_ms for run in phase.segments])
            summary["phases"][plan.name] = {
                "attempted": attempted,
                "succeeded": sum(run.succeeded for run in phase.runs),
                "rejected": sum(run.rejected for run in phase.runs),
                "failed": sum(run.failed for run in phase.runs) if ok else attempted,
                "flagged": int(sum(run.flagged.sum() for run in phase.runs)),
                "rounds": len(phase.bursts),
                "peak_cps": float(
                    np.median([run.claims_per_s for run in phase.bursts])
                ),
                "p50_ms": float(
                    np.median(
                        [percentile(run.latencies_ms, 50) for run in phase.segments]
                    )
                ),
                "p99_ms": percentile(latencies, 99),
                "open_samples": int(np.isfinite(latencies).sum()),
                "late_ms": np.concatenate([run.late_ms for run in phase.segments]),
                "queue_waits_ms": np.asarray(phase.queue_waits_ms),
                "server_ms": np.asarray(phase.server_ms),
            }
        batches = self.stats["batches"]
        mean_batch = self.stats["batched_claims"] / batches if batches else 0.0
        summary["stats"] = dict(self.stats, mean_batch=mean_batch)
        return summary
