"""The repository benchmark: ``fig4_roc``, ``fig9_density`` and ``serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig4_roc --seed 1 --seconds 40 --trace 0

The program is imported from the checkout's ``src``; nothing is built or
installed.  Workload inputs are made from ``--seed`` (the config's master
seed) and handed to the program as a scenario spec and, for the serving
rounds, as location claims.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` a traced run's per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an output check fails.  See README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common
import phases

HERE = Path(__file__).resolve().parent

#: Every child process is killed after this long (the run must end in 180 s).
CHILD_TIMEOUT_S = 150.0

#: Each run takes at least this many program processes and serving rounds.
MIN_REPS = 3
#: Traced serving rounds of a ``--trace 1`` serve run (after as many untraced).
TRACED_ROUNDS = 2

#: Open-loop rates are constants, never re-derived per run, and set low
#: enough that queueing does not amplify the machine's slow periods into
#: the medians.  Score: a sixth of the burst peak on the seed commit
#: (2-core container, ~13k claims/s); at a third, a 2x slow period more
#: than doubled the p50.  Localize: a fifth of the capacity for
#: single-claim batches (~275 claims/s), which is what open-loop
#: micro-batches hold; a third of the 32-claim burst peak already loaded
#: the verify thread to ~65 %.
SCORE_RATE = 2150.0
LOCALIZE_RATE = 60.0

#: Per serving round and phase: burst size, open-loop segment size, rate.
PLANS = {
    "full": (
        phases.PhasePlan("score", False, 4000, 1000, SCORE_RATE),
        phases.PhasePlan("localize", True, 300, 100, LOCALIZE_RATE),
    ),
    "tiny": (
        phases.PhasePlan("score", False, 100, 100, 2000.0),
        phases.PhasePlan("localize", True, 10, 10, 100.0),
    ),
}


class Run:
    """One benchmark invocation: its arguments, scratch directory and tallies."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._children = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(
        self, mode: str, *, store: Path, trace: bool = False, claims=None
    ) -> dict:
        """Run one child process to completion and return its report."""
        self._children += 1
        command = [
            sys.executable,
            str(HERE / "child.py"),
            mode,
            f"--workload={self.args.workload}",
            f"--seed={self.args.seed}",
            f"--size={self.args.size}",
            f"--store={store}",
        ]
        if trace:
            common.TRACES.mkdir(exist_ok=True)
            path = common.TRACES / (
                f"{self.args.workload}-seed{self.args.seed}-{self._children}.json"
            )
            command += ["--trace", str(path)]
        if claims is not None:
            command += ["--claims", str(claims)]
        command += ["--spawned", repr(time.monotonic())]
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=common.ROOT,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"child {mode} exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def interleave(self, step, count: int = MIN_REPS) -> None:
        """Call ``step(i)`` *count* times, then on until ``--seconds`` is spent."""
        i = 0
        while True:
            step(i)
            i += 1
            if i >= count and self.elapsed() * (i + 1) / i > self.args.seconds:
                return

    def serving(self, store: Path, claims_path: Path) -> phases.Serving:
        """A warm service over *store*, ready to serve the generated claims."""
        import numpy as np
        from repro.serving import DetectionService

        spec = common.workload_spec(self.args.workload, self.args.seed, self.args.size)
        service = DetectionService.from_session(
            spec.session(store=store),
            metrics=("diff",),
            false_positive_rate=spec.false_positive_rate,
            require_warm=True,
        )
        with np.load(claims_path) as archive:
            claims = {name: archive[name] for name in archive.files}
        digest = hashlib.sha256()
        for name in sorted(claims):
            digest.update(claims[name].tobytes())
        distinct = claims["observations"].shape[0]
        print(f"inputs {digest.hexdigest()} ({distinct} distinct claims)")
        return phases.Serving(service, claims, PLANS[self.args.size])

    def finish_serving(self, serving: phases.Serving) -> dict:
        """Check the served verdicts, print per-phase counts, tally them."""
        summary = serving.finish()
        self.problems += summary["problems"]
        for name, phase in summary["phases"].items():
            self.attempted += phase["attempted"]
            self.failed += phase["failed"]
            print(
                f"phase {name}: {phase['rounds']} rounds; "
                f"attempted={phase['attempted']} succeeded={phase['succeeded']} "
                f"rejected={phase['rejected']} failed={phase['failed']} "
                f"flagged={phase['flagged']}; "
                f"peak {phase['peak_cps']:.1f} claims/s, open-loop p50 "
                f"{phase['p50_ms']:.3f} ms, p99 {phase['p99_ms']:.3f} ms "
                f"({phase['open_samples']} samples)"
            )
        return summary


def _median(values) -> float:
    return float(statistics.median(values))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list, sweeps: list, summary: dict) -> dict:
    """The end-to-end metrics from the program processes and serving rounds."""
    for name, reports in (("setup_s", setups), ("sweep_s", sweeps)):
        samples = " ".join(f"{r[name]:.4f}" for r in reports)
        print(f"{name} samples ({len(reports)}): {samples}")
    metrics = {
        "setup_s": _metric(_median(r["setup_s"] for r in setups), "s"),
        "sweep_s": _metric(_median(r["sweep_s"] for r in sweeps), "s"),
        # The serving rounds share this process with the benchmark's own
        # claim objects, so only the program processes' peaks count.
        "peak_rss_mb": _metric(max(r["rss_mb"] for r in setups + sweeps), "MB"),
    }
    # The score phase's peak is per-layer only (``serving.score_peak_cps``):
    # its 10-run spread reached 0.35, beyond any allowed bound.
    served = summary["phases"]
    metrics["localize_peak_cps"] = _metric(
        served["localize"]["peak_cps"], "claims/s"
    )
    metrics["score_p50_ms"] = _metric(served["score"]["p50_ms"], "ms")
    metrics["localize_p50_ms"] = _metric(served["localize"]["p50_ms"], "ms")
    return metrics


# -- the sweep workloads ------------------------------------------------------


def _check_renders(run: Run, reports: list) -> None:
    """Every render passes the figure checks and all digests agree."""
    digests = {report["digest"] for report in reports}
    failed = 0
    for report in reports:
        if report["problems"] or len(digests) != 1:
            failed += 1
        run.problems += report["problems"]
    if len(digests) != 1:
        run.problems.append(f"renders of one seed disagree: {sorted(digests)}")
    run.attempted += len(reports)
    run.failed += failed
    print(
        f"sweep {run.args.workload}: {len(reports)} renders x "
        f"{reports[0]['points']} points; attempted={len(reports)} "
        f"succeeded={len(reports) - failed} rejected=0 failed={failed}; "
        f"digest {reports[0]['digest']}"
    )


def sweep_workload(run: Run) -> dict:
    """Renders in fresh processes, each followed by a serving round.

    The serving rounds (the *probe*) run against the store the first
    render wrote, so every end-to-end metric exists on this workload too.
    """
    if run.args.trace:
        return sweep_trace(run)
    claims = run.work / "claims.npz"
    renders = [run.child("render", store=run.work / "render-0", claims=claims)]
    serving = run.serving(run.work / "render-0", claims)

    def step(i: int) -> None:
        if i:
            renders.append(run.child("render", store=run.work / f"render-{i}"))
        serving.round()

    run.interleave(step)
    _check_renders(run, renders)
    return end_to_end(renders, renders, run.finish_serving(serving))


def sweep_trace(run: Run) -> dict:
    """Alternate untraced and traced renders; per-layer metrics of the latter."""
    plain, traced = [], []

    def step(i: int) -> None:
        reports = traced if i % 2 else plain
        reports.append(
            run.child("render", store=run.work / f"render-{i}", trace=bool(i % 2))
        )

    run.interleave(step, count=2)
    if len(plain) > len(traced):
        step(len(plain) + len(traced))  # as many traced renders as untraced
    _check_renders(run, plain + traced)
    _check_exact(run, [r["trace"] for r in traced])
    overhead = _median(r["sweep_s"] for r in traced) - _median(
        r["sweep_s"] for r in plain
    )
    return layer_metrics(traced, overhead, serving=None)


# -- the serve workload ------------------------------------------------------


def serve_workload(run: Run) -> dict:
    """Training fills and warm starts in fresh processes, between serving rounds."""
    claims = run.work / "claims.npz"
    store = run.work / "fill-0"
    fills = [run.child("fill", store=store, claims=claims)]
    if run.args.trace:
        return serve_trace(run, store, claims)
    warms = []
    serving = run.serving(store, claims)

    def step(i: int) -> None:
        if i % 2:
            fills.append(run.child("fill", store=run.work / f"fill-{i}"))
        else:
            warms.append(run.child("warm", store=store))
        serving.round()

    run.interleave(step, count=2 * MIN_REPS)
    return end_to_end(warms, fills, run.finish_serving(serving))


def serve_trace(run: Run, store: Path, claims: Path) -> dict:
    """Warm start traced in a child; rounds alternate untraced and traced."""
    import spans

    warm = run.child("warm", store=store, trace=True)
    serving = run.serving(store, claims)
    tracer = spans.Tracer()
    busy = {False: 0.0, True: 0.0}

    def step(i: int) -> None:
        traced = bool(i % 2)
        if traced:
            spans.install(tracer)
        try:
            busy[traced] += serving.round(tracer if traced else None)
        finally:
            tracer.uninstall()

    # A fixed number of rounds, so that the counters repeat exactly.
    for i in range(2 * TRACED_ROUNDS):
        step(i)
    summary = run.finish_serving(serving)
    common.TRACES.mkdir(exist_ok=True)
    tracer.dump(common.TRACES / f"serve-seed{run.args.seed}-rounds.json")
    warm["trace"] = _merge_summaries([warm["trace"], tracer.summary()])
    return layer_metrics([warm], busy[True] - busy[False], serving=summary)


# -- per-layer metrics ---------------------------------------------------------


def _merge_summaries(summaries: list) -> dict:
    spans_by_name: dict = {}
    counts: dict = {}
    layers: dict = {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            into = spans_by_name.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key in into:
                into[key] += row[key]
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in summary["layer_self_s"].items():
            layers[name] = layers.get(name, 0.0) + value
    return {
        "spans": spans_by_name,
        "counts": counts,
        "layer_self_s": layers,
        "span_count": sum(s["span_count"] for s in summaries),
    }


#: Counters that must repeat exactly across traced runs of one seed.
EXACT = (
    "deployment.gz_builds",
    "attacks.pmf_calls",
    "localization.rows",
    "network.index_builds",
    "experiments.store_saves",
    "experiments.store_bytes_written",
)


def _check_exact(run: Run, summaries: list) -> None:
    first = {key: summaries[0]["counts"].get(key, 0) for key in EXACT}
    for summary in summaries[1:]:
        again = {key: summary["counts"].get(key, 0) for key in EXACT}
        if again != first:
            run.problems.append(f"exact counters differ: {first} vs {again}")
            run.failed += 1


def _self_s(summary: dict, name: str) -> float:
    return summary["spans"].get(name, {}).get("self_s", 0.0)


def _total_s(summary: dict, name: str) -> float:
    return summary["spans"].get(name, {}).get("total_s", 0.0)


def _one_trace(report: dict, serving) -> dict:
    """Every per-layer value of one traced run (times in seconds)."""
    import numpy as np

    summary = report["trace"]
    counts = summary["counts"]
    hits = counts.get("experiments.store_hits", 0)
    misses = counts.get("experiments.store_misses", 0)
    values = {
        "cold.import_s": report["import_s"],
        "cold.first_lapack_s": report["first_lapack_s"],
        "deployment.gz_builds": counts.get("deployment.gz_builds", 0),
        "deployment.gz_build_s": _self_s(summary, "deployment.gz_build"),
        "deployment.loglik_calls": counts.get("deployment.loglik_calls", 0),
        "deployment.loglik_s": _self_s(summary, "deployment.loglik"),
        "deployment.expected_obs_s": _self_s(summary, "deployment.expected_obs"),
        "network.deployments": counts.get("network.deployments", 0),
        "network.generate_s": _self_s(summary, "network.generate"),
        "network.index_builds": counts.get("network.index_builds", 0),
        "network.observations_s": _self_s(summary, "network.observations"),
        "localization.calls": summary["spans"]
        .get("localization.localize", {})
        .get("calls", 0),
        "localization.rows": counts.get("localization.rows", 0),
        "localization.s": _self_s(summary, "localization.localize"),
        "core.training_samples": counts.get("core.training_samples", 0),
        "core.training_s": _self_s(summary, "core.training"),
        "core.metric_rows": counts.get("core.metric_rows", 0),
        "core.metric_s": _self_s(summary, "core.metric"),
        "attacks.taint_rows": counts.get("attacks.taint_rows", 0),
        "attacks.taint_s": _self_s(summary, "attacks.taint"),
        "attacks.spoof_s": _self_s(summary, "attacks.spoof"),
        "attacks.pmf_calls": counts.get("attacks.pmf_calls", 0),
        "experiments.points": counts.get("experiments.points", 0),
        "experiments.store_saves": counts.get("experiments.store_saves", 0),
        "experiments.store_bytes_written": counts.get(
            "experiments.store_bytes_written", 0
        ),
        "experiments.store_save_s": _self_s(summary, "experiments.store_save"),
        "experiments.store_loads": counts.get("experiments.store_loads", 0),
        "experiments.store_load_s": _self_s(summary, "experiments.store_load"),
        "experiments.store_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.spans": summary["span_count"],
    }
    for layer, seconds in summary["layer_self_s"].items():
        values[f"{layer}.self_s"] = seconds
    serving_values = dict.fromkeys(
        (
            "serving.batches",
            "serving.mean_batch",
            "serving.queue_wait_p50_ms",
            "serving.queue_wait_p99_ms",
            "serving.verify_s",
            "serving.localize_s",
            "serving.score_s",
            "serving.server_p99_ms",
            "serving.rejected",
            "serving.generator_late_p99_ms",
            "serving.score_p99_ms",
            "serving.localize_p99_ms",
            "serving.score_peak_cps",
        ),
        0.0,
    )
    if serving is not None:
        open_loop = serving["phases"].values()
        waits = np.concatenate([p["queue_waits_ms"] for p in open_loop])
        late = np.concatenate([p["late_ms"] for p in open_loop])
        server = np.concatenate([p["server_ms"] for p in open_loop])
        serving_values.update(
            {
                "serving.batches": serving["stats"]["batches"],
                "serving.mean_batch": serving["stats"]["mean_batch"],
                "serving.queue_wait_p50_ms": phases.percentile(waits, 50),
                "serving.queue_wait_p99_ms": phases.percentile(waits, 99),
                "serving.verify_s": _total_s(summary, "serving.verify"),
                "serving.localize_s": _total_s(summary, "localization.localize"),
                "serving.score_s": _total_s(summary, "deployment.expected_obs")
                + _total_s(summary, "core.metric"),
                "serving.server_p99_ms": phases.percentile(server, 99),
                "serving.rejected": serving["stats"]["rejected"],
                "serving.generator_late_p99_ms": phases.percentile(late, 99),
                "serving.score_p99_ms": serving["phases"]["score"]["p99_ms"],
                "serving.localize_p99_ms": serving["phases"]["localize"]["p99_ms"],
                "serving.score_peak_cps": serving["phases"]["score"]["peak_cps"],
            }
        )
    values.update(serving_values)
    return values


def _unit(name: str) -> str:
    for suffix, unit in (
        ("_cps", "claims/s"),
        ("_ms", "ms"),
        ("_s", "s"),
        (".s", "s"),
        ("_ratio", "ratio"),
        ("_batch", "claims"),
        ("_written", "bytes"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(reports: list, overhead_s: float, serving) -> dict:
    """Per-layer metrics: counters from the first traced run, times as medians."""
    runs = [_one_trace(report, serving) for report in reports]
    metrics = {}
    for name, value in runs[0].items():
        unit = _unit(name)
        if unit in ("s", "ms"):
            value = _median(run[name] for run in runs)
        metrics[name] = _metric(value, unit)
    metrics["trace.overhead_s"] = _metric(overhead_s, "s")
    print("layer self time (s):")
    for layer, seconds in reports[0]["trace"]["layer_self_s"].items():
        print(f"  {layer:<13} {seconds:10.4f}")
    print(f"tracing overhead: {overhead_s:+.4f} s")
    return metrics


# -- entry point ----------------------------------------------------------------

WORKLOADS = {
    "fig4_roc": sweep_workload,
    "fig9_density": sweep_workload,
    "serve": serve_workload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=sorted(PLANS),
        default="full",
        help="'tiny' shrinks every input for the self-test",
    )
    args = parser.parse_args(argv)
    common.use_checkout_source()
    common.WORK.mkdir(exist_ok=True)
    run = Run(args, Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK)))
    try:
        metrics = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            common.WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not run.problems and run.failed == 0
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
