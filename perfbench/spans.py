"""Outside-in span tracer: times the ``repro`` layers by wrapping their
public functions from the benchmark's side, so nothing under ``src/``
changes.

:func:`install` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) and bumps counters, and
returns a :class:`Tracer`; :meth:`Tracer.uninstall` puts the originals
back.  Spans live in memory until the benchmark asks for
:meth:`Tracer.summary` or :meth:`Tracer.dump`.

A span's parent is the innermost open span *of the same thread*: the
serving runtime verifies batches on its executor thread, and each thread
keeps its own stack.  A span's self time is its duration minus the
durations of its child spans, which never overlap because they ran one
after another on the span's own thread.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: The layers the benchmark reports, in outside-in order of the call paths.
LAYERS = (
    "experiments",
    "serving",
    "core",
    "attacks",
    "localization",
    "network",
    "deployment",
)


def _rows(array) -> int:
    """Row count of a batch argument (a 1-D vector is one row)."""
    shape = getattr(array, "shape", None)
    if shape is None:
        return len(array)
    return 1 if len(shape) == 1 else int(shape[0])


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        self.queue_waits_ms: List[float] = []
        self._submitted: Dict[int, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, function: Callable, *args, **kwargs):
        index = self.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.end(index)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        # Save the raw attribute (a classmethod object, not the bound method)
        # so uninstall restores exactly what was there.
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def wrap_method(
        self,
        cls,
        attr: str,
        name: str,
        counter: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Trace ``cls.attr`` as span *name*; *counter* sees args and result."""
        original = getattr(cls, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                counter(self, args, result)
            return result

        self._patch(cls, attr, traced)

    def wrap_function(
        self,
        module,
        attr: str,
        name: Optional[str],
        counter: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Trace a module-level function everywhere it was imported by name.

        ``from module import f`` copies the reference into the importing
        module, so every loaded ``repro`` module holding the same object is
        patched too.  ``name=None`` counts calls without recording spans
        (for hot scalar helpers, where a span would cost more than the
        call).
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index)
            if counter is not None:
                counter(self, args, result)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- serving queue wait --------------------------------------------------

    def note_submit(self, claim) -> None:
        with self._lock:
            self._submitted[id(claim)] = time.perf_counter()

    def note_batch_start(self, claims) -> None:
        now = time.perf_counter()
        with self._lock:
            for claim in claims:
                submitted = self._submitted.pop(id(claim), None)
                if submitted is not None:
                    self.queue_waits_ms.append((now - submitted) * 1000.0)

    # -- reporting ---------------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return table

    def summary(self) -> dict:
        """Aggregated spans, per-layer self times and counters (JSON-able)."""
        names = self.by_name()
        layers = {layer: 0.0 for layer in LAYERS}
        for name, row in names.items():
            layer = name.split(".")[0]
            if layer in layers:
                layers[layer] += row["self_s"]
        return {
            "spans": names,
            "layer_self_s": layers,
            "counts": dict(self.counts),
            "queue_waits_ms": list(self.queue_waits_ms),
            "span_count": len(self.spans),
        }

    def dump(self, path) -> None:
        """Write the raw spans (name, start, end, parent) as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                handle,
            )


# -- the layer table -----------------------------------------------------------


def _count_rows(key: str, arg: int = 1):
    def counter(tracer: Tracer, args: tuple, result) -> None:
        tracer.count(key, _rows(args[arg]))

    return counter


def _count_store_save(tracer: Tracer, args: tuple, path) -> None:
    tracer.count("experiments.store_saves")
    tracer.count("experiments.store_bytes_written", path.stat().st_size)


def _count_store_load(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("experiments.store_loads")
    tracer.count(
        "experiments.store_hits" if result is not None else "experiments.store_misses"
    )


def _count_store_probe(tracer: Tracer, args: tuple, present) -> None:
    tracer.count(
        "experiments.store_hits" if present else "experiments.store_misses"
    )


def _count_sweep_points(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("experiments.points", len(result))


def _count_training(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("core.training_samples", result.num_samples)


def _count_call(key: str):
    def counter(tracer: Tracer, args: tuple, result) -> None:
        tracer.count(key)

    return counter


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Wrap every traced ``repro`` entry point; returns the recording tracer.

    ``repro`` must already be importable; every module named here is
    imported first so that by-name references are patched everywhere.
    """
    import repro.core.training as training
    import repro.utils.stats as stats
    from repro.attacks.greedy import GreedyMetricMinimizer
    from repro.attacks.localization_attacks import DisplacementAttack
    from repro.core.metrics import AddAllMetric, DiffMetric, ProbabilityMetric
    from repro.deployment.gz import GzTable
    from repro.deployment.knowledge import DeploymentKnowledge
    from repro.experiments.figures import FIGURE_RENDERERS  # noqa: F401
    from repro.experiments.store import ArtifactStore
    from repro.experiments.sweep import SweepRunner
    from repro.localization.beaconless import BeaconlessLocalizer
    from repro.network.generator import NetworkGenerator
    from repro.network.neighbors import NeighborIndex
    from repro.serving.runtime import ServiceRuntime
    from repro.serving.service import DetectionService

    tracer = tracer or Tracer()
    wrap = tracer.wrap_method

    # deployment
    wrap(
        GzTable, "__init__", "deployment.gz_build", _count_call("deployment.gz_builds")
    )
    wrap(DeploymentKnowledge, "__init__", "deployment.knowledge")
    for attr in ("log_likelihood", "log_likelihood_batch", "log_likelihood_segmented"):
        wrap(
            DeploymentKnowledge,
            attr,
            "deployment.loglik",
            _count_call("deployment.loglik_calls"),
        )
    wrap(DeploymentKnowledge, "expected_observation", "deployment.expected_obs")
    # network
    wrap(
        NetworkGenerator,
        "generate",
        "network.generate",
        _count_call("network.deployments"),
    )
    wrap(
        NeighborIndex, "__init__", "network.index", _count_call("network.index_builds")
    )
    wrap(NeighborIndex, "observations_of_nodes", "network.observations")
    # localization
    wrap(
        BeaconlessLocalizer,
        "localize_observations",
        "localization.localize",
        _count_rows("localization.rows", arg=2),
    )
    # core
    tracer.wrap_function(
        training, "collect_training_data", "core.training", _count_training
    )
    for metric in (DiffMetric, AddAllMetric, ProbabilityMetric):
        wrap(metric, "compute", "core.metric", _count_rows("core.metric_rows"))
    # attacks
    wrap(
        GreedyMetricMinimizer,
        "taint_batch",
        "attacks.taint",
        _count_rows("attacks.taint_rows"),
    )
    wrap(DisplacementAttack, "spoof_locations", "attacks.spoof")
    tracer.wrap_function(
        stats, "binomial_log_pmf", None, _count_call("attacks.pmf_calls")
    )
    # experiments
    wrap(SweepRunner, "rocs", "experiments.sweep", _count_sweep_points)
    wrap(SweepRunner, "detection_rates", "experiments.sweep", _count_sweep_points)
    wrap(ArtifactStore, "save", "experiments.store_save", _count_store_save)
    wrap(ArtifactStore, "load", "experiments.store_load", _count_store_load)
    wrap(ArtifactStore, "probe", "experiments.store_probe", _count_store_probe)
    # serving
    original_verify = DetectionService.verify_batch

    def verify_batch(service, claims):
        tracer.note_batch_start(claims)
        return tracer.span("serving.verify", original_verify, service, claims)

    tracer._patch(DetectionService, "verify_batch", verify_batch)
    original_submit = ServiceRuntime.submit

    async def submit(runtime, claim):
        tracer.note_submit(claim)
        return await original_submit(runtime, claim)

    tracer._patch(ServiceRuntime, "submit", submit)
    # ``from_session`` is a classmethod: wrap the bound function, re-bind.
    original_from_session = DetectionService.from_session.__func__

    def from_session(cls, *args, **kwargs):
        return tracer.span(
            "serving.from_session", original_from_session, cls, *args, **kwargs
        )

    tracer._patch(DetectionService, "from_session", classmethod(from_session))
    return tracer
