"""The one process fan-out: :func:`repro.experiments.sweep.run_tasks`.

Every process pool of the package goes through ``run_tasks`` — the sweep
runner, the temporal runner and the per-session figure engine behind
Figures 9, L and M — so its fallback policy is tested here once at the
helper level and once per site: a pool that cannot start (or dies) emits
exactly one ``RuntimeWarning`` and the result equals the serial run.
"""

import warnings
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import pytest

from repro.events import EventSpec, TimelineSpec
from repro.experiments import sweep as sweep_module
from repro.experiments.config import SimulationConfig
from repro.experiments.figures import fig9, figl, figm
from repro.experiments.session import LadSession
from repro.experiments.sweep import SweepRunner, run_tasks


class _DiesAfterFirstResult:
    """Stand-in pool: ``map`` yields one result in-process, then breaks."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks):
        yield fn(tasks[0])
        raise BrokenProcessPool("a worker process died")


def _no_pool(*args, **kwargs):
    raise OSError("no process support on this platform")


def _runtime_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestRunTasks:
    def test_serial_loop_never_builds_a_pool(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", _no_pool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for workers in (0, 1):
                assert list(run_tasks(str, [1, 2, 3], workers)) == ["1", "2", "3"]

    def test_pool_death_finishes_the_rest_serially_once_each(self, monkeypatch):
        calls = []

        def record(task):
            calls.append(task)
            return task * 10

        monkeypatch.setattr(
            sweep_module, "ProcessPoolExecutor", _DiesAfterFirstResult
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = list(run_tasks(record, [1, 2, 3, 4], workers=2))
        assert results == [10, 20, 30, 40]
        # The pool computed task 1; the serial loop picked up 2..4 in
        # order; nothing already yielded was recomputed.
        assert calls == [1, 2, 3, 4]
        assert len(_runtime_warnings(caught)) == 1

    def test_worker_setup_failure_falls_back_before_any_pool(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", _no_pool)

        @contextmanager
        def broken_setup():
            raise OSError("shared memory unavailable")
            yield  # pragma: no cover

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = list(
                run_tasks(str, [1, 2], workers=2, worker_setup=broken_setup)
            )
        assert results == ["1", "2"]
        assert len(_runtime_warnings(caught)) == 1

    def test_worker_setup_is_held_for_the_pool_and_released(self, monkeypatch):
        events = []

        @contextmanager
        def setup():
            events.append("enter")
            try:
                yield None, ()
            finally:
                events.append("exit")

        monkeypatch.setattr(
            sweep_module, "ProcessPoolExecutor", _DiesAfterFirstResult
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = list(
                run_tasks(
                    str, [1, 2], workers=2, worker_fn=repr, worker_setup=setup
                )
            )
        # worker_fn ran in the "pool" for the first task, fn for the rest.
        assert results == ["1", "2"]
        assert events == ["enter", "exit"]


TINY_CONFIG = SimulationConfig(
    group_size=40,
    num_training_samples=30,
    training_samples_per_network=15,
    num_victims=30,
    victims_per_network=15,
    gz_omega=300,
    seed=777,
)

POINTS = SweepRunner.grid(["diff"], ["dec_bounded"], [80.0, 160.0], [0.1])

TIMELINE = TimelineSpec(
    epochs=4,
    events=(EventSpec(kind="attack", action="on", at=(2.0,)),),
)


def _sweep(workers):
    scores = LadSession(TINY_CONFIG).sweep(workers=workers).attacked_scores(POINTS)
    return {point: values.tolist() for point, values in scores.items()}


def _temporal(workers):
    runner = LadSession(TINY_CONFIG).temporal(TIMELINE, workers=workers)
    return runner.outcomes(POINTS, false_positive_rate=0.05)


def _fig9(workers):
    return fig9.run(
        config=TINY_CONFIG,
        group_sizes=(40, 60),
        degrees=(160.0,),
        fractions=(0.1,),
        workers=workers,
    ).as_dict()


def _figl(workers):
    return figl.run(
        config=TINY_CONFIG,
        localizers=("beaconless", "centroid"),
        degrees=(160.0,),
        fractions=(0.1,),
        workers=workers,
    ).as_dict()


def _figm(workers):
    return figm.run(
        config=TINY_CONFIG,
        localizers=("dvhop", "rssi"),
        attacks=("dec_bounded", "rssi_amp"),
        degrees=(120.0,),
        fractions=(0.1,),
        workers=workers,
    ).as_dict()


@pytest.mark.parametrize(
    "site",
    [_sweep, _temporal, _fig9, _figl, _figm],
    ids=["sweep", "temporal", "fig9", "figl", "figm"],
)
def test_broken_pool_warns_once_and_matches_serial(site, monkeypatch):
    serial = site(0)
    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", _no_pool)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = site(2)
    assert len(_runtime_warnings(caught)) == 1
    assert fallback == serial

