"""Ablation benchmark — greedy metric-minimising adversary vs naive adversaries.

The paper's evaluation always uses the greedy adversary (the worst case for
the defender).  This ablation quantifies how much that choice matters: the
same D-anomaly attack is scored when the compromised neighbours are used
(a) not at all, (b) by the naive silence attack, and (c) by the greedy
Diff-minimising procedure.  The detection rate should drop monotonically
from (a) to (c) — i.e. the greedy adversary is genuinely the hardest to
catch, which justifies evaluating LAD against it.

The file also tracks the speedup of the vectorised
:meth:`GreedyMetricMinimizer.taint_batch` (the 2-D decrease-allocation over
all victims at once) against the per-row :meth:`taint` loop, asserting the
outputs stay bit-identical.
"""

import time

import numpy as np

from benchmarks.bench_records import record_benchmark
from benchmarks.conftest import bench_config
from repro.attacks.base import AttackBudget
from repro.attacks.greedy import GreedyMetricMinimizer
from repro.attacks.localization_attacks import DisplacementAttack
from repro.attacks.primitives import SilenceAttack
from repro.core.evaluation import detection_rate_at_false_positive
from repro.core.metrics import DiffMetric
from repro.experiments.session import LadSession

DEGREE = 80.0
FRACTION = 0.20
FALSE_POSITIVE = 0.01


def _detection_rates(simulation: LadSession) -> dict:
    knowledge = simulation.knowledge
    benign = simulation.benign_scores("diff")
    sample = simulation.victims()
    rng = np.random.default_rng(777)

    spoofed = DisplacementAttack(DEGREE).spoof_locations(
        sample.actual_locations, rng, region=knowledge.region
    )
    expected = knowledge.expected_observation(spoofed)
    metric = DiffMetric()
    budgets = [
        AttackBudget.from_fraction(int(round(o.sum())), FRACTION)
        for o in sample.observations
    ]

    # (a) compromised nodes unused: observation stays honest.
    scores_none = metric.compute(sample.observations, expected, knowledge.group_size)

    # (b) naive silence attack: random whole-node silences.
    silence = SilenceAttack()
    silenced = np.vstack(
        [
            silence.apply(obs, budget, rng=rng)
            for obs, budget in zip(sample.observations, budgets)
        ]
    )
    scores_silence = metric.compute(silenced, expected, knowledge.group_size)

    # (c) greedy Diff-minimising adversary (the paper's procedure).
    greedy = GreedyMetricMinimizer("diff", "dec_bounded")
    tainted = greedy.taint_batch(
        sample.observations, expected, budgets, group_size=knowledge.group_size
    )
    scores_greedy = metric.compute(tainted, expected, knowledge.group_size)

    return {
        "no adversary on detection": detection_rate_at_false_positive(
            benign, scores_none, FALSE_POSITIVE
        )[0],
        "naive silence attack": detection_rate_at_false_positive(
            benign, scores_silence, FALSE_POSITIVE
        )[0],
        "greedy Diff-minimising": detection_rate_at_false_positive(
            benign, scores_greedy, FALSE_POSITIVE
        )[0],
    }


def test_adversary_strength_ablation(benchmark):
    simulation = LadSession(bench_config())
    rates = benchmark.pedantic(
        lambda: _detection_rates(simulation),
        rounds=1,
        iterations=1,
    )

    print()
    print("-- Adversary-strength ablation (D=80, x=20%, FP=1%) --")
    for label, rate in rates.items():
        print(f"  {label:<28} DR = {rate:.3f}")

    assert rates["greedy Diff-minimising"] <= rates["naive silence attack"] + 0.05
    assert rates["naive silence attack"] <= rates["no adversary on detection"] + 0.05


def _best_time(fn, repeats):
    """Best wall time of *repeats* calls of *fn* and the last result."""
    best, result = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _loop_vs_batch(name, adversary, honest, expected, budgets, group_size):
    """Time the per-row :meth:`taint` loop against one :meth:`taint_batch`,
    assert bit-identical outputs and record the speedup."""
    num_victims, n_groups = honest.shape

    def per_row_loop():
        return np.vstack(
            [
                adversary.taint(
                    honest[i], expected[i], budgets[i], group_size=group_size
                )
                for i in range(num_victims)
            ]
        )

    def batched():
        return adversary.taint_batch(
            honest, expected, budgets, group_size=group_size
        )

    # Warm both paths before timing.
    batched()
    per_row_loop()

    loop_best, loop_result = _best_time(per_row_loop, 3)
    batch_best, batch_result = _best_time(batched, 5)

    np.testing.assert_array_equal(batch_result, loop_result)
    speedup = loop_best / batch_best
    record_benchmark(
        name,
        speedup=speedup,
        loop_seconds=loop_best,
        batch_seconds=batch_best,
        victims=num_victims,
        n_groups=n_groups,
    )
    print(
        f"\n{name}: loop {loop_best * 1000:.1f} ms, "
        f"batch {batch_best * 1000:.1f} ms, speedup {speedup:.1f}x "
        f"({num_victims} victims)"
    )
    return speedup


def test_taint_batch_vectorised_speedup():
    """Vectorised taint_batch at 512 victims: bit-identical, >= 5x."""
    rng = np.random.default_rng(20050404)
    num_victims, n_groups = 512, 100
    group_size = 40
    honest = np.round(rng.uniform(0.0, group_size, size=(num_victims, n_groups)))
    expected = rng.uniform(0.0, group_size, size=(num_victims, n_groups))
    budgets = [int(b) for b in rng.integers(0, 2 * group_size, size=num_victims)]
    adversary = GreedyMetricMinimizer("diff", "dec_bounded")
    speedup = _loop_vs_batch(
        "taint_batch_vectorised", adversary, honest, expected, budgets, group_size
    )
    assert speedup >= 5.0


def test_taint_batch_probability_speedup():
    """Lock-step Probability greedy at 100 victims x 100 groups:
    bit-identical to the per-row loop, >= 5x."""
    rng = np.random.default_rng(20050405)
    num_victims, n_groups = 100, 100
    group_size = 40
    honest = np.round(rng.uniform(0.0, group_size, size=(num_victims, n_groups)))
    expected = rng.uniform(0.0, group_size, size=(num_victims, n_groups))
    budgets = [int(b) for b in rng.integers(0, group_size, size=num_victims)]
    adversary = GreedyMetricMinimizer("probability", "dec_bounded")
    speedup = _loop_vs_batch(
        "taint_batch_probability", adversary, honest, expected, budgets, group_size
    )
    assert speedup >= 5.0
