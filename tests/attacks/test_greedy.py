"""Tests for :mod:`repro.attacks.greedy` (the metric-minimising adversary)."""

import numpy as np
import pytest

from repro.attacks.constraints import DecBoundedAttack, DecOnlyAttack
from repro.attacks.greedy import GreedyMetricMinimizer, taint_observation
from repro.core.metrics import AddAllMetric, DiffMetric, ProbabilityMetric
from repro.utils.stats import binomial_log_pmf, binomial_mode

GROUP_SIZE = 30


@pytest.fixture()
def scenario():
    """An honest observation and the expected observation at a spoofed spot."""
    honest = np.array([12.0, 8.0, 0.0, 1.0, 20.0, 3.0])
    expected = np.array([2.0, 8.0, 9.0, 4.0, 5.0, 0.0])
    return honest, expected


class TestDiffMetricAdversary:
    def test_paper_procedure_dec_bounded(self, scenario):
        """Section 7.1: raise entries with µ > a to µ for free; spend the
        budget decreasing entries with a > µ toward µ."""
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        tainted = adversary.taint(honest, expected, 10, group_size=GROUP_SIZE)
        # Entries where expected > honest were raised exactly to expected.
        raised = expected > honest
        np.testing.assert_allclose(tainted[raised], expected[raised])
        # Total decrease respects the budget.
        assert np.clip(honest - tainted, 0, None).sum() <= 10 + 1e-9
        assert DecBoundedAttack().is_feasible(
            honest, tainted, 10, group_size=GROUP_SIZE
        )

    def test_unlimited_budget_reaches_zero_metric(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        tainted = adversary.taint(honest, expected, 1000, group_size=GROUP_SIZE)
        assert DiffMetric().compute(tainted, expected) == pytest.approx(0.0)

    def test_zero_budget_only_increases(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        tainted = adversary.taint(honest, expected, 0, group_size=GROUP_SIZE)
        assert np.all(tainted >= np.minimum(honest, expected) - 1e-12)
        # Residual metric equals the total deficit that could not be erased.
        deficit = np.clip(honest - expected, 0, None).sum()
        assert DiffMetric().compute(tainted, expected) == pytest.approx(deficit)

    def test_metric_monotone_in_budget(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        values = []
        for budget in range(0, 40, 5):
            tainted = adversary.taint(honest, expected, budget, group_size=GROUP_SIZE)
            values.append(DiffMetric().compute(tainted, expected))
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_dec_only_cannot_increase(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_only")
        tainted = adversary.taint(honest, expected, 10, group_size=GROUP_SIZE)
        assert np.all(tainted <= honest + 1e-12)
        assert DecOnlyAttack().is_feasible(honest, tainted, 10)

    def test_dec_bounded_at_least_as_strong_as_dec_only(self, scenario):
        honest, expected = scenario
        for budget in (0, 5, 15, 50):
            bounded = GreedyMetricMinimizer("diff", "dec_bounded").taint(
                honest, expected, budget, group_size=GROUP_SIZE
            )
            only = GreedyMetricMinimizer("diff", "dec_only").taint(
                honest, expected, budget, group_size=GROUP_SIZE
            )
            metric = DiffMetric()
            assert metric.compute(
                bounded,
                expected,
            ) <= metric.compute(only, expected) + 1e-9

    def test_optimality_against_random_feasible_attacks(self, scenario):
        """No random feasible Dec-Bounded manipulation should beat the greedy
        adversary (for the Diff metric the greedy solution is optimal)."""
        honest, expected = scenario
        budget = 8
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        greedy_score = DiffMetric().compute(
            adversary.taint(honest, expected, budget, group_size=GROUP_SIZE), expected
        )
        rng = np.random.default_rng(0)
        constraint = DecBoundedAttack()
        for _ in range(200):
            # Random feasible taint: random increases, random decreases <= budget.
            increases = rng.uniform(
                0,
                10,
                size=honest.size,
            ) * rng.integers(0, 2, size=honest.size)
            decrease_total = rng.uniform(0, budget)
            weights = rng.dirichlet(np.ones(honest.size))
            decreases = np.minimum(weights * decrease_total, honest)
            candidate = honest + increases - decreases
            assert constraint.is_feasible(honest, candidate, budget)
            assert DiffMetric().compute(candidate, expected) >= greedy_score - 1e-9


class TestAddAllAdversary:
    def test_never_increases(self, scenario):
        honest, expected = scenario
        for attack in ("dec_bounded", "dec_only"):
            tainted = GreedyMetricMinimizer("add_all", attack).taint(
                honest, expected, 10, group_size=GROUP_SIZE
            )
            assert np.all(tainted <= honest + 1e-12)

    def test_budget_respected_and_metric_reduced(self, scenario):
        honest, expected = scenario
        metric = AddAllMetric()
        tainted = GreedyMetricMinimizer("add_all", "dec_bounded").taint(
            honest, expected, 10, group_size=GROUP_SIZE
        )
        assert np.clip(honest - tainted, 0, None).sum() <= 10 + 1e-9
        assert metric.compute(tainted, expected) <= metric.compute(honest, expected)

    def test_lower_bound_is_sum_of_expected(self, scenario):
        honest, expected = scenario
        tainted = GreedyMetricMinimizer("add_all", "dec_bounded").taint(
            honest, expected, 10_000, group_size=GROUP_SIZE
        )
        assert AddAllMetric().compute(tainted, expected) == pytest.approx(
            expected.sum()
        )


class TestProbabilityAdversary:
    def test_budget_and_feasibility(self, scenario):
        honest, expected = scenario
        tainted = GreedyMetricMinimizer("probability", "dec_bounded").taint(
            honest, expected, 6, group_size=GROUP_SIZE
        )
        assert DecBoundedAttack().is_feasible(honest, tainted, 6, group_size=GROUP_SIZE)

    def test_metric_improves(self, scenario):
        honest, expected = scenario
        metric = ProbabilityMetric()
        before = metric.compute(honest, expected, group_size=GROUP_SIZE)
        tainted = GreedyMetricMinimizer("probability", "dec_bounded").taint(
            honest, expected, 20, group_size=GROUP_SIZE
        )
        after = metric.compute(tainted, expected, group_size=GROUP_SIZE)
        assert after <= before + 1e-9

    def test_dec_only_never_increases(self, scenario):
        honest, expected = scenario
        tainted = GreedyMetricMinimizer("probability", "dec_only").taint(
            honest, expected, 20, group_size=GROUP_SIZE
        )
        assert np.all(tainted <= honest + 1e-12)

    def test_requires_group_size(self, scenario):
        honest, expected = scenario
        with pytest.raises(ValueError):
            GreedyMetricMinimizer("probability", "dec_bounded").taint(
                honest, expected, 5
            )

    def test_metric_monotone_in_budget(self, scenario):
        honest, expected = scenario
        metric = ProbabilityMetric()
        adversary = GreedyMetricMinimizer("probability", "dec_bounded")
        values = [
            metric.compute(
                adversary.taint(honest, expected, budget, group_size=GROUP_SIZE),
                expected,
                group_size=GROUP_SIZE,
            )
            for budget in (0, 5, 10, 20, 40)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


class TestIntegerModeAndBatch:
    def test_integer_mode_produces_whole_counts(self, scenario):
        honest, expected = scenario
        tainted = GreedyMetricMinimizer("diff", "dec_bounded", integer_mode=True).taint(
            honest, expected, 7, group_size=GROUP_SIZE
        )
        np.testing.assert_allclose(tainted, np.round(tainted))
        assert np.clip(honest - tainted, 0, None).sum() <= 7 + 1e-9

    def test_batch_matches_scalar(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        batch = adversary.taint_batch(
            np.vstack([honest, honest]),
            np.vstack([expected, expected]),
            [5, 15],
            group_size=GROUP_SIZE,
        )
        np.testing.assert_allclose(
            batch[0], adversary.taint(honest, expected, 5, group_size=GROUP_SIZE)
        )
        np.testing.assert_allclose(
            batch[1], adversary.taint(honest, expected, 15, group_size=GROUP_SIZE)
        )

    def test_batch_shape_validation(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        with pytest.raises(ValueError):
            adversary.taint_batch(honest, expected, [5])
        with pytest.raises(ValueError):
            adversary.taint_batch(
                np.vstack([honest, honest]), np.vstack([expected, expected]), [5]
            )

    @pytest.mark.parametrize("metric", ["diff", "add_all"])
    @pytest.mark.parametrize("attack", ["dec_bounded", "dec_only"])
    @pytest.mark.parametrize("integer_mode", [False, True])
    def test_vectorised_batch_equals_loop_bitwise(self, metric, attack, integer_mode):
        """The 2-D allocation over all victims at once must reproduce the
        per-row :meth:`taint` loop bit for bit (not just approximately)."""
        rng = np.random.default_rng(20050404)
        k, n = 64, 25
        honest = np.round(rng.uniform(0.0, 30.0, size=(k, n)))
        expected = rng.uniform(0.0, 30.0, size=(k, n))
        # Include duplicate gaps (ties in the sort), zero budgets and
        # budgets large enough to close every gap.
        budgets = [int(b) for b in rng.integers(0, 120, size=k)]
        budgets[0] = 0
        honest[1] = honest[2]
        expected[1] = expected[2]
        budgets[1] = budgets[2]
        adversary = GreedyMetricMinimizer(metric, attack, integer_mode=integer_mode)
        batch = adversary.taint_batch(honest, expected, budgets, group_size=GROUP_SIZE)
        loop = np.vstack(
            [
                adversary.taint(
                    honest[i], expected[i], budgets[i], group_size=GROUP_SIZE
                )
                for i in range(k)
            ]
        )
        np.testing.assert_array_equal(batch, loop)

    def test_functional_wrapper(self, scenario):
        honest, expected = scenario
        out = taint_observation(
            honest, expected, 5, metric="diff", attack_class="dec_only",
            group_size=GROUP_SIZE,
        )
        assert DecOnlyAttack().is_feasible(honest, out, 5)

    def test_shape_mismatch_rejected(self, scenario):
        honest, expected = scenario
        adversary = GreedyMetricMinimizer("diff", "dec_bounded")
        with pytest.raises(ValueError):
            adversary.taint(honest, expected[:-1], 5)


def _naive_probability_taint(a, mu, x, group_size, allows_increase):
    """Scalar reference for one victim: one node per step, full re-score.

    Each step re-scores every group and lowers the eligible group (above
    its mode and above zero) with the smallest log-pmf; the stable sort
    breaks ties toward the lowest index.
    """
    m = float(group_size)
    probs = np.clip(mu / m, 0.0, 1.0)
    modes = binomial_mode(m, probs)
    o = a.astype(np.float64).copy()
    if allows_increase:
        o = np.where(modes > o, modes, o)
    remaining = float(x)
    while remaining > 0:
        log_pmf = binomial_log_pmf(o, m, probs)
        for idx in np.argsort(log_pmf, kind="stable"):
            if o[idx] > modes[idx] and o[idx] > 0:
                step = min(1.0, o[idx] - modes[idx], remaining)
                o[idx] -= step
                remaining -= step
                break
        else:
            break
    return o


def _probability_case(case):
    """``(honest, expected, budgets)`` for one batch shape of the greedy."""
    rng = np.random.default_rng(20050404)
    k, n = 48, 16
    honest = np.round(rng.uniform(0.0, GROUP_SIZE, size=(k, n)))
    expected = rng.uniform(0.0, GROUP_SIZE, size=(k, n))
    budgets = [int(b) for b in rng.integers(0, 40, size=k)]
    if case == "real_valued":
        honest = rng.uniform(0.0, GROUP_SIZE, size=(k, n))
    elif case == "duplicated_columns":
        # Equal (o, µ) columns tie on log-pmf in every step.
        honest[:, 1::2] = honest[:, ::2]
        expected[:, 1::2] = expected[:, ::2]
    elif case == "zero_budgets":
        budgets = [0] * k
    elif case == "budget_over_slack":
        budgets = [10 * n * GROUP_SIZE] * k
    elif case == "no_eligible_group":
        # Every honest count already sits at or below its mode.
        modes = binomial_mode(float(GROUP_SIZE), expected / GROUP_SIZE)
        honest = np.minimum(honest, modes)
    elif case == "degenerate_probabilities":
        # µ = 0 (p = 0) and µ = m (p = 1) groups: log-pmf is -inf off their
        # single support point.
        expected[:, :4] = 0.0
        expected[:, 4:8] = float(GROUP_SIZE)
    return honest, expected, budgets


class TestProbabilityBatchKernel:
    @pytest.mark.parametrize(
        "case",
        [
            "random",
            "real_valued",
            "duplicated_columns",
            "zero_budgets",
            "budget_over_slack",
            "no_eligible_group",
            "degenerate_probabilities",
        ],
    )
    @pytest.mark.parametrize("attack", ["dec_bounded", "dec_only"])
    @pytest.mark.parametrize("integer_mode", [False, True])
    def test_batch_equals_naive_oracle_bitwise(self, case, attack, integer_mode):
        """The lock-step batch greedy reproduces the scalar per-victim
        greedy bit for bit, ties included."""
        honest, expected, budgets = _probability_case(case)
        adversary = GreedyMetricMinimizer(
            "probability", attack, integer_mode=integer_mode
        )
        batch = adversary.taint_batch(
            honest, expected, budgets, group_size=GROUP_SIZE
        )
        oracle = np.vstack(
            [
                _naive_probability_taint(
                    honest[i],
                    expected[i],
                    budgets[i],
                    GROUP_SIZE,
                    adversary.attack_class.allows_increase,
                )
                for i in range(len(budgets))
            ]
        )
        if integer_mode:
            oracle = np.vstack(
                [
                    GreedyMetricMinimizer._round_feasible(
                        honest[i], oracle[i], float(budgets[i])
                    )
                    for i in range(len(budgets))
                ]
            )
        np.testing.assert_array_equal(batch, oracle)

    def test_known_answer_tie_and_fractional_last_step(self):
        """Three groups, m = 10, budget 3, hand-computed.

        Group 2 (µ = 0, so p = 0 and mode 0) has log-pmf -inf at 0.5 and
        goes first: 0.5 -> 0 spends 0.5.  Groups 0 and 1 (µ = 2, p = 0.2,
        mode ⌊11·0.2⌋ = 2) tie at 4; the lower index moves: 4 -> 3.  Group 1
        is now the least likely (pmf(4) < pmf(3)): 4 -> 3.  They tie again
        at 3; group 0 gets the remaining 0.5: 3 -> 2.5.
        """
        honest = np.array([4.0, 4.0, 0.5])
        expected = np.array([2.0, 2.0, 0.0])
        probs = expected / 10.0
        log_pmf = binomial_log_pmf(np.array([4.0, 3.0, 0.5]), 10.0, probs)
        assert log_pmf[2] == -np.inf and log_pmf[0] < log_pmf[1]
        for attack in ("dec_bounded", "dec_only"):
            tainted = GreedyMetricMinimizer("probability", attack).taint(
                honest, expected, 3, group_size=10
            )
            np.testing.assert_array_equal(tainted, [2.5, 3.0, 0.0])

    def test_empty_batch_still_requires_group_size(self):
        adversary = GreedyMetricMinimizer("probability", "dec_bounded")
        with pytest.raises(ValueError, match="group_size"):
            adversary.taint_batch(np.empty((0, 5)), np.empty((0, 5)), [])
        assert adversary.taint_batch(
            np.empty((0, 5)), np.empty((0, 5)), [], group_size=GROUP_SIZE
        ).shape == (0, 5)
