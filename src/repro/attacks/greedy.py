"""The greedy metric-minimising adversary (paper Section 7.1).

After displacing the victim's estimated location, the adversary taints the
victim's observation so that the chosen detection metric becomes as small as
possible, subject to the constraints of the attack class (Dec-Bounded or
Dec-Only).  The paper sketches the procedure for the Diff metric under
Dec-Bounded attacks; this module implements the analogous optimal/greedy
procedure for every (attack class x metric) combination:

* **Diff metric** — entries with ``µ_i > a_i`` are raised to ``µ_i`` for free
  (Dec-Bounded only); entries with ``a_i > µ_i`` are lowered toward ``µ_i``
  using the shared decrease budget.  Every unit of decrease reduces the
  metric by exactly one, so the allocation order does not affect the final
  metric value; the implementation spends the budget on the largest
  discrepancies first (deterministic and what a rational adversary would do
  if interrupted).
* **Add-all metric** — raising an entry can never lower ``Σ max(o_i, µ_i)``,
  so both attack classes reduce to the same decrease-allocation problem as
  the Diff metric's second stage.
* **Probability metric** — each per-group binomial pmf is unimodal in
  ``o_i`` with mode ``⌊(m+1)·g_i⌋``; the adversary pushes every entry toward
  its mode (free increases under Dec-Bounded) and then spends the decrease
  budget one node at a time on whichever group currently has the smallest
  probability (the lowest index on ties), stopping when the minimum can no
  longer be improved.  All victims of a batch take these steps in
  lock-step, so each step is one row-wise argmin.

The tainted observations are real-valued by default (the paper's greedy sets
``o_i = µ_i`` exactly); ``integer_mode=True`` restricts the adversary to
whole-node manipulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.attacks.base import AttackBudget
from repro.attacks.constraints import AttackClass, resolve_attack_class
from repro.core.metrics import (
    AddAllMetric,
    AnomalyMetric,
    DiffMetric,
    ProbabilityMetric,
    resolve_metric,
)
from repro.utils.stats import binomial_log_pmf, binomial_mode

__all__ = ["GreedyMetricMinimizer", "taint_observation"]


def _allocate_decreases(o: np.ndarray, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lower each row of *o* toward *t* spending at most that row's budget *b*.

    Entries where ``o <= t`` are untouched.  The budget is spent on the
    largest gaps first; the final entry touched may receive a fractional
    decrease so that the full budget is used exactly when it is binding.

    Vectorised over victims: *o*/*t* are ``(k, n)`` batches and *b* holds
    one budget per row.  Every operation is row-wise (stable descending
    sort, exclusive prefix sums, clipped spends), so each row's result is
    independent of the others.
    """
    b = b.reshape(-1, 1)
    gaps = np.clip(o - t, 0.0, None)
    totals = gaps.sum(axis=1, keepdims=True)

    # Rows with enough budget close every gap completely (exactly to the
    # target); rows without any budget stay honest.
    out = np.where((totals <= b) & (gaps > 0), t, o)

    binding = ((totals > b) & (b > 0)).ravel()
    if np.any(binding):
        gaps_b = gaps[binding]
        order = np.argsort(-gaps_b, axis=1, kind="stable")
        sorted_gaps = np.take_along_axis(gaps_b, order, axis=1)
        # Exclusive prefix sum: budget remaining before each rank is spent.
        spent_before = np.concatenate(
            [
                np.zeros((sorted_gaps.shape[0], 1)),
                np.cumsum(sorted_gaps, axis=1)[:, :-1],
            ],
            axis=1,
        )
        remaining = b[binding] - spent_before
        spends_sorted = np.clip(np.minimum(sorted_gaps, remaining), 0.0, None)
        spends = np.empty_like(spends_sorted)
        np.put_along_axis(spends, order, spends_sorted, axis=1)
        out[binding] = o[binding] - spends
    return out


@dataclass
class GreedyMetricMinimizer:
    """Adversary that taints an observation to minimise a detection metric.

    Parameters
    ----------
    metric:
        The detection metric the adversary is trying to evade (name or
        instance).
    attack_class:
        ``"dec_bounded"`` or ``"dec_only"`` (name or instance).
    integer_mode:
        Restrict manipulations to whole nodes.  Default ``False`` (the paper
        lets the adversary hit ``µ_i`` exactly).
    """

    metric: Union[str, AnomalyMetric] = "diff"
    attack_class: Union[str, AttackClass] = "dec_bounded"
    integer_mode: bool = False

    def __post_init__(self) -> None:
        self.metric = resolve_metric(self.metric)
        self.attack_class = resolve_attack_class(self.attack_class)

    # -- public API ----------------------------------------------------------

    def taint(
        self,
        honest_observation: np.ndarray,
        expected_observation: np.ndarray,
        budget: Union[AttackBudget, int],
        *,
        group_size: Optional[int] = None,
    ) -> np.ndarray:
        """Return the metric-minimising tainted observation for one victim.

        Runs :meth:`taint_batch` on a batch of one row.

        Parameters
        ----------
        honest_observation:
            The victim's untainted observation ``a``.
        expected_observation:
            The expected observation ``µ`` at the (spoofed) estimated
            location.
        budget:
            Number of compromised nodes in the victim's neighbourhood.
        group_size:
            Sensors per group ``m``; required by the Probability metric and
            used as the physical upper bound on any count.
        """
        a = np.asarray(honest_observation, dtype=np.float64)
        mu = np.asarray(expected_observation, dtype=np.float64)
        if a.shape != mu.shape or a.ndim != 1:
            raise ValueError("observations must be matching 1-D vectors")
        return self.taint_batch(
            a[np.newaxis], mu[np.newaxis], [budget], group_size=group_size
        )[0]

    def taint_batch(
        self,
        honest_observations: np.ndarray,
        expected_observations: np.ndarray,
        budgets: Sequence[Union[AttackBudget, int]],
        *,
        group_size: Optional[int] = None,
    ) -> np.ndarray:
        """Taint a whole ``(k, n_groups)`` batch of victims at once.

        Every metric runs one shape-generic kernel over all victims with
        per-row budgets: a 2-D :func:`_allocate_decreases` for Diff and
        Add-all, and the lock-step greedy of :meth:`_taint_probability` for
        the Probability metric.  Each row's result depends on that row only,
        so the batch is bit-for-bit the stack of one-row :meth:`taint` calls.
        """
        honest = np.asarray(honest_observations, dtype=np.float64)
        expected = np.asarray(expected_observations, dtype=np.float64)
        if honest.ndim != 2 or honest.shape != expected.shape:
            raise ValueError("batch inputs must be matching (k, n_groups) arrays")
        if len(budgets) != honest.shape[0]:
            raise ValueError("need one budget per victim")
        x = np.array([float(int(b)) for b in budgets], dtype=np.float64)

        if isinstance(self.metric, DiffMetric):
            tainted = self._taint_diff(honest, expected, x, group_size)
        elif isinstance(self.metric, AddAllMetric):
            tainted = self._taint_add_all(honest, expected, x)
        elif isinstance(self.metric, ProbabilityMetric):
            if group_size is None:
                raise ValueError("group_size is required for the Probability metric")
            tainted = self._taint_probability(honest, expected, x, int(group_size))
        else:  # pragma: no cover - future metrics fall back to "no taint"
            tainted = honest.copy()

        if self.integer_mode:
            for row in range(honest.shape[0]):
                tainted[row] = self._round_feasible(honest[row], tainted[row], x[row])
        return tainted

    # -- per-metric strategies (each over a (k, n) batch) ----------------------

    def _taint_diff(
        self, a: np.ndarray, mu: np.ndarray, x: np.ndarray, group_size: Optional[int]
    ) -> np.ndarray:
        if self.attack_class.allows_increase:
            # Free increases: match mu wherever the honest count is short.
            upper = float(group_size) if group_size is not None else np.inf
            o = np.where(mu > a, np.minimum(mu, upper), a)
        else:
            o = a.copy()
        return _allocate_decreases(o, np.minimum(mu, o), x)

    def _taint_add_all(
        self, a: np.ndarray, mu: np.ndarray, x: np.ndarray
    ) -> np.ndarray:
        # Increases never help; only decreases toward mu matter.
        return _allocate_decreases(a, np.minimum(mu, a), x)

    def _taint_probability(
        self, a: np.ndarray, mu: np.ndarray, x: np.ndarray, group_size: int
    ) -> np.ndarray:
        """Spend each row's budget one node at a time, all rows in lock-step.

        Per step, every row with budget left lowers its eligible group (one
        above its mode) with the smallest current log-pmf, the lowest index
        on ties, by ``min(1, o - mode, remaining)``.  Only the entries just
        touched are re-scored.  A row stops when its budget is spent or no
        group is eligible.
        """
        m = float(group_size)
        probs = np.clip(mu / m, 0.0, 1.0)
        modes = binomial_mode(m, probs)

        o = a.copy()
        if self.attack_class.allows_increase:
            o = np.where(modes > o, modes, o)
        remaining = x.copy()

        # Only groups above their mode (hence above zero) are eligible.  The
        # others score +inf so the row-wise argmin never picks them; an
        # eligible log-pmf is finite or -inf, so a row whose argmin lands on
        # +inf has nothing left to decrease.
        log_pmf = np.where(o > modes, binomial_log_pmf(o, m, probs), np.inf)
        rows = np.flatnonzero(remaining > 0)
        while rows.size:
            cols = np.argmin(log_pmf[rows], axis=1)
            open_rows = log_pmf[rows, cols] < np.inf
            rows, cols = rows[open_rows], cols[open_rows]
            if not rows.size:
                break
            counts, row_modes = o[rows, cols], modes[rows, cols]
            step = np.minimum(np.minimum(1.0, counts - row_modes), remaining[rows])
            counts = counts - step
            o[rows, cols] = counts
            remaining[rows] -= step
            log_pmf[rows, cols] = np.where(
                counts > row_modes,
                binomial_log_pmf(counts, m, probs[rows, cols]),
                np.inf,
            )
            rows = rows[remaining[rows] > 0]
        return o

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _round_feasible(a: np.ndarray, tainted: np.ndarray, x: float) -> np.ndarray:
        """Round a real-valued taint to whole nodes without exceeding the budget."""
        rounded = np.round(tainted)
        decreases = np.clip(a - rounded, 0.0, None)
        excess = decreases.sum() - x
        if excess <= 0:
            return rounded
        # Give back whole-node decreases (smallest benefit first) until the
        # budget constraint holds again.
        order = np.argsort(decreases)
        for idx in order[::-1]:
            while decreases[idx] >= 1.0 and excess > 0:
                rounded[idx] += 1.0
                decreases[idx] -= 1.0
                excess -= 1.0
            if excess <= 0:
                break
        return rounded


def taint_observation(
    honest_observation: np.ndarray,
    expected_observation: np.ndarray,
    budget: Union[AttackBudget, int],
    *,
    metric: Union[str, AnomalyMetric] = "diff",
    attack_class: Union[str, AttackClass] = "dec_bounded",
    group_size: Optional[int] = None,
    integer_mode: bool = False,
) -> np.ndarray:
    """Functional one-shot wrapper around :class:`GreedyMetricMinimizer`."""
    adversary = GreedyMetricMinimizer(
        metric=metric, attack_class=attack_class, integer_mode=integer_mode
    )
    return adversary.taint(
        honest_observation, expected_observation, budget, group_size=group_size
    )
