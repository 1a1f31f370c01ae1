"""Property-based tests (hypothesis) for the core invariants.

These cover the data structures and algorithms whose correctness the whole
evaluation rests on: the ``g(z)`` table, the anomaly metrics, the attack
constraint classes, the greedy adversary and the ROC bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks.constraints import DecBoundedAttack, DecOnlyAttack
from repro.attacks.greedy import GreedyMetricMinimizer
from repro.core.metrics import AddAllMetric, DiffMetric, ProbabilityMetric
from repro.deployment.gz import GzTable, gz_quadrature
from repro.localization.base import BeaconInfrastructure
from repro.types import Region
from repro.utils.stats import binomial_pmf, roc_points
from repro.utils.tables import LookupTable1D

# A session-wide g(z) table reused by several properties (construction is
# the expensive part).
_GZ_TABLE = GzTable(100.0, 50.0, omega=600, z_max=800.0)

# Common hypothesis settings: the numerical kernels are fast, but network
# construction inside examples is not needed here.
_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

observation_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=30),
    elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


class TestGzProperties:
    @_SETTINGS
    @given(z=st.floats(min_value=0.0, max_value=800.0))
    def test_table_within_unit_interval(self, z):
        value = float(_GZ_TABLE(z))
        assert 0.0 <= value <= 1.0

    @_SETTINGS
    @given(
        z1=st.floats(min_value=0.0, max_value=790.0),
        dz=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_table_monotone_decreasing(self, z1, dz):
        assert float(_GZ_TABLE(z1 + dz)) <= float(_GZ_TABLE(z1)) + 1e-6

    @_SETTINGS
    @given(
        radio_range=st.floats(min_value=20.0, max_value=200.0),
        sigma=st.floats(min_value=10.0, max_value=120.0),
    )
    def test_value_at_zero_matches_rayleigh(self, radio_range, sigma):
        expected = 1.0 - np.exp(-(radio_range**2) / (2 * sigma**2))
        assert gz_quadrature(
            0.0,
            radio_range,
            sigma,
        ) == pytest.approx(expected, abs=1e-6)


class TestLookupTableProperties:
    @_SETTINGS
    @given(
        coeffs=st.tuples(
            st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5)
        ),
        query=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_linear_functions_reproduced_exactly(self, coeffs, query):
        a, b = coeffs
        table = LookupTable1D.from_function(lambda x: a * x + b, 0.0, 10.0, 7)
        assert float(table(query)) == pytest.approx(a * query + b, abs=1e-9)

    @_SETTINGS
    @given(query=st.floats(min_value=-100.0, max_value=100.0))
    def test_clamped_output_within_value_range(self, query):
        table = LookupTable1D.from_function(np.sin, 0.0, np.pi, 64)
        value = float(table(query))
        assert table.values.min() - 1e-12 <= value <= table.values.max() + 1e-12


class TestMetricProperties:
    @_SETTINGS
    @given(obs=observation_arrays)
    def test_diff_metric_zero_iff_equal(self, obs):
        assert DiffMetric().compute(obs, obs) == pytest.approx(0.0)

    @_SETTINGS
    @given(obs=observation_arrays, shift=st.floats(min_value=0.0, max_value=10.0))
    def test_diff_metric_is_l1_distance(self, obs, shift):
        expected = obs + shift
        assert DiffMetric().compute(obs, expected) == pytest.approx(shift * obs.size)

    @_SETTINGS
    @given(obs=observation_arrays)
    def test_add_all_lower_bound(self, obs):
        rng = np.random.default_rng(0)
        expected = rng.uniform(0, 50, size=obs.shape)
        value = AddAllMetric().compute(obs, expected)
        assert value >= max(obs.sum(), expected.sum()) - 1e-9
        assert value <= obs.sum() + expected.sum() + 1e-9

    @_SETTINGS
    @given(
        obs=observation_arrays,
        group_size=st.integers(min_value=50, max_value=200),
    )
    def test_probability_metric_non_negative_and_finite(self, obs, group_size):
        rng = np.random.default_rng(1)
        expected = rng.uniform(0, group_size, size=obs.shape)
        score = ProbabilityMetric().compute(obs, expected, group_size=group_size)
        assert np.isfinite(score)
        assert score >= 0.0

    @_SETTINGS
    @given(
        k=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_binomial_pmf_bounded(self, k, n, p):
        assume(k <= n)
        value = binomial_pmf(np.array([float(k)]), n, np.array([p]))[0]
        assert 0.0 <= value <= 1.0


class TestAttackProperties:
    @_SETTINGS
    @given(
        obs=observation_arrays,
        budget=st.integers(min_value=0, max_value=60),
        metric=st.sampled_from(["diff", "add_all", "probability"]),
        attack=st.sampled_from(["dec_bounded", "dec_only"]),
    )
    def test_greedy_taint_always_feasible(self, obs, budget, metric, attack):
        rng = np.random.default_rng(42)
        group_size = 60
        expected = rng.uniform(0, 20, size=obs.shape)
        obs = np.minimum(obs, group_size)
        adversary = GreedyMetricMinimizer(metric, attack)
        tainted = adversary.taint(obs, expected, budget, group_size=group_size)
        constraint = DecBoundedAttack() if attack == "dec_bounded" else DecOnlyAttack()
        assert constraint.is_feasible(obs, tainted, budget, group_size=None)
        assert np.all(tainted >= -1e-9)

    @_SETTINGS
    @given(
        obs=observation_arrays,
        budget=st.integers(min_value=0, max_value=60),
        metric=st.sampled_from(["diff", "add_all", "probability"]),
    )
    def test_greedy_taint_never_increases_metric(self, obs, budget, metric):
        """Attacking can only make the metric smaller or equal — otherwise
        the adversary would simply not attack.

        For the Probability metric this holds on whole-node counts: every
        step moves one count toward its binomial mode, which never lowers
        that group's pmf.  The Gamma-generalised pmf of a real-valued count
        can peak off the integer mode, so real counts are rounded first.
        """
        rng = np.random.default_rng(7)
        expected = rng.uniform(0, 20, size=obs.shape)
        if metric == "probability":
            obs = np.round(obs)
        adversary = GreedyMetricMinimizer(metric, "dec_bounded")
        tainted = adversary.taint(obs, expected, budget, group_size=100)
        score = adversary.metric.compute
        assert score(tainted, expected, group_size=100) <= score(
            obs, expected, group_size=100
        ) + 1e-9

    @_SETTINGS
    @given(
        data=st.data(),
        victims=st.integers(min_value=0, max_value=6),
        groups=st.integers(min_value=1, max_value=12),
        attack=st.sampled_from(["dec_bounded", "dec_only"]),
    )
    def test_probability_taint_batch_equals_stacked_taint(
        self, data, victims, groups, attack
    ):
        """The lock-step batch greedy is the stack of one-victim greedies."""
        group_size = 40
        counts = st.floats(min_value=0.0, max_value=float(group_size))
        honest = data.draw(hnp.arrays(np.float64, (victims, groups), elements=counts))
        # Up to 1.5 m so that some groups clip to p = 1.
        expected = data.draw(
            hnp.arrays(
                np.float64,
                (victims, groups),
                elements=st.floats(min_value=0.0, max_value=1.5 * group_size),
            )
        )
        budgets = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=80),
                min_size=victims,
                max_size=victims,
            )
        )
        adversary = GreedyMetricMinimizer("probability", attack)
        batch = adversary.taint_batch(
            honest, expected, budgets, group_size=group_size
        )
        stacked = np.array(
            [
                adversary.taint(h, e, b, group_size=group_size)
                for h, e, b in zip(honest, expected, budgets)
            ]
        ).reshape(victims, groups)
        np.testing.assert_array_equal(batch, stacked)

    @_SETTINGS
    @given(obs=observation_arrays, budget=st.integers(min_value=0, max_value=30))
    def test_dec_only_bounds_hold(self, obs, budget):
        lower, upper = DecOnlyAttack().entry_bounds(obs, budget)
        assert np.all(lower >= -1e-12)
        assert np.all(upper == obs)
        assert np.all(lower <= upper + 1e-12)


#: Beacon positions reused by the infrastructure properties (construction
#: is cheap; a fixed, irregular set keeps the distance geometry non-trivial).
_BEACON_POSITIONS = np.array(
    [
        [100.0, 100.0],
        [430.0, 80.0],
        [250.0, 260.0],
        [60.0, 410.0],
        [390.0, 440.0],
        [500.0, 250.0],
    ]
)

point_coords = st.tuples(
    st.floats(min_value=-200.0, max_value=700.0, allow_nan=False),
    st.floats(min_value=-200.0, max_value=700.0, allow_nan=False),
)


class TestBeaconInfrastructureProperties:
    @_SETTINGS
    @given(
        point=point_coords,
        transmit_range=st.floats(min_value=10.0, max_value=800.0),
    )
    def test_audible_consistent_with_distance_support(
        self, point, transmit_range
    ):
        """``audible_from`` is exactly the support of the (noise-free)
        measured distances at or below the transmit range."""
        beacons = BeaconInfrastructure(
            positions=_BEACON_POSITIONS, transmit_range=transmit_range
        )
        audible = beacons.audible_from(point)
        distances = beacons.measured_distances(point)
        np.testing.assert_array_equal(
            audible, np.flatnonzero(distances <= transmit_range)
        )

    @_SETTINGS
    @given(point=point_coords)
    def test_noise_free_distances_are_exact(self, point):
        beacons = BeaconInfrastructure(positions=_BEACON_POSITIONS)
        distances = beacons.measured_distances(point)
        expected = np.hypot(
            _BEACON_POSITIONS[:, 0] - point[0],
            _BEACON_POSITIONS[:, 1] - point[1],
        )
        np.testing.assert_array_equal(distances, expected)
        assert np.all(distances >= 0.0)

    @_SETTINGS
    @given(
        beacon=st.integers(min_value=0, max_value=len(_BEACON_POSITIONS) - 1),
        lie=point_coords,
    )
    def test_declare_false_position_only_perturbs_declared_beacon(
        self, beacon, lie
    ):
        beacons = BeaconInfrastructure(positions=_BEACON_POSITIONS)
        before = beacons.declared_positions.copy()
        beacons.declare_false_position(beacon, lie)
        others = np.arange(beacons.num_beacons) != beacon
        np.testing.assert_array_equal(
            beacons.declared_positions[others], before[others]
        )
        np.testing.assert_array_equal(beacons.declared_positions[beacon], lie)
        # True positions never move; only the declared one lies.
        np.testing.assert_array_equal(beacons.positions, _BEACON_POSITIONS)
        np.testing.assert_array_equal(beacons.compromised, ~others)


class TestRocProperties:
    @_SETTINGS
    @given(
        benign=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=60),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        attacked=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=2, max_value=60),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
    )
    def test_roc_bounded_and_monotone(self, benign, attacked):
        _, fp, dr = roc_points(benign, attacked)
        assert np.all((fp >= 0) & (fp <= 1))
        assert np.all((dr >= 0) & (dr <= 1))
        assert np.all(np.diff(fp) >= -1e-12)
        assert np.all(np.diff(dr) >= -1e-12)


class TestRegionProperties:
    @_SETTINGS
    @given(
        x=st.floats(min_value=-2000, max_value=2000),
        y=st.floats(min_value=-2000, max_value=2000),
    )
    def test_clip_always_inside(self, x, y):
        region = Region(0.0, 0.0, 1000.0, 1000.0)
        clipped = region.clip([[x, y]])
        assert region.contains(clipped).all()

    @_SETTINGS
    @given(
        x=st.floats(min_value=0, max_value=1000),
        y=st.floats(min_value=0, max_value=1000),
    )
    def test_points_inside_are_clip_fixed_points(self, x, y):
        region = Region(0.0, 0.0, 1000.0, 1000.0)
        np.testing.assert_allclose(region.clip([[x, y]])[0], [x, y])
