import math

import numpy as np
import pytest

from synthmia import dp, sdg
from synthmia.errors import ConfigurationError, ParameterError, SelectionError


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            dp.DpParams(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            dp.DpParams(epsilon=1.0, delta=1.0)
        with pytest.raises(ConfigurationError):
            dp.DpParams(epsilon=1.0, theta=-1.0)
        assert math.isinf(dp.DpParams(epsilon=math.inf).epsilon)


class TestLedger:
    def test_overspend_raises(self):
        acct = dp.Accountant(dp.DpParams(1.0))
        acct.exponential("a", (0.6, 1))
        with pytest.raises(ConfigurationError):
            acct.exponential("b", (0.5, 1))

    def test_shares_sum(self):
        acct = dp.Accountant(dp.DpParams(1.0, delta=1e-9))
        for i in range(10):
            acct.gaussian(f"t{i}", 1.0, (1.0, 10), (1.0, 10))
        assert acct.epsilon_spent() == pytest.approx(1.0)
        assert acct.delta_spent() == pytest.approx(1.0)
        obj = acct.to_json()
        assert len(obj["spent"]) == 10 and obj["spent"][0]["mechanism"] == "gaussian"


class TestAccountant:
    @pytest.mark.parametrize("n", [100, 10000])
    def test_calibration_equals_the_generators_arithmetic(self, n):
        """Each share is fraction * total / count, evaluated in that order, bit for bit."""
        sel, meas = sdg.BUDGET_SPLIT
        sens, delta = 2.0 / n, 1e-9
        for d in range(2, 21):
            delta_each = delta / (3 * d - 1)
            for eps in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1000.0):
                acct = dp.Accountant(dp.DpParams(eps, delta=delta))
                tree_delta = (1.0, 3 * d - 1)
                assert acct.gaussian("s", sens, (sel, 2 * d), tree_delta) == dp.gaussian_sigma(
                    sel * eps / (2 * d), delta_each, sens)
                assert acct.exponential("e", (sel, 2 * (d - 1))) == sel * eps / (2 * (d - 1))
                assert acct.gaussian("m", sens, (meas, 2 * d - 1), tree_delta) == dp.gaussian_sigma(
                    meas * eps / (2 * d - 1), delta_each, sens)
                acct = dp.Accountant(dp.DpParams(eps))
                assert acct.exponential("p", (sel, d - 1)) == sel * eps / (d - 1)
                assert acct.laplace("l", sens, (meas, d)) == sens / (meas * eps / d)

    def test_noiseless_records_nothing(self):
        acct = dp.Accountant(dp.DpParams(math.inf))
        assert acct.gaussian("g", 1.0, (1.0, 2), (1.0, 2)) is None
        assert acct.laplace("l", 1.0, (1.0, 2)) is None
        assert acct.exponential("e", (1.0, 2)) == math.inf
        assert acct.spent == []

    def test_gaussian_needs_delta(self):
        acct = dp.Accountant(dp.DpParams(1.0))
        with pytest.raises(ConfigurationError):
            acct.gaussian("g", 1.0, (1.0, 1), (1.0, 1))
        assert acct.laplace("l", 1.0, (1.0, 1)) == 1.0


class TestSeeds:
    def test_derive_seed_stable_and_distinct(self):
        a = dp.derive_seed(42, 0)
        assert a == dp.derive_seed(42, 0)
        assert a != dp.derive_seed(42, 1)
        assert 0 <= a < 2**63

    def test_as_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert dp.as_generator(rng) is rng
        assert isinstance(dp.as_generator(5), np.random.Generator)


class TestNoise:
    def test_laplace_moments(self):
        draws = dp.laplace_noise(2.0, 10**6, seed=0)
        assert abs(draws.mean()) < 5 * 2.0 / math.sqrt(10**6)
        assert abs(np.abs(draws).mean() - 2.0) / 2.0 < 0.01

    def test_laplace_scale_validation(self):
        with pytest.raises(ParameterError):
            dp.laplace_noise(0.0, 10, seed=0)

    def test_gaussian_variance(self):
        draws = dp.gaussian_noise(3.0, 10**6, seed=1)
        assert abs(draws.var() - 9.0) / 9.0 < 0.02

    def test_gaussian_determinism_and_empty(self):
        a = dp.gaussian_noise(1.0, 100, seed=7)
        b = dp.gaussian_noise(1.0, 100, seed=7)
        assert np.array_equal(a, b)
        assert dp.gaussian_noise(1.0, 0, seed=7).size == 0

    def test_gaussian_sigma_formula(self):
        sigma = dp.gaussian_sigma(2.0, 1e-9, 0.5)
        assert sigma == pytest.approx(0.5 * math.sqrt(2 * math.log(1.25e9)) / 2.0)
        with pytest.raises(ParameterError):
            dp.gaussian_sigma(0.0, 1e-9, 1.0)


class TestExponentialMechanism:
    def test_symmetric_scores(self):
        draws = dp.exponential_mechanism([1.0, 1.0], 1.0, 1.0, seed=0, size=10**5)
        freq = (draws == 0).mean()
        assert abs(freq - 0.5) < 0.01

    def test_analytic_softmax_three_to_one(self):
        eps, sens = 2.0, 0.5
        scores = [0.0, math.log(3) * 2 * sens / eps]
        draws = dp.exponential_mechanism(scores, eps, sens, seed=3, size=10**5)
        assert abs((draws == 1).mean() - 0.75) < 0.01

    def test_infinite_epsilon_argmax(self):
        assert dp.exponential_mechanism([1.0, 3.0, 2.0], math.inf, 1.0, seed=0) == 1
        # lowest-index tie-break
        assert dp.exponential_mechanism([3.0, 3.0], math.inf, 1.0, seed=0) == 0

    def test_empty_and_invalid(self):
        with pytest.raises(SelectionError):
            dp.exponential_mechanism([], 1.0, 1.0, seed=0)
        with pytest.raises(SelectionError):
            dp.exponential_mechanism([np.nan], 1.0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            dp.exponential_mechanism([1.0], 1.0, 0.0, seed=0)

    def test_determinism(self):
        a = dp.exponential_mechanism([0.1, 0.2, 0.3], 1.0, 1.0, seed=11)
        b = dp.exponential_mechanism([0.1, 0.2, 0.3], 1.0, 1.0, seed=11)
        assert a == b

    def test_extreme_scores_stable(self):
        # huge logits must not overflow thanks to the max subtraction
        k = dp.exponential_mechanism([1e6, 0.0], 10.0, 1e-4, seed=0)
        assert k == 0
