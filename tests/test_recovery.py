import json
import math

import numpy as np
import pytest

from synthmia import marginals, recovery, sdg
from synthmia.data import Dataset, Domain, generate_households
from synthmia.dp import DpParams
from synthmia.errors import ConfigurationError


def make_ds(cards, rows):
    dom = Domain([f"a{i}" for i in range(len(cards))], list(cards))
    return Dataset(dom, np.array(rows, dtype=np.int64))


def random_ds(seed, d=4, n=500, max_card=4):
    rng = np.random.default_rng(seed)
    cards = rng.integers(2, max_card + 1, size=d)
    return make_ds(cards, rng.integers(0, cards, size=(n, d)))


class TestRecoverTree:
    def test_two_attributes(self):
        assert recovery.recover_tree(random_ds(0, d=2)) == sdg.Structure("mst", ((0, 1),))

    def test_pure_and_deterministic(self):
        ds = random_ds(1, d=5)
        assert recovery.recover_tree(ds) == recovery.recover_tree(ds)

    def test_recovers_generating_tree(self):
        ds = random_ds(2, d=4, n=3000)
        model = sdg.fit_mst(ds, DpParams(math.inf), 0)
        synth = sdg.sample(model, 20000, seed=3)
        assert recovery.recover_tree(synth) == model.structure

    def test_tie_break_deterministic(self):
        # all attributes identical: every edge ties at the maximum score
        rng = np.random.default_rng(4)
        col = rng.integers(0, 2, size=200)
        ds = make_ds([2, 2, 2], np.column_stack([col, col, col]))
        assert recovery.recover_tree(ds) == sdg.Structure("mst", ((0, 1), (0, 2)))

    def test_cost_contract_one_marginal_pass(self, monkeypatch):
        # at most one full 1-/2-way marginal pass: d + d(d-1)/2 table builds
        ds = random_ds(5, d=5)
        calls = []
        original = marginals.marginal

        def counting(ds_, attrs, floor=None):
            calls.append(tuple(attrs))
            return original(ds_, attrs, floor)

        monkeypatch.setattr(marginals, "marginal", counting)
        recovery.recover_tree(ds)
        d = 5
        assert len(calls) <= d + d * (d - 1) // 2

    def test_empty_dataset_rejected(self):
        ds = make_ds([2, 2], np.empty((0, 2), dtype=np.int64))
        with pytest.raises(ConfigurationError):
            recovery.recover_tree(ds)


class TestRecoverBayesnet:
    def test_acyclic_for_all_seeds(self):
        ds = random_ds(6, d=4)
        for seed in range(20):
            order = recovery.recover_bayesnet(ds, DpParams(1.0), seed)
            placed = set()
            for node, parents in order.keys:
                assert set(parents) <= placed
                placed.add(node)
            assert len(placed) == 4

    def test_single_attribute(self):
        ds = make_ds([3], np.random.default_rng(7).integers(0, 3, size=(50, 1)))
        order = recovery.recover_bayesnet(ds, DpParams(1.0), 0)
        assert order == sdg.Structure("privbayes", ((0, ()),))


class TestShadowWeights:
    def test_k1_is_indicator(self):
        ds = random_ds(8, d=4, n=400)
        w = recovery.shadow_weights(ds, "mst", DpParams(1.0, delta=1e-9), 0, 1, 200)
        assert set(w.weights.values()) == {1}
        assert w.total() == 3

    def test_sum_identity_mst(self):
        ds = random_ds(9, d=5, n=400)
        w = recovery.shadow_weights(ds, "mst", DpParams(1.0, delta=1e-9), 1, 7, 200)
        assert w.total() == 7 * (5 - 1)
        assert all(0 <= v <= 7 for v in w.weights.values())

    def test_sum_identity_privbayes(self):
        ds = random_ds(10, d=4, n=400)
        w = recovery.shadow_weights(ds, "privbayes", DpParams(1.0), 2, 6, 200)
        assert w.total() == 6 * 4

    def test_noiseless_full_subsets_concentrate(self):
        # subset_size = |aux| makes every run identical; noiseless tree
        # selection is deterministic, so weights are 0 or K
        ds = random_ds(11, d=4, n=300)
        w = recovery.shadow_weights(ds, "mst", DpParams(math.inf), 3, 5, 300)
        assert set(w.weights.values()) == {5}

    def test_oversized_subset_rejected(self):
        ds = random_ds(12, d=3, n=100)
        with pytest.raises(ConfigurationError):
            recovery.shadow_weights(ds, "mst", DpParams(1.0), 0, 1, 200)

    def test_serialization_round_trip(self):
        ds = random_ds(13, d=4, n=300)
        for method, dp in (("mst", DpParams(1.0, delta=1e-9)), ("privbayes", DpParams(1.0))):
            w = recovery.shadow_weights(ds, method, dp, 4, 3, 150)
            back = recovery.ShadowWeights.from_json(json.loads(json.dumps(w.to_json())))
            assert back.weights == w.weights and back.K == w.K

    def test_determinism(self):
        ds = random_ds(14, d=4, n=300)
        a = recovery.shadow_weights(ds, "mst", DpParams(1.0, delta=1e-9), 5, 4, 150)
        b = recovery.shadow_weights(ds, "mst", DpParams(1.0, delta=1e-9), 5, 4, 150)
        assert a.weights == b.weights


def test_shadow_config_validation():
    ds = random_ds(15, d=3, n=100)
    with pytest.raises(ConfigurationError, match="shadow run count must be >= 1"):
        recovery.shadow_weights(ds, "mst", DpParams(1.0), 0, 0, 10)
    with pytest.raises(ConfigurationError, match="DP params"):
        recovery.shadow_weights(ds, "mst", None, 0, 1, 10)


@pytest.mark.parametrize("entry", ["fit", "recover", "shadow_weights"])
def test_unknown_method_rejected(entry):
    ds, dp = random_ds(16, d=3, n=100), DpParams(1.0, delta=1e-9)
    run = {
        "fit": lambda: sdg.fit(ds, "bogus", dp, 0),
        "recover": lambda: recovery.recover(ds, "bogus", dp, 0),
        "shadow_weights": lambda: recovery.shadow_weights(ds, "bogus", dp, 0, 1, 10),
    }[entry]
    with pytest.raises(ConfigurationError, match="unknown method 'bogus'"):
        run()


def test_recovery_on_household_data_end_to_end():
    aux = generate_households(4000, n_attrs=5, max_cardinality=4, seed=21)
    model = sdg.fit_mst(aux, DpParams(1000.0, delta=1e-9), 1)
    synth = sdg.sample(model, 4000, seed=2)
    est = recovery.recover_tree(synth)
    assert len(est.keys) == 4
