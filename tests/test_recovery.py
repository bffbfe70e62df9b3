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
        cfg = sdg.GeneratorConfig("mst", DpParams(math.inf, seed=0))
        model = sdg.fit_mst(ds, cfg)
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
            order = recovery.recover_bayesnet(ds, DpParams(1.0, seed=seed))
            placed = set()
            for node, parents in order.keys:
                assert set(parents) <= placed
                placed.add(node)
            assert len(placed) == 4

    def test_single_attribute(self):
        ds = make_ds([3], np.random.default_rng(7).integers(0, 3, size=(50, 1)))
        order = recovery.recover_bayesnet(ds, DpParams(1.0, seed=0))
        assert order == sdg.Structure("privbayes", ((0, ()),))


class TestShadowWeights:
    def test_k1_is_indicator(self):
        ds = random_ds(8, d=4, n=400)
        cfg = recovery.ShadowConfig(K=1, subset_size=200, dp=DpParams(1.0, delta=1e-9), seed=0)
        w = recovery.shadow_weights(ds, cfg, "mst")
        assert set(w.weights.values()) == {1}
        assert w.total() == 3

    def test_sum_identity_mst(self):
        ds = random_ds(9, d=5, n=400)
        cfg = recovery.ShadowConfig(K=7, subset_size=200, dp=DpParams(1.0, delta=1e-9), seed=1)
        w = recovery.shadow_weights(ds, cfg, "mst")
        assert w.total() == 7 * (5 - 1)
        assert all(0 <= v <= 7 for v in w.weights.values())

    def test_sum_identity_privbayes(self):
        ds = random_ds(10, d=4, n=400)
        cfg = recovery.ShadowConfig(K=6, subset_size=200, dp=DpParams(1.0), seed=2)
        w = recovery.shadow_weights(ds, cfg, "privbayes")
        assert w.total() == 6 * 4

    def test_noiseless_full_subsets_concentrate(self):
        # subset_size = |aux| makes every run identical; noiseless tree
        # selection is deterministic, so weights are 0 or K
        ds = random_ds(11, d=4, n=300)
        cfg = recovery.ShadowConfig(K=5, subset_size=300, dp=DpParams(math.inf), seed=3)
        w = recovery.shadow_weights(ds, cfg, "mst")
        assert set(w.weights.values()) == {5}

    def test_oversized_subset_rejected(self):
        ds = random_ds(12, d=3, n=100)
        cfg = recovery.ShadowConfig(K=1, subset_size=200, dp=DpParams(1.0), seed=0)
        with pytest.raises(ConfigurationError):
            recovery.shadow_weights(ds, cfg, "mst")

    def test_serialization_round_trip(self):
        ds = random_ds(13, d=4, n=300)
        for method, dp in (("mst", DpParams(1.0, delta=1e-9)), ("privbayes", DpParams(1.0))):
            cfg = recovery.ShadowConfig(K=3, subset_size=150, dp=dp, seed=4)
            w = recovery.shadow_weights(ds, cfg, method)
            back = recovery.ShadowWeights.from_json(json.loads(json.dumps(w.to_json())))
            assert back.weights == w.weights and back.K == w.K

    def test_determinism(self):
        ds = random_ds(14, d=4, n=300)
        cfg = recovery.ShadowConfig(K=4, subset_size=150, dp=DpParams(1.0, delta=1e-9), seed=5)
        a = recovery.shadow_weights(ds, cfg, "mst")
        b = recovery.shadow_weights(ds, cfg, "mst")
        assert a.weights == b.weights


def test_shadow_config_validation():
    with pytest.raises(ConfigurationError):
        recovery.ShadowConfig(K=0, subset_size=10, dp=DpParams(1.0))
    with pytest.raises(ConfigurationError):
        recovery.ShadowConfig(K=1, subset_size=10, dp=None)


def test_recovery_on_household_data_end_to_end():
    aux = generate_households(4000, n_attrs=5, max_cardinality=4, seed=21)
    cfg = sdg.GeneratorConfig("mst", DpParams(1000.0, delta=1e-9, seed=1))
    model = sdg.fit_mst(aux, cfg)
    synth = sdg.sample(model, 4000, seed=2)
    est = recovery.recover_tree(synth)
    assert len(est.keys) == 4
