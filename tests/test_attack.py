import numpy as np
import pytest

from synthmia import attack, recovery, sdg
from synthmia.data import Dataset, Domain
from synthmia.errors import ConfigurationError


def make_ds(cards, rows):
    dom = Domain([f"a{i}" for i in range(len(cards))], list(cards))
    return Dataset(dom, np.array(rows, dtype=np.int64))


def random_ds(seed, d=3, n=400, max_card=4, domain=None):
    rng = np.random.default_rng(seed)
    if domain is None:
        cards = rng.integers(2, max_card + 1, size=d)
        domain = Domain([f"a{i}" for i in range(d)], cards.tolist())
    rows = rng.integers(0, domain.cardinalities, size=(n, len(domain)))
    return Dataset(domain, rows)


def indicator_weights(edges):
    w = recovery.ShadowWeights("mst", 1)
    for e in edges:
        w.add(tuple(sorted(e)))
    return w


class TestIdentity:
    """Every score op must return 1 when synth and aux coincide."""

    def test_all_ops_return_one(self):
        ds = random_ds(0, d=4)
        target = ds.subset(np.arange(30))
        edges = sdg.Structure("mst", ((0, 1), (1, 2), (2, 3)))
        order = sdg.Structure("privbayes", ((0, ()), (1, (0,)), (2, (0, 1)), (3, (2,))))
        pb_w = recovery.ShadowWeights("privbayes", 1, {(1, (0,)): 2, (2, ()): 1})
        vectors = [
            attack.tamis_mst(target, edges, ds, ds),
            attack.tamis_pb(target, order, ds, ds),
            attack.mamamia_mst(target, indicator_weights(edges.keys), ds, ds),
            attack.mamamia_pb(target, pb_w, ds, ds),
            attack.hybrid_mst(target, edges, ds, ds),
            attack.hybrid_pb(target, order, ds, ds),
            attack.tamis_mst_avg(target, edges, ds, ds),
            attack.marginals_sigma(target, ds, ds),
        ]
        for sv in vectors:
            assert np.abs(sv.log_scores).max() < 1e-12, sv.attack_name
        # the product baseline returns its prefactor at identity
        pi = attack.marginals_pi(target, ds, ds)
        d = 4
        prefactor = 1.0 / (d + d * (d - 1) // 2)
        assert np.abs(pi.log_scores - np.log(prefactor)).max() < 1e-12


class TestHybridEqualsMamamia:
    def test_indicator_weights_exact(self):
        domain = Domain(["a", "b", "c"], [3, 2, 4])
        synth = random_ds(1, domain=domain)
        aux = random_ds(2, domain=domain)
        target = random_ds(3, n=50, domain=domain)
        edges = sdg.Structure("mst", ((0, 1), (1, 2)))
        h = attack.hybrid_mst(target, edges, synth, aux)
        m = attack.mamamia_mst(target, indicator_weights(edges.keys), synth, aux)
        assert np.array_equal(h.log_scores, m.log_scores)

    def test_pb_indicator_weights_exact(self):
        domain = Domain(["a", "b", "c"], [2, 3, 2])
        synth = random_ds(4, domain=domain)
        aux = random_ds(5, domain=domain)
        target = random_ds(6, n=40, domain=domain)
        order = sdg.Structure("privbayes", ((1, ()), (0, (1,)), (2, (0, 1))))
        w = recovery.ShadowWeights("privbayes", 1, {(n, p): 1 for n, p in order.keys})
        h = attack.hybrid_pb(target, order, synth, aux)
        m = attack.mamamia_pb(target, w, synth, aux)
        assert np.array_equal(h.log_scores, m.log_scores)


class TestHandValues:
    def _ratio(self, rows, attrs, synth, aux):
        from synthmia import marginals

        ts = marginals.marginal(synth, attrs, floor=marginals.default_floor(len(synth)))
        ta = marginals.marginal(aux, attrs, floor=marginals.default_floor(len(aux)))
        return ts.lookup_rows(rows) / ta.lookup_rows(rows)

    def test_mamamia_weighted_sum(self):
        domain = Domain(["a", "b", "c", "d"], [2, 2, 2, 2])
        synth, aux = random_ds(7, domain=domain), random_ds(8, domain=domain)
        target = random_ds(9, n=20, domain=domain)
        w = recovery.ShadowWeights("mst", 2, {(0, 1): 2, (1, 2): 1, (2, 3): 1})
        got = attack.mamamia_mst(target, w, synth, aux).scores
        want = (
            2 * self._ratio(target.rows, (0, 1), synth, aux)
            + self._ratio(target.rows, (1, 2), synth, aux)
            + self._ratio(target.rows, (2, 3), synth, aux)
        ) / 4.0
        assert np.allclose(got, want, rtol=1e-12)

    def test_hybrid_two_edge_average(self):
        domain = Domain(["a", "b", "c"], [2, 3, 2])
        synth, aux = random_ds(10, domain=domain), random_ds(11, domain=domain)
        target = random_ds(12, n=15, domain=domain)
        got = attack.hybrid_mst(target, sdg.Structure("mst", ((0, 1), (1, 2))), synth, aux).scores
        want = 0.5 * (
            self._ratio(target.rows, (0, 1), synth, aux)
            + self._ratio(target.rows, (1, 2), synth, aux)
        )
        assert np.allclose(got, want, rtol=1e-12)

    def test_tamis_mst_avg_two_attributes(self):
        domain = Domain(["a", "b"], [2, 2])
        synth, aux = random_ds(13, domain=domain), random_ds(14, domain=domain)
        target = random_ds(15, n=10, domain=domain)
        got = attack.tamis_mst_avg(target, sdg.Structure("mst", ((0, 1),)), synth, aux).scores
        r0 = self._ratio(target.rows, (0,), synth, aux)
        r1 = self._ratio(target.rows, (1,), synth, aux)
        r01 = self._ratio(target.rows, (0, 1), synth, aux)
        want = (r0 + r1 + r01 / (r0 * r1)) / 3.0
        assert np.allclose(got, want, rtol=1e-12)

    def test_marginals_pi_formula(self):
        domain = Domain(["a", "b", "c"], [2, 2, 3])
        synth, aux = random_ds(16, domain=domain), random_ds(17, domain=domain)
        target = random_ds(18, n=10, domain=domain)
        got = attack.marginals_pi(target, synth, aux).scores
        d = 3
        want = np.ones(10) / (d + d * (d - 1) // 2)
        for i in range(d):
            want *= self._ratio(target.rows, (i,), synth, aux) ** (2 - d)
        for i in range(d):
            for j in range(i + 1, d):
                want *= self._ratio(target.rows, (i, j), synth, aux)
        assert np.allclose(got, want, rtol=1e-10)

    def test_tamis_equals_density_ratio(self):
        domain = Domain(["a", "b", "c"], [2, 3, 2])
        synth, aux = random_ds(19, domain=domain), random_ds(20, domain=domain)
        target = random_ds(21, n=25, domain=domain)
        edges = sdg.Structure("mst", ((0, 2), (1, 2)))
        sv = attack.tamis_mst(target, edges, synth, aux)
        ms = sdg.tree_model_from_data(synth, edges)
        ma = sdg.tree_model_from_data(aux, edges)
        want = sdg.tree_density(ms, target.rows) / sdg.tree_density(ma, target.rows)
        assert np.allclose(sv.scores, want, rtol=1e-9)


class TestPermutationInvariance:
    def test_marginals_sigma_column_permutation(self):
        domain = Domain(["a", "b", "c"], [2, 3, 2])
        synth, aux = random_ds(22, domain=domain), random_ds(23, domain=domain)
        target = random_ds(24, n=12, domain=domain)
        base = attack.marginals_sigma(target, synth, aux).log_scores
        perm = [2, 0, 1]
        pdom = Domain([domain.names[p] for p in perm], [domain.cardinalities[p] for p in perm])

        def permute(ds):
            return Dataset(pdom, ds.rows[:, perm])

        got = attack.marginals_sigma(permute(target), permute(synth), permute(aux)).log_scores
        assert np.allclose(got, base, atol=1e-12)


class TestAggregation:
    def test_household_mean(self):
        sv = attack.ScoreVector("x", np.log(np.array([0.2, 0.4, 5.0])))
        out = attack.aggregate_households(sv, np.array([7, 7, 9]))
        assert np.allclose(out.scores, [0.3, 5.0])
        assert out.target_ids.tolist() == [7, 9]

    def test_singleton_households_unchanged(self):
        sv = attack.ScoreVector("x", np.array([0.1, -0.4]))
        out = attack.aggregate_households(sv, np.array([1, 2]))
        assert np.allclose(out.log_scores, sv.log_scores)

    def test_hand_grouping_three_households(self):
        sv = attack.ScoreVector("x", np.log(np.array([1.0, 3.0, 2.0, 2.0, 8.0])))
        out = attack.aggregate_households(sv, np.array([0, 0, 1, 1, 2]))
        assert np.allclose(out.scores, [2.0, 2.0, 8.0])

    def test_misaligned_ids_rejected(self):
        sv = attack.ScoreVector("x", np.zeros(3))
        with pytest.raises(ConfigurationError):
            attack.aggregate_households(sv, np.array([1, 2]))


class TestActivations:
    def test_simple_zero_log_score(self):
        sv = attack.ScoreVector("x", np.array([np.log(1.0)]))
        probs, preds = attack.activate_simple(sv)
        assert probs[0] == pytest.approx(2.0 / (1 + np.exp(-1.0)) - 1.0)

    def test_simple_threshold_at_ln3(self):
        sv = attack.ScoreVector("x", np.log(np.array([1e-9, np.log(3.0), 50.0])))
        probs, preds = attack.activate_simple(sv)
        assert preds.tolist() == [0, 1, 1]
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(1.0)

    def test_calibrated_half_prior_four_scores(self):
        sv = attack.ScoreVector("x", np.log(np.array([1.0, 2.0, 3.0, 4.0])))
        probs, preds = attack.activate_calibrated(sv, prior=0.5)
        assert preds.sum() == 2
        assert preds.tolist() == [0, 0, 1, 1]

    def test_calibrated_small_prior_bound(self):
        rng = np.random.default_rng(0)
        sv = attack.ScoreVector("x", rng.normal(size=100))
        for prior in (0.01, 0.05):
            _, preds = attack.activate_calibrated(sv, prior)
            assert preds.sum() <= int(np.ceil(prior * 100)) + 1

    def test_calibrated_degenerate_scores(self):
        sv = attack.ScoreVector("x", np.zeros(5))
        probs, preds = attack.activate_calibrated(sv, prior=0.5)
        assert preds.sum() == 0

    def test_calibrated_prior_validation(self):
        sv = attack.ScoreVector("x", np.arange(10.0))
        for prior in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                attack.activate_calibrated(sv, prior)
        probs, preds = attack.activate_calibrated(sv, 0.3)
        assert preds.sum() == 3


class TestRegistry:
    def test_every_name_resolves_to_its_public_scorer(self):
        domain = Domain(["a", "b", "c"], [2, 3, 2])
        synth, aux = random_ds(28, domain=domain), random_ds(29, domain=domain)
        target = random_ds(30, n=10, domain=domain)
        inputs = {
            ("mst", "structure"): (sdg.Structure("mst", ((0, 1), (1, 2))),),
            ("privbayes", "structure"): (sdg.Structure("privbayes", ((0, ()), (1, (0,)), (2, (1,)))),),
            ("mst", "weights"): (indicator_weights(((0, 1), (0, 2))),),
            ("privbayes", "weights"): (recovery.ShadowWeights("privbayes", 1, {(1, (0,)): 1}),),
            ("free", None): (),
        }
        for name, (family, needs) in attack.ATTACKS.items():
            got_family, got_needs, starred, fn = attack.lookup(name)
            assert (got_family, got_needs, starred) == (family, needs, False)
            assert fn is getattr(attack, name.replace("-", "_"))
            assert not fn.__name__.startswith("_")
            sv = fn(target, *inputs[(family, needs)], synth, aux)
            assert sv.attack_name == name
            assert len(sv) == len(target)

    def test_star_only_on_structure_attacks(self):
        for name, (_, needs) in attack.ATTACKS.items():
            if needs == "structure":
                assert attack.lookup(name + "*")[2] is True
            else:
                with pytest.raises(ConfigurationError):
                    attack.lookup(name + "*")


def test_permuting_records_permutes_scores():
    domain = Domain(["a", "b"], [2, 3])
    synth, aux = random_ds(25, domain=domain), random_ds(26, domain=domain)
    target = random_ds(27, n=20, domain=domain)
    edge = sdg.Structure("mst", ((0, 1),))
    base = attack.tamis_mst(target, edge, synth, aux).log_scores
    perm = np.random.default_rng(1).permutation(20)
    shuffled = attack.tamis_mst(target.subset(perm), edge, synth, aux).log_scores
    assert np.array_equal(shuffled, base[perm])
