import dataclasses

import numpy as np
import pytest

from synthmia import attack, marginals, recovery, sdg
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
        log_scores = {
            "tamis-mst": attack.tamis_mst(target, edges, ds, ds),
            "tamis-pb": attack.tamis_pb(target, order, ds, ds),
            "mamamia-mst": attack.mamamia_mst(target, indicator_weights(edges.keys), ds, ds),
            "mamamia-pb": attack.mamamia_pb(target, pb_w, ds, ds),
            "hybrid-mst": attack.hybrid_mst(target, edges, ds, ds),
            "hybrid-pb": attack.hybrid_pb(target, order, ds, ds),
            "tamis-mst-avg": attack.tamis_mst_avg(target, edges, ds, ds),
            "marginals-sigma": attack.marginals_sigma(target, ds, ds),
        }
        for name, logs in log_scores.items():
            assert np.abs(logs).max() < 1e-12, name
        # the product baseline returns its prefactor at identity
        pi = attack.marginals_pi(target, ds, ds)
        d = 4
        prefactor = 1.0 / (d + d * (d - 1) // 2)
        assert np.abs(pi - np.log(prefactor)).max() < 1e-12


class TestHybridEqualsMamamia:
    def test_indicator_weights_exact(self):
        domain = Domain(["a", "b", "c"], [3, 2, 4])
        synth = random_ds(1, domain=domain)
        aux = random_ds(2, domain=domain)
        target = random_ds(3, n=50, domain=domain)
        edges = sdg.Structure("mst", ((0, 1), (1, 2)))
        h = attack.hybrid_mst(target, edges, synth, aux)
        m = attack.mamamia_mst(target, indicator_weights(edges.keys), synth, aux)
        assert np.array_equal(h, m)

    def test_pb_indicator_weights_exact(self):
        domain = Domain(["a", "b", "c"], [2, 3, 2])
        synth = random_ds(4, domain=domain)
        aux = random_ds(5, domain=domain)
        target = random_ds(6, n=40, domain=domain)
        order = sdg.Structure("privbayes", ((1, ()), (0, (1,)), (2, (0, 1))))
        w = recovery.ShadowWeights("privbayes", 1, {(n, p): 1 for n, p in order.keys})
        h = attack.hybrid_pb(target, order, synth, aux)
        m = attack.mamamia_pb(target, w, synth, aux)
        assert np.array_equal(h, m)


class TestOneMeasurement:
    """Every PrivBayes ratio attack reads PrivBayes' own measurement, so a change to it reaches them all."""

    def test_changed_measurement_moves_every_privbayes_attack(self, monkeypatch):
        domain = Domain(["a", "b", "c"], [2, 3, 2])
        synth, aux = random_ds(41, domain=domain), random_ds(42, domain=domain)
        target = random_ds(43, n=40, domain=domain)
        order = sdg.Structure("privbayes", ((1, ()), (0, (1,)), (2, (0, 1))))
        weights = recovery.ShadowWeights("privbayes", 2, {(0, (1,)): 2, (2, (0, 1)): 1, (1, ()): 1})

        def scores():
            return {
                "tamis-pb": attack.tamis_pb(target, order, synth, aux),
                "hybrid-pb": attack.hybrid_pb(target, order, synth, aux),
                "mamamia-pb": attack.mamamia_pb(target, weights, synth, aux),
            }

        measure, before = sdg._measure_network, scores()

        def squared(*args, **kwargs):  # each conditional squared, then renormalised
            model = measure(*args, **kwargs)
            factors = tuple((attrs, probs**2 / (probs**2).sum(-1, keepdims=True)) for attrs, probs in model.factors)
            return dataclasses.replace(model, factors=factors)

        monkeypatch.setattr(sdg, "_measure_network", squared)
        for name, logs in scores().items():
            assert np.abs(logs - before[name]).max() > 1e-3, name


class TestHandValues:
    def _ratio(self, rows, attrs, synth, aux):
        from synthmia import marginals

        ts = marginals.marginal(synth, attrs, floor=marginals.default_floor(len(synth)))
        ta = marginals.marginal(aux, attrs, floor=marginals.default_floor(len(aux)))
        cells = tuple(rows[:, attrs].T)
        return ts[cells] / ta[cells]

    def test_mamamia_weighted_sum(self):
        domain = Domain(["a", "b", "c", "d"], [2, 2, 2, 2])
        synth, aux = random_ds(7, domain=domain), random_ds(8, domain=domain)
        target = random_ds(9, n=20, domain=domain)
        w = recovery.ShadowWeights("mst", 2, {(0, 1): 2, (1, 2): 1, (2, 3): 1})
        got = np.exp(attack.mamamia_mst(target, w, synth, aux))
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
        got = np.exp(attack.hybrid_mst(target, sdg.Structure("mst", ((0, 1), (1, 2))), synth, aux))
        want = 0.5 * (
            self._ratio(target.rows, (0, 1), synth, aux)
            + self._ratio(target.rows, (1, 2), synth, aux)
        )
        assert np.allclose(got, want, rtol=1e-12)

    def test_tamis_mst_avg_two_attributes(self):
        domain = Domain(["a", "b"], [2, 2])
        synth, aux = random_ds(13, domain=domain), random_ds(14, domain=domain)
        target = random_ds(15, n=10, domain=domain)
        got = np.exp(attack.tamis_mst_avg(target, sdg.Structure("mst", ((0, 1),)), synth, aux))
        r0 = self._ratio(target.rows, (0,), synth, aux)
        r1 = self._ratio(target.rows, (1,), synth, aux)
        r01 = self._ratio(target.rows, (0, 1), synth, aux)
        want = (r0 + r1 + r01 / (r0 * r1)) / 3.0
        assert np.allclose(got, want, rtol=1e-12)

    def test_marginals_pi_formula(self):
        domain = Domain(["a", "b", "c"], [2, 2, 3])
        synth, aux = random_ds(16, domain=domain), random_ds(17, domain=domain)
        target = random_ds(18, n=10, domain=domain)
        got = np.exp(attack.marginals_pi(target, synth, aux))
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
        logs = attack.tamis_mst(target, edges, synth, aux)

        def density(ds):
            """The tree's density in degree form: edge tables over the centre node's table."""
            floor = marginals.default_floor(len(ds))
            node_probs = {i: marginals.marginal(ds, (i,)) for i in range(3)}
            edge_probs = {e: marginals.marginal(ds, e) for e in edges.keys}
            nodes, pairs = sdg._consistent_tree_tables(node_probs, edge_probs, edges.keys, floor)
            a, b, c = target.rows.T
            return pairs[(0, 2)][a, c] * pairs[(1, 2)][b, c] / nodes[2][c]

        assert np.allclose(np.exp(logs), density(synth) / density(aux), rtol=1e-9)


def record_log_ratio(rows, attrs, synth, aux):
    """The floored marginal log ratio of each record, looked up record by record."""
    ts = marginals.marginal(synth, attrs, floor=marginals.default_floor(len(synth)))
    ta = marginals.marginal(aux, attrs, floor=marginals.default_floor(len(aux)))
    cells = tuple(rows[:, a] for a in attrs)
    return np.log(ts[cells]) - np.log(ta[cells])


class TestPerTableEqualsPerRecord:
    """The pair attacks take logs, exps and node terms per table; the same steps per record give the same bits."""

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        domain = Domain([f"a{i}" for i in range(5)], rng.integers(2, 9, size=5).tolist())
        aux = random_ds(seed, n=3000, domain=domain)
        # skewed, so that ratios are far from 1 and a reordered sum shows in the last bit
        skew = [rng.dirichlet(np.full(c, 0.3)) for c in domain.cardinalities]
        synth = Dataset(domain, np.column_stack([rng.choice(len(p), size=500, p=p) for p in skew]))
        return aux.rows, synth, aux

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical(self, seed):
        rows, synth, aux = self.inputs(seed)
        d = 5
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        tree = sdg.Structure("mst", ((0, 1), (1, 2), (1, 3), (3, 4)))
        weights = recovery.ShadowWeights("mst", 3, {(0, 1): 3, (1, 2): 1, (0, 4): 0, (2, 4): 2, (1, 3): 5})
        node = [record_log_ratio(rows, (i,), synth, aux) for i in range(d)]

        def weighted(terms):
            acc = np.zeros(len(rows))
            for key, w in terms:
                if w:
                    acc += w * np.exp(record_log_ratio(rows, key, synth, aux))
            return np.log(acc / sum(w for _, w in terms))

        def node_pair_mean(edges):
            acc = np.zeros(len(rows))
            for i in range(d):
                acc += np.exp(node[i])
            for i, j in edges:
                acc += np.exp(record_log_ratio(rows, (i, j), synth, aux) - node[i] - node[j])
            return np.log(acc / (d + len(edges)))

        product = np.zeros(len(rows))
        for i in range(d):
            product += (2 - d) * node[i]
        for i, j in pairs:
            product += record_log_ratio(rows, (i, j), synth, aux)
        want = {
            "mamamia-mst": weighted(sorted(weights.weights.items())),
            "hybrid-mst": weighted([(e, 1) for e in tree.keys]),
            "tamis-mst-avg": node_pair_mean(tree.keys),
            "marginals-sigma": node_pair_mean(pairs),
            "marginals-pi": product - np.log(d + len(pairs)),
        }
        got = {
            "mamamia-mst": attack.mamamia_mst(rows, weights, synth, aux),
            "hybrid-mst": attack.hybrid_mst(rows, tree, synth, aux),
            "tamis-mst-avg": attack.tamis_mst_avg(rows, tree, synth, aux),
            "marginals-sigma": attack.marginals_sigma(rows, synth, aux),
            "marginals-pi": attack.marginals_pi(rows, synth, aux),
        }
        for name in want:
            assert np.array_equal(got[name], want[name]), name


class TestPermutationInvariance:
    def test_marginals_sigma_column_permutation(self):
        domain = Domain(["a", "b", "c"], [2, 3, 2])
        synth, aux = random_ds(22, domain=domain), random_ds(23, domain=domain)
        target = random_ds(24, n=12, domain=domain)
        base = attack.marginals_sigma(target, synth, aux)
        perm = [2, 0, 1]
        pdom = Domain([domain.names[p] for p in perm], [domain.cardinalities[p] for p in perm])

        def permute(ds):
            return Dataset(pdom, ds.rows[:, perm])

        got = attack.marginals_sigma(permute(target), permute(synth), permute(aux))
        assert np.allclose(got, base, atol=1e-12)


class TestAggregation:
    def test_household_mean(self):
        # one mean per household, in ascending household-id order (the order of harness._household_labels)
        out = attack.aggregate_households(np.log(np.array([5.0, 0.2, 0.4])), np.array([9, 7, 7]))
        assert np.allclose(np.exp(out), [0.3, 5.0])

    def test_singleton_households_unchanged(self):
        logs = np.array([0.1, -0.4])
        out = attack.aggregate_households(logs, np.array([1, 2]))
        assert np.allclose(out, logs)

    def test_hand_grouping_three_households(self):
        logs = np.log(np.array([1.0, 3.0, 2.0, 2.0, 8.0]))
        out = attack.aggregate_households(logs, np.array([0, 0, 1, 1, 2]))
        assert np.allclose(np.exp(out), [2.0, 2.0, 8.0])

    def test_misaligned_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            attack.aggregate_households(np.zeros(3), np.array([1, 2]))


class TestActivations:
    def test_simple_zero_log_score(self):
        probs, preds = attack.activate_simple(np.array([np.log(1.0)]))
        assert probs[0] == pytest.approx(2.0 / (1 + np.exp(-1.0)) - 1.0)

    def test_simple_threshold_at_ln3(self):
        probs, preds = attack.activate_simple(np.log(np.array([1e-9, np.log(3.0), 50.0])))
        assert preds.tolist() == [0, 1, 1]
        assert probs[1] == pytest.approx(0.5)
        assert probs[2] == pytest.approx(1.0)

    def test_calibrated_half_prior_four_scores(self):
        probs, preds = attack.activate_calibrated(np.log(np.array([1.0, 2.0, 3.0, 4.0])), prior=0.5)
        assert preds.sum() == 2
        assert preds.tolist() == [0, 0, 1, 1]

    def test_calibrated_small_prior_bound(self):
        logs = np.random.default_rng(0).normal(size=100)
        for prior in (0.01, 0.05):
            _, preds = attack.activate_calibrated(logs, prior)
            assert preds.sum() <= int(np.ceil(prior * 100)) + 1

    def test_calibrated_degenerate_scores(self):
        probs, preds = attack.activate_calibrated(np.zeros(5), prior=0.5)
        assert preds.sum() == 0

    def test_calibrated_prior_validation(self):
        logs = np.arange(10.0)
        for prior in (0.0, 1.0, 1.5):
            with pytest.raises(ConfigurationError):
                attack.activate_calibrated(logs, prior)
        probs, preds = attack.activate_calibrated(logs, 0.3)
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
            logs = fn(target, *inputs[(family, needs)], synth, aux)
            assert logs.dtype == np.float64 and logs.shape == (len(target),), name

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
    base = attack.tamis_mst(target, edge, synth, aux)
    perm = np.random.default_rng(1).permutation(20)
    shuffled = attack.tamis_mst(target.subset(perm), edge, synth, aux)
    assert np.array_equal(shuffled, base[perm])


class TestDistinctRecords:
    """``score_records`` scores each distinct record once; every record must get its full-row score.

    A replica cell scores aux once and takes the target settings as a slice of
    those scores, so scoring a subset must also give the slice, bit for bit.
    """

    domain = Domain(["a", "b", "c", "d"], [3, 2, 4, 2])

    def target(self):
        # 300 records drawn from 25 in random order: duplicates, shuffled
        pool = random_ds(34, n=25, domain=self.domain).rows
        return Dataset(self.domain, pool[np.random.default_rng(35).integers(0, 25, size=300)])

    def test_every_attack_matches_full_rows_bitwise(self):
        synth, aux = random_ds(31, n=500, domain=self.domain), random_ds(32, n=500, domain=self.domain)
        target = self.target()
        idx = np.random.default_rng(38).integers(0, len(target), size=120)  # shuffled, with repeats
        recovered = {
            "mst": sdg.Structure("mst", ((0, 1), (1, 2), (2, 3))),
            "privbayes": sdg.Structure("privbayes", ((2, ()), (0, (2,)), (1, (0, 2)), (3, (1,)))),
        }
        true = {
            "mst": sdg.Structure("mst", ((0, 3), (1, 3), (2, 3))),
            "privbayes": sdg.Structure("privbayes", ((0, ()), (1, (0,)), (3, (0, 1)), (2, (3,)))),
        }
        weights = {
            "mst": recovery.ShadowWeights("mst", 3, {(0, 1): 3, (0, 2): 1, (2, 3): 2}),
            "privbayes": recovery.ShadowWeights("privbayes", 2, {(0, (2,)): 2, (3, ()): 1, (1, (0, 2)): 1}),
        }
        names = [*attack.ATTACKS, *(n + "*" for n, (_, needs) in attack.ATTACKS.items() if needs == "structure")]
        assert len(names) == len(attack.ATTACKS) + 5
        for name in names:
            family, needs, starred, fn = attack.lookup(name)
            if needs is None:
                inputs = ()
            else:
                inputs = ({"structure": true if starred else recovered, "weights": weights}[needs][family],)
            full = fn(target, *inputs, synth, aux)
            got = attack.score_records(fn, target, *inputs, synth, aux)
            assert got.dtype == np.float64 and got.shape == (len(target),), name
            assert np.array_equal(got, full), name
            assert np.array_equal(got[idx], attack.score_records(fn, target.subset(idx), *inputs, synth, aux)), name

    def test_exact_equalities_hold_on_distinct_records(self):
        synth, aux = random_ds(36, n=500, domain=self.domain), random_ds(37, n=500, domain=self.domain)
        target = self.target()
        edges = sdg.Structure("mst", ((0, 2), (1, 2), (2, 3)))
        hybrid = attack.score_records(attack.hybrid_mst, target, edges, synth, aux)
        mamamia = attack.score_records(attack.mamamia_mst, target, indicator_weights(edges.keys), synth, aux)
        assert np.array_equal(hybrid, mamamia)
        order = sdg.Structure("privbayes", ((1, ()), (0, (1,)), (2, (0, 1)), (3, (2,))))
        w = recovery.ShadowWeights("privbayes", 1, {key: 1 for key in order.keys})
        hybrid = attack.score_records(attack.hybrid_pb, target, order, synth, aux)
        mamamia = attack.score_records(attack.mamamia_pb, target, w, synth, aux)
        assert np.array_equal(hybrid, mamamia)
        fit = sdg.model_from_data
        for structure in (edges, order):
            fn = attack.tamis_mst if structure.method == "mst" else attack.tamis_pb
            rows = target.rows
            ratio = sdg.log_density(fit(synth, structure), rows) - sdg.log_density(fit(aux, structure), rows)
            assert np.array_equal(attack.score_records(fn, target, structure, synth, aux), ratio)
