import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthmia import marginals, recovery, sdg
from synthmia.data import Dataset, Domain
from synthmia.dp import DpParams
from synthmia.errors import ConfigurationError

INF = math.inf


def make_ds(cards, rows):
    dom = Domain([f"a{i}" for i in range(len(cards))], list(cards))
    return Dataset(dom, np.array(rows, dtype=np.int64))


def random_ds(seed, d=None, n=300, max_card=4):
    rng = np.random.default_rng(seed)
    d = d or int(rng.integers(2, 5))
    cards = rng.integers(2, max_card + 1, size=d)
    return make_ds(cards, rng.integers(0, cards, size=(n, d)))


def noiseless_cfg(method, seed=0):
    return sdg.GeneratorConfig(method, DpParams(INF, seed=seed))


def enumerate_grid(domain):
    return np.array(list(itertools.product(*[range(c) for c in domain.cardinalities])))


def all_spanning_trees(d):
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for combo in itertools.combinations(pairs, d - 1):
        parent = list(range(d))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for i, j in combo:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            yield combo


class TestEdgeScore:
    def test_independent_population_zero(self):
        rows = [[i, j] for i in range(2) for j in range(2)]
        ds = make_ds([2, 2], rows)
        assert sdg.mst_edge_score(ds, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_pair(self):
        ds = make_ds([2, 2], [[0, 0], [1, 1], [0, 0], [1, 1]])
        assert sdg.mst_edge_score(ds, 0, 1) == pytest.approx(1.0)

    def test_symmetry(self):
        ds = random_ds(4)
        assert sdg.mst_edge_score(ds, 0, 1) == pytest.approx(sdg.mst_edge_score(ds, 1, 0))

    def test_same_attribute_rejected(self):
        with pytest.raises(ConfigurationError):
            sdg.mst_edge_score(random_ds(0), 1, 1)


class TestFitMst:
    def test_two_attributes_single_edge(self):
        ds = random_ds(1, d=2)
        model = sdg.fit_mst(ds, noiseless_cfg("mst"))
        assert model.structure == sdg.Structure("mst", ((0, 1),))

    def test_spanning_tree_invariant_random_seeds(self):
        ds = random_ds(2, d=5)
        for seed in range(40):
            cfg = sdg.GeneratorConfig("mst", DpParams(1.0, delta=1e-9, seed=seed))
            model = sdg.fit_mst(ds, cfg)
            model.validate()  # spanning tree + table consistency

    def test_noiseless_matches_brute_force(self):
        for seed in range(10):
            ds = random_ds(100 + seed, d=4)
            model = sdg.fit_mst(ds, noiseless_cfg("mst"))
            scores = {
                (i, j): sdg.mst_edge_score(ds, i, j)
                for i in range(4)
                for j in range(i + 1, 4)
            }
            best = max(all_spanning_trees(4), key=lambda t: sum(scores[e] for e in t))
            assert sum(scores[e] for e in model.structure.keys) == pytest.approx(
                sum(scores[e] for e in best), abs=1e-12
            )

    def test_finite_epsilon_needs_delta(self):
        ds = random_ds(3)
        with pytest.raises(ConfigurationError):
            sdg.fit_mst(ds, sdg.GeneratorConfig("mst", DpParams(1.0)))

    def test_budget_ledger_within_bounds(self):
        ds = random_ds(5, d=4)
        cfg = sdg.GeneratorConfig("mst", DpParams(2.0, delta=1e-9, seed=0))
        model = sdg.fit_mst(ds, cfg)
        assert model.ledger.epsilon_spent() == pytest.approx(1.0)
        assert model.ledger.delta_spent() == pytest.approx(1.0)


class TestTreeDensity:
    def test_two_node_tree_equals_pair_table(self):
        ds = random_ds(6, d=2)
        model = sdg.tree_model_from_data(ds, sdg.Structure("mst", [(0, 1)]))
        grid = enumerate_grid(ds.domain)
        dens = sdg.tree_density(model, grid)
        pair = model.edge_tables[(0, 1)]
        assert np.allclose(dens, pair.lookup_rows(grid), atol=1e-12)

    def test_path_density_hand_formula(self):
        ds = random_ds(7, d=3)
        model = sdg.tree_model_from_data(ds, sdg.Structure("mst", [(0, 1), (1, 2)]))
        grid = enumerate_grid(ds.domain)
        want = (
            model.edge_tables[(0, 1)].lookup_rows(grid)
            * model.edge_tables[(1, 2)].lookup_rows(grid)
            / model.node_tables[1].lookup_rows(grid)
        )
        assert np.allclose(sdg.tree_density(model, grid), want, atol=1e-12)

    def test_normalization_three_binary_attributes(self):
        ds = random_ds(8, d=3, max_card=2)
        model = sdg.tree_model_from_data(ds, sdg.Structure("mst", [(0, 2), (1, 2)]))
        grid = enumerate_grid(ds.domain)
        assert abs(sdg.tree_density(model, grid).sum() - 1.0) < 1e-9

    def test_single_record_scalar(self):
        ds = random_ds(9, d=2)
        model = sdg.tree_model_from_data(ds, sdg.Structure("mst", [(0, 1)]))
        assert isinstance(sdg.tree_density(model, np.array([0, 0])), float)


class TestSampleTree:
    def test_point_mass_tables(self):
        rows = [[1, 0, 1]] * 20
        ds = make_ds([2, 2, 2], rows)
        model = sdg.tree_model_from_data(ds, sdg.Structure("mst", [(0, 1), (1, 2)]), floor=0.0)
        out = sdg.sample_tree(model, 50, seed=0)
        assert (out.rows == np.array([1, 0, 1])).all()

    def test_determinism(self):
        ds = random_ds(10, d=3)
        model = sdg.tree_model_from_data(ds, sdg.Structure("mst", [(0, 1), (1, 2)]))
        a = sdg.sample_tree(model, 200, seed=5)
        b = sdg.sample_tree(model, 200, seed=5)
        assert np.array_equal(a.rows, b.rows)

    def test_sampling_consistency(self):
        ds = random_ds(11, d=3, n=2000)
        model = sdg.tree_model_from_data(ds, sdg.Structure("mst", [(0, 1), (1, 2)]))
        out = sdg.sample_tree(model, 200000, seed=1)
        for edge, table in model.edge_tables.items():
            emp = marginals.marginal(out, edge).probs
            assert np.abs(emp - table.probs).sum() < 0.02


class TestPrivbayesScore:
    def test_empty_parents_zero(self):
        assert sdg.privbayes_score(random_ds(12), 0, ()) == 0.0

    def test_independent_population_zero(self):
        rows = [[i, j] for i in range(2) for j in range(2)]
        ds = make_ds([2, 2], rows)
        assert sdg.privbayes_score(ds, 0, (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_correlated_pair_half(self):
        ds = make_ds([2, 2], [[0, 0], [1, 1], [0, 0], [1, 1]])
        assert sdg.privbayes_score(ds, 0, (1,)) == pytest.approx(0.5)

    def test_self_parent_rejected(self):
        with pytest.raises(ConfigurationError):
            sdg.privbayes_score(random_ds(14), 0, (0,))


@st.composite
def neighbouring_datasets(draw):
    """Two datasets of n records over 3 attributes that differ in one record."""
    cards = draw(st.lists(st.integers(2, 4), min_size=3, max_size=3))
    record = st.tuples(*(st.integers(0, c - 1) for c in cards))
    rows = draw(st.lists(record, min_size=1, max_size=25))
    changed = list(rows)
    changed[draw(st.integers(0, len(rows) - 1))] = draw(record)
    return make_ds(cards, rows), make_ds(cards, changed)


class TestSensitivity:
    """A one-record change moves every selection score by at most 2/n."""

    @settings(max_examples=200, deadline=None)
    @given(neighbouring_datasets(), st.sampled_from([(1,), (2,), (1, 2)]))
    def test_privbayes_score(self, pair, parents):
        ds, other = pair
        diff = abs(sdg.privbayes_score(ds, 0, parents) - sdg.privbayes_score(other, 0, parents))
        assert diff <= 2.0 / len(ds) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(neighbouring_datasets(), st.integers(0, 2**32 - 1))
    def test_mst_edge_score_with_fixed_noisy_1way(self, pair, seed):
        ds, other = pair
        rng = np.random.default_rng(seed)
        # the noisy 1-way tables are measured once and shared by both datasets
        one_way = {
            i: marginals.MarginalTable((i,), rng.dirichlet(np.ones(c)), len(ds))
            for i, c in enumerate(ds.domain.cardinalities)
        }
        for i, j in itertools.combinations(range(3), 2):
            diff = abs(sdg.mst_edge_score(ds, i, j, one_way) - sdg.mst_edge_score(other, i, j, one_way))
            assert diff <= 2.0 / len(ds) + 1e-12


class TestFitPrivbayes:
    def test_single_attribute(self):
        ds = random_ds(15, d=2).subset(np.arange(50))
        one = Dataset(Domain(["a0"], [ds.domain.cardinalities[0]]), ds.rows[:, :1])
        model = sdg.fit_privbayes(one, noiseless_cfg("privbayes"))
        assert model.structure == sdg.Structure("privbayes", ((0, ()),))
        assert abs(model.cond_tables[0].probs.sum() - 1.0) < 1e-12

    def test_acyclicity_over_seeds(self):
        ds = random_ds(16, d=5)
        for seed in range(40):
            cfg = sdg.GeneratorConfig("privbayes", DpParams(1.0, seed=seed))
            model = sdg.fit_privbayes(ds, cfg)
            model.validate()

    def test_chain_structure_recovered_noiseless(self):
        # strong markov chain: each attribute nearly copies its predecessor
        rng = np.random.default_rng(17)
        n, d = 100000, 4
        rows = np.empty((n, d), dtype=np.int64)
        rows[:, 0] = rng.integers(0, 3, size=n)
        for k in range(1, d):
            flip = rng.random(n) < 0.05
            rows[:, k] = np.where(flip, rng.integers(0, 3, size=n), rows[:, k - 1])
        ds = make_ds([3] * d, rows)
        model = sdg.fit_privbayes(ds, noiseless_cfg("privbayes", seed=2))
        placed = set()
        for node, parents in model.structure.keys:
            # chain dependencies: every chosen parent must be a true ancestor
            assert set(parents) <= placed
            placed.add(node)
        # at least one non-trivial parent set must be picked
        assert any(parents for _, parents in model.structure.keys)

    def test_theta_constraint_respected(self):
        ds = random_ds(18, d=4, n=500)
        theta = 8.0 / 500
        cfg = sdg.GeneratorConfig("privbayes", DpParams(1.0, theta=theta, seed=0))
        model = sdg.fit_privbayes(ds, cfg)
        limit = theta * 1.0 * 500
        for node, parents in model.structure.keys:
            size = ds.domain.cardinalities[node]
            for p in parents:
                size *= ds.domain.cardinalities[p]
            assert size <= limit or not parents

    def test_recover_bayesnet_matches_fit_order(self):
        # the recovery run draws the same random numbers as the fit's selection
        ds = random_ds(19, d=4)
        for eps in (0.5, 10.0, INF):
            for seed in range(5):
                dp = DpParams(eps, seed=seed)
                fitted = sdg.fit_privbayes(ds, sdg.GeneratorConfig("privbayes", dp))
                assert recovery.recover_bayesnet(ds, dp) == fitted.structure


class TestBayesDensity:
    def test_empty_parents_product_of_marginals(self):
        ds = random_ds(20, d=3)
        order = sdg.Structure("privbayes", ((0, ()), (1, ()), (2, ())))
        model = sdg.bayes_model_from_data(ds, order)
        grid = enumerate_grid(ds.domain)
        want = np.ones(len(grid))
        for i in range(3):
            want *= model.cond_tables[i].lookup_rows(grid)
        assert np.allclose(sdg.bayes_density(model, grid), want, atol=1e-12)

    def test_normalization(self):
        ds = random_ds(21, d=3, max_card=2)
        model = sdg.bayes_model_from_data(ds, sdg.Structure("privbayes", ((2, ()), (0, (2,)), (1, (0, 2)))))
        grid = enumerate_grid(ds.domain)
        assert abs(sdg.bayes_density(model, grid).sum() - 1.0) < 1e-9

    def test_chain_rule_hand_value(self):
        ds = random_ds(22, d=3)
        model = sdg.bayes_model_from_data(ds, sdg.Structure("privbayes", ((0, ()), (1, (0,)), (2, (1,)))))
        x = ds.rows[0]
        want = (
            model.cond_tables[0].lookup(x)
            * model.cond_tables[1].lookup(x)
            * model.cond_tables[2].lookup(x)
        )
        assert sdg.bayes_density(model, x) == pytest.approx(want, abs=1e-15)


class TestSampleBayes:
    def test_point_mass(self):
        ds = make_ds([2, 2], [[1, 0]] * 10)
        model = sdg.bayes_model_from_data(ds, sdg.Structure("privbayes", ((0, ()), (1, (0,)))), floor=0.0)
        out = sdg.sample_bayes(model, 30, seed=0)
        assert (out.rows == np.array([1, 0])).all()

    def test_determinism(self):
        ds = random_ds(23, d=3)
        model = sdg.bayes_model_from_data(ds, sdg.Structure("privbayes", ((0, ()), (1, (0,)), (2, (1,)))))
        a = sdg.sample_bayes(model, 100, seed=9)
        b = sdg.sample_bayes(model, 100, seed=9)
        assert np.array_equal(a.rows, b.rows)

    def test_sampling_consistency(self):
        ds = random_ds(24, d=3, n=2000)
        model = sdg.bayes_model_from_data(ds, sdg.Structure("privbayes", ((0, ()), (1, (0,)), (2, (0, 1)))))
        out = sdg.sample_bayes(model, 200000, seed=2)
        emp = marginals.conditional(out, 2, (0, 1), floor=0.0).probs
        assert np.abs(emp - model.cond_tables[2].probs).max() < 0.02


class TestSerialization:
    def test_tree_round_trip(self, tmp_path):
        ds = random_ds(25, d=3)
        model = sdg.fit_mst(ds, noiseless_cfg("mst"))
        path = str(tmp_path / "tree.json")
        sdg.model_to_file(model, path)
        back = sdg.model_from_file(path)
        assert back.structure == model.structure
        for i in back.node_tables:
            assert np.allclose(back.node_tables[i].probs, model.node_tables[i].probs)

    def test_bayes_round_trip(self, tmp_path):
        ds = random_ds(26, d=3)
        model = sdg.fit_privbayes(ds, noiseless_cfg("privbayes"))
        path = str(tmp_path / "bn.json")
        sdg.model_to_file(model, path)
        back = sdg.model_from_file(path)
        assert back.structure == model.structure
        for i in back.cond_tables:
            assert np.allclose(back.cond_tables[i].probs, model.cond_tables[i].probs)


def test_generator_config_validation():
    with pytest.raises(ConfigurationError):
        sdg.GeneratorConfig("nope", DpParams(1.0))
