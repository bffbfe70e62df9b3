import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthmia import marginals, recovery, sdg
from synthmia.data import Dataset, Domain
from synthmia.dp import Accountant, DpParams
from synthmia.errors import ConfigurationError, EstimationError, SchemaViolation

INF = math.inf


def make_ds(cards, rows):
    dom = Domain([f"a{i}" for i in range(len(cards))], list(cards))
    return Dataset(dom, np.array(rows, dtype=np.int64))


def random_ds(seed, d=None, n=300, max_card=4):
    rng = np.random.default_rng(seed)
    d = d or int(rng.integers(2, 5))
    cards = rng.integers(2, max_card + 1, size=d)
    return make_ds(cards, rng.integers(0, cards, size=(n, d)))


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


def tree_tables(ds, structure, floor=None):
    """Node and edge tables of a tree fitted to ds, as ``sdg.model_from_data`` makes them."""
    if floor is None:
        floor = marginals.default_floor(len(ds))
    node_probs = {i: marginals.marginal(ds, (i,)) for i in range(len(ds.domain))}
    edge_probs = {e: marginals.marginal(ds, e) for e in structure.keys}
    return sdg._consistent_tree_tables(node_probs, edge_probs, structure.keys, floor)


def reference_tree_log_density(structure, node_tables, edge_tables, rows):
    """A tree's log density in degree form: its edge tables over its node tables to the power deg - 1."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    deg = {i: 0 for i in node_tables}
    for i, j in structure.keys:
        deg[i] += 1
        deg[j] += 1
    logp = np.zeros(rows.shape[0])
    for i, table in node_tables.items():
        logp += (1 - deg[i]) * np.log(table[rows[:, i]])
    for (i, j), table in edge_tables.items():
        logp += np.log(table[rows[:, i], rows[:, j]])
    return logp


def reference_sample_tree(domain, structure, node_tables, edge_tables, n, seed):
    """Ancestral sampling from node and edge tables: root 0, breadth first over sorted neighbours."""
    rng = np.random.default_rng(seed)
    d = len(domain)
    adj = {i: [] for i in range(d)}
    for i, j in structure.keys:
        adj[i].append(j)
        adj[j].append(i)
    rows = np.zeros((n, d), dtype=np.int64)
    rows[:, 0] = rng.choice(domain.cardinalities[0], size=n, p=node_tables[0])
    visited = {0}
    queue = [0]
    while queue:
        parent = queue.pop(0)
        for child in sorted(adj[parent]):
            if child in visited:
                continue
            visited.add(child)
            queue.append(child)
            pair = edge_tables[(min(parent, child), max(parent, child))]
            if parent > child:
                pair = pair.T
            mass = pair.sum(axis=1, keepdims=True)
            cond = np.where(mass > 0, pair / np.where(mass > 0, mass, 1.0), 1.0 / pair.shape[1])
            for v in range(cond.shape[0]):
                mask = rows[:, parent] == v
                if mask.any():
                    rows[mask, child] = rng.choice(cond.shape[1], size=int(mask.sum()), p=cond[v])
    return rows


def check_factors(model):
    """The model is a density over its structure: conditionals, each parent drawn before its child."""
    d = len(model.domain)
    model.structure.validate(d)
    placed = []
    for attrs, probs in model.factors:
        assert set(attrs[:-1]) <= set(placed) and attrs[-1] not in placed
        placed.append(attrs[-1])
        assert probs.shape == tuple(model.domain.cardinalities[a] for a in attrs)
        assert probs.dtype == np.float64 and probs.flags.c_contiguous and not probs.flags.writeable
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12
    assert sorted(placed) == list(range(d))
    if model.structure.method == "mst":
        assert placed[0] == 0 and all(len(attrs) == 2 for attrs, _ in model.factors[1:])
        edges = sorted(tuple(sorted(attrs)) for attrs, _ in model.factors[1:])
        assert edges == list(model.structure.keys)
    else:
        assert [(attrs[-1], attrs[:-1]) for attrs, _ in model.factors] == list(model.structure.keys)


def factor_of(model, node):
    """The (attrs, probs) factor whose child is ``node``."""
    return next(f for f in model.factors if f[0][-1] == node)


def lookup(factor, rows):
    """The factor's probability of each of the (n, d) rows."""
    attrs, probs = factor
    return probs[tuple(rows[:, a] for a in attrs)]


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

    def test_empty_dataset_rejected(self):
        with pytest.raises(EstimationError):
            sdg.mst_edge_score(make_ds([2, 3], np.empty((0, 2), dtype=np.int64)), 0, 1)

    @pytest.mark.parametrize("d, max_card", [(2, 64), (3, 40), (3, 5), (16, 6), (16, 12)])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_batched_scores_equal_written_out_formula(self, d, max_card, noisy):
        """Every pair scored together, i > j included, equals one table scored alone, bit for bit."""
        for seed in range(3):
            rng = np.random.default_rng([seed, d, max_card])
            cards = rng.integers(2, max_card + 1, size=d)
            ds = make_ds(cards, rng.integers(0, cards, size=(int(rng.integers(1, 3000)), d)))
            one_way = {i: rng.dirichlet(np.ones(c)) for i, c in enumerate(cards)} if noisy else None
            pairs = np.array(list(itertools.permutations(range(d), 2)))
            got = sdg.mst_edge_score(ds, pairs[:, 0], pairs[:, 1], one_way)
            for (i, j), score in zip(pairs.tolist(), got.tolist()):
                pair = marginals.uncached_counts(ds, (i, j)) / len(ds)
                pi, pj = (one_way[i], one_way[j]) if noisy else (pair.sum(axis=1), pair.sum(axis=0))
                want = float(np.abs(pair - np.outer(pi, pj)).sum())
                assert score == want
                assert sdg.mst_edge_score(ds, i, j, one_way) == want


def _ipf_to_margins(pair, pi, pj):
    """Iterative proportional fitting of one 2-way table to fixed 1-way margins, to 1e-13 or 2000 sweeps."""
    out = pair.copy()
    for _ in range(2000):
        rows = out.sum(axis=1)
        out *= np.where(rows > 0, pi / np.where(rows > 0, rows, 1.0), 0.0)[:, None]
        cols = out.sum(axis=0)
        out *= np.where(cols > 0, pj / np.where(cols > 0, cols, 1.0), 0.0)[None, :]
        if np.abs(out.sum(axis=1) - pi).max() < 1e-13:
            break
    return out


@st.composite
def tree_measurements(draw):
    """(node tables, edge tables, edges, floor) of a random tree: cardinalities 1 to 12, noiseless or noisy."""
    d = draw(st.integers(2, 7))
    cards = draw(st.lists(st.integers(1, 12), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    ds = make_ds(cards, rng.integers(0, cards, size=(n, d)))
    edges = sdg.Structure("mst", [(int(rng.integers(k)), k) for k in range(1, d)]).keys
    sigma = draw(st.sampled_from([None, 1e-3, 0.05, 1.0]))
    node = {i: sdg._noisy_probs(marginals.marginal(ds, (i,)), sigma, rng) for i in range(d)}
    edge = {e: sdg._noisy_probs(marginals.marginal(ds, e), sigma, rng) for e in edges}
    floor = draw(st.sampled_from([None, 0.0, marginals.default_floor(n)]))
    return node, edge, edges, floor


class TestStackedIpf:
    """The tree's edge tables fitted a stack at a time equal each table's own IPF loop, bit for bit."""

    @staticmethod
    def assert_equals_one_edge_loop(node, edge, edges, floor):
        nodes, fitted = sdg._consistent_tree_tables(node, edge, edges, floor)
        want = {i: marginals.floor_probs(probs, floor) for i, probs in node.items()}
        assert all(np.array_equal(nodes[i], want[i]) for i in want)
        for i, j in edges:
            pair = _ipf_to_margins(marginals.floor_probs(edge[(i, j)], floor), want[i], want[j])
            assert fitted[(i, j)].flags.c_contiguous and np.array_equal(fitted[(i, j)], pair), (i, j)

    @settings(max_examples=120, deadline=None)
    @given(tree_measurements())
    def test_equals_one_edge_loop(self, measured):
        self.assert_equals_one_edge_loop(*measured)

    @pytest.mark.parametrize("cards", [(3, 12, 5, 9), (12, 1, 3, 11, 1), (9, 1, 7, 8), (1, 4, 1, 12)])
    def test_widths_on_both_sides_of_the_rule(self, cards):
        """A star whose edges have 1, up to 7 and 8 or more columns, and single columns of up to 12 rows."""
        rng = np.random.default_rng(list(cards))
        ds = make_ds(cards, rng.integers(0, cards, size=(300, len(cards))))
        edges = sdg.Structure("mst", [(0, k) for k in range(1, len(cards))]).keys
        for sigma in (None, 0.05):
            node = {i: sdg._noisy_probs(marginals.marginal(ds, (i,)), sigma, rng) for i in range(len(cards))}
            edge = {e: sdg._noisy_probs(marginals.marginal(ds, e), sigma, rng) for e in edges}
            self.assert_equals_one_edge_loop(node, edge, edges, marginals.default_floor(len(ds)))

    def test_one_column_tables(self):
        """NumPy sums the one column of a table like a row: 4 rows left to right, 9 rows with 8 accumulators.

        Edges (0, 2) and (1, 3) are single columns of 4 and 9 rows, (1, 4) has 3 columns beside (1, 3)'s 9 rows.
        """
        cards, edges = (4, 9, 1, 1, 3), ((0, 1), (0, 2), (1, 3), (1, 4))
        for seed in range(40):
            rng = np.random.default_rng(seed)
            node = {i: rng.dirichlet(np.ones(c)) for i, c in enumerate(cards)}
            edge = {(i, j): rng.dirichlet(np.ones(cards[i] * cards[j])).reshape(cards[i], cards[j]) for i, j in edges}
            self.assert_equals_one_edge_loop(node, edge, edges, None)

    def test_sweep_cap(self):
        """An edge whose margins no scaling reaches runs all 2000 sweeps beside one that stops after a few."""
        node = {0: np.array([0.5, 0.5]), 1: np.array([0.3, 0.7]), 2: np.array([0.2, 0.3, 0.5])}
        edge = {(0, 1): np.array([[0.6, 0.0], [0.0, 0.4]]), (0, 2): np.array([[0.1, 0.3, 0.2], [0.05, 0.25, 0.1]])}
        want = _ipf_to_margins(edge[(0, 1)], node[0], node[1])
        assert np.abs(want.sum(axis=1) - node[0]).max() > 0.1  # the cap, not convergence, ended it
        self.assert_equals_one_edge_loop(node, edge, ((0, 1), (0, 2)), None)


class TestFitMst:
    def test_two_attributes_single_edge(self):
        ds = random_ds(1, d=2)
        model = sdg.fit_mst(ds, DpParams(INF), 0)
        assert model.structure == sdg.Structure("mst", ((0, 1),))

    def test_spanning_tree_invariant_random_seeds(self, monkeypatch):
        made = []

        def recorded(*args):
            made.append(consistent(*args))
            return made[-1]

        consistent = sdg._consistent_tree_tables
        monkeypatch.setattr(sdg, "_consistent_tree_tables", recorded)
        ds = random_ds(2, d=5)
        for seed in range(40):
            model = sdg.fit_mst(ds, DpParams(1.0, delta=1e-9), seed)
            check_factors(model)  # spanning tree + proper conditionals in sampling order
            # the noisy, clipped edge tables IPF projected agree with their node tables
            node, edge = made[-1]
            for i, j in model.structure.keys:
                pair = edge[(i, j)]
                assert np.abs(pair.sum(axis=1) - node[i]).max() < 1e-6
                assert np.abs(pair.sum(axis=0) - node[j]).max() < 1e-6
        assert len(made) == 40

    def test_noiseless_matches_brute_force(self):
        for seed in range(10):
            ds = random_ds(100 + seed, d=4)
            model = sdg.fit_mst(ds, DpParams(INF), 0)
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
            sdg.fit_mst(ds, DpParams(1.0), 0)

    def test_budget_ledger_within_bounds(self):
        ds = random_ds(5, d=4)
        model = sdg.fit_mst(ds, DpParams(2.0, delta=1e-9), 0)
        assert model.ledger.epsilon_spent() == pytest.approx(1.0)
        assert model.ledger.delta_spent() == pytest.approx(1.0)


def reference_select_tree_edges(ds, acct, rng):
    """``sdg._select_tree_edges`` with its own step loop, as it was before both selections shared ``sdg._select``."""
    d = len(ds.domain)
    n = len(ds)
    sens = sdg._table_sensitivity(n)
    sel_frac = sdg.BUDGET_SPLIT[0]

    one_way = {}
    for i in range(d):
        sigma = acct.gaussian(f"mst/select/1way/{i}", sens, (sel_frac, 2 * d), sdg._tree_delta_share(d))
        if sigma is not None:
            one_way[i] = sdg._noisy_probs(marginals.marginal(ds, (i,)), sigma, rng)

    pairs = np.array([(i, j) for i in range(d) for j in range(i + 1, d)], dtype=np.int64).reshape(-1, 2)
    scores = sdg.mst_edge_score(ds, pairs[:, 0], pairs[:, 1], one_way or None)

    component = np.arange(d)
    edges = []
    for step in range(d - 1):
        candidates = np.flatnonzero(component[pairs[:, 0]] != component[pairs[:, 1]])
        eps_edge = acct.exponential(f"mst/select/edge/{step}", (sel_frac, 2 * (d - 1)))
        k = sdg.exponential_mechanism(scores[candidates], eps_edge, sens, rng)
        i, j = pairs[candidates[k]].tolist()
        component[component == component[j]] = component[i]
        edges.append((i, j))
    return sdg.Structure("mst", edges)


@st.composite
def selection_datasets(draw):
    """A dataset of 2-6 attributes of 1-5 values, over 1-200 rows."""
    d = draw(st.integers(2, 6))
    cards = draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_ds(cards, rng.integers(0, cards, size=(draw(st.integers(1, 200)), d)))


class TestTreeSelectionAgainstReference:
    @pytest.mark.parametrize("epsilon", [0.05, 1.0, 20.0, INF])
    @settings(max_examples=100, deadline=None)
    @given(ds=selection_datasets(), seed=st.integers(0, 2**32 - 1))
    def test_structure_rng_and_ledger_equal_the_reference(self, epsilon, ds, seed):
        acct, rng = Accountant(DpParams(epsilon, delta=1e-9)), np.random.default_rng(seed)
        ref_acct, ref_rng = Accountant(DpParams(epsilon, delta=1e-9)), np.random.default_rng(seed)
        got = sdg._select_tree_edges(ds, acct, rng)
        want = reference_select_tree_edges(ds, ref_acct, ref_rng)
        assert got == want
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())  # plain ints, as model.json writes them
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert acct.to_json() == ref_acct.to_json()


class TestBudgetTotals:
    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_generators_spend_exactly_their_budget(self, d):
        ds = random_ds(27, d=d, n=200)
        mst = sdg.fit_mst(ds, DpParams(1.0, delta=1e-9), 0).ledger
        assert len(mst.spent) == (3 * d - 1) + (d - 1)
        assert abs(mst.epsilon_spent() - 1.0) <= 1e-12
        assert abs(mst.delta_spent() - 1.0) <= 1e-12
        pb = sdg.fit_privbayes(ds, DpParams(1.0, delta=1e-9), 0).ledger
        assert len(pb.spent) == d + (d - 1)
        assert abs(pb.epsilon_spent() - 1.0) <= 1e-12
        assert pb.delta_spent() == 0.0
        # noiseless PrivBayes scores every parent subset, 2^15 of them at d = 16
        for method in ("mst", "privbayes") if d <= 8 else ("mst",):
            assert sdg.fit(ds, method, DpParams(INF, delta=1e-9), 0).ledger.spent == []


class TestTreeDensity:
    def test_two_node_tree_equals_pair_table(self):
        ds = random_ds(6, d=2)
        tree = sdg.Structure("mst", [(0, 1)])
        model = sdg.model_from_data(ds, tree)
        grid = enumerate_grid(ds.domain)
        dens = np.exp(sdg.log_density(model, grid))
        pair = tree_tables(ds, tree)[1][(0, 1)]
        assert np.allclose(dens, pair[grid[:, 0], grid[:, 1]], atol=1e-12)

    def test_path_density_hand_formula(self):
        ds = random_ds(7, d=3)
        tree = sdg.Structure("mst", [(0, 1), (1, 2)])
        model = sdg.model_from_data(ds, tree)
        node_tables, edge_tables = tree_tables(ds, tree)
        grid = enumerate_grid(ds.domain)
        a, b, c = grid.T
        want = edge_tables[(0, 1)][a, b] * edge_tables[(1, 2)][b, c] / node_tables[1][b]
        assert np.allclose(np.exp(sdg.log_density(model, grid)), want, atol=1e-12)

    def test_normalization_three_binary_attributes(self):
        ds = random_ds(8, d=3, max_card=2)
        model = sdg.model_from_data(ds, sdg.Structure("mst", [(0, 2), (1, 2)]))
        grid = enumerate_grid(ds.domain)
        assert abs(np.exp(sdg.log_density(model, grid)).sum() - 1.0) < 1e-9

    def test_single_record_scalar(self):
        ds = random_ds(9, d=2)
        model = sdg.model_from_data(ds, sdg.Structure("mst", [(0, 1)]))
        grid = enumerate_grid(ds.domain)
        one = sdg.log_density(model, np.array([0, 0]))
        assert one.shape == (1,) and one[0] == pytest.approx(sdg.log_density(model, grid)[0], abs=1e-12)


class TestSampleTree:
    def test_point_mass_tables(self):
        rows = [[1, 0, 1]] * 20
        ds = make_ds([2, 2, 2], rows)
        model = sdg.model_from_data(ds, sdg.Structure("mst", [(0, 1), (1, 2)]), floor=0.0)
        out = sdg.sample(model, 50, seed=0)
        assert (out.rows == np.array([1, 0, 1])).all()

    def test_determinism(self):
        ds = random_ds(10, d=3)
        model = sdg.model_from_data(ds, sdg.Structure("mst", [(0, 1), (1, 2)]))
        a = sdg.sample(model, 200, seed=5)
        b = sdg.sample(model, 200, seed=5)
        assert np.array_equal(a.rows, b.rows)

    def test_sampling_consistency(self):
        ds = random_ds(11, d=3, n=2000)
        tree = sdg.Structure("mst", [(0, 1), (1, 2)])
        model = sdg.model_from_data(ds, tree)
        out = sdg.sample(model, 200000, seed=1)
        for edge, table in tree_tables(ds, tree)[1].items():
            emp = marginals.marginal(out, edge)
            assert np.abs(emp - table).sum() < 0.02


@st.composite
def tree_datasets(draw):
    """(dataset, tree, floor): a random tree over 2-5 attributes of 1-4 values, fitted to few rows.

    With floor 0.0 and so few rows, some parent values have no mass.
    """
    d = draw(st.integers(2, 5))
    cards = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    perm = draw(st.permutations(range(d)))
    edges = [(perm[k], perm[draw(st.integers(0, k - 1))]) for k in range(1, d)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = make_ds(cards, rng.integers(0, cards, size=(draw(st.integers(1, 12)), d)))
    return ds, sdg.Structure("mst", edges), draw(st.sampled_from([None, 0.0]))


class TestTreeAgainstReference:
    """A tree ``Model`` samples and scores as the node and edge tables it was made from."""

    @settings(max_examples=200, deadline=None)
    @given(tree_datasets(), st.integers(0, 2**32 - 1))
    def test_sample_is_the_breadth_first_sampler(self, case, seed):
        ds, tree, floor = case
        model = sdg.model_from_data(ds, tree, floor)
        want = reference_sample_tree(ds.domain, tree, *tree_tables(ds, tree, floor), 300, seed)
        assert sdg.sample(model, 300, seed).rows.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(tree_datasets())
    def test_log_density_is_the_degree_formula(self, case):
        ds, tree, floor = case
        model = sdg.model_from_data(ds, tree, floor)
        node_tables, edge_tables = tree_tables(ds, tree, floor)
        grid = enumerate_grid(ds.domain)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = sdg.log_density(model, grid)
            want = reference_tree_log_density(tree, node_tables, edge_tables, grid)
        # the degree formula is 0 / 0 where a node value has no mass; the density there is 0
        cells = [t[grid[:, i]] for i, t in node_tables.items()]
        cells += [t[grid[:, i], grid[:, j]] for (i, j), t in edge_tables.items()]
        supported = np.all([c > 0 for c in cells], axis=0)
        assert (got[~supported] == -np.inf).all()
        # a factor divides by its edge table's parent margin, which fitting leaves within 1e-13
        # of the node table: equal densities to about 1e-13 per edge (in log, a small margin magnifies it)
        assert np.abs(np.exp(got[supported]) - np.exp(want[supported])).max(initial=0.0) <= 1e-12


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


# 10 records over a0 (3 values), a1 (3) and a2 (2) whose (a1, a0) cells are (0,2)x2, (1,0)x1,
# (2,1)x3 and (2,2)x4, and the same with the (1,0) record replaced by (0,1): the
# PrivBayes score of (a0 | a1) moves from 0.26 to 0.04, by 2.2/n
PRIVBAYES_WITNESS = tuple(
    make_ds([3, 3, 2], [[2, 0, 0]] * 2 + [changed] + [[1, 2, 0]] * 3 + [[2, 2, 0]] * 4)
    for changed in ([0, 1, 0], [1, 0, 0])
)


class TestSensitivity:
    """A one-record change moves each selection score by at most the sensitivity its selection uses."""

    @settings(max_examples=200, deadline=None)
    @given(neighbouring_datasets(), st.sampled_from([(1,), (2,), (1, 2)]))
    @example(PRIVBAYES_WITNESS, (1,))
    def test_privbayes_score(self, pair, parents):
        ds, other = pair
        diff = abs(sdg.privbayes_score(ds, 0, parents) - sdg.privbayes_score(other, 0, parents))
        assert diff <= sdg._privbayes_score_sensitivity(len(ds)) + 1e-12

    def test_privbayes_witness_exceeds_table_sensitivity(self):
        """The witness moves the score by more than 2/n, the bound of a probability table."""
        ds, other = PRIVBAYES_WITNESS
        diff = abs(sdg.privbayes_score(ds, 0, (1,)) - sdg.privbayes_score(other, 0, (1,)))
        assert diff == pytest.approx(2.2 / len(ds))
        assert diff > sdg._table_sensitivity(len(ds))

    @pytest.mark.parametrize("method, bound", [
        ("mst", sdg._table_sensitivity), ("privbayes", sdg._privbayes_score_sensitivity),
    ])
    def test_selections_are_calibrated_with_these_bounds(self, monkeypatch, method, bound):
        used = []

        def recorded(scores, epsilon, sensitivity, seed, size=None):
            used.append(sensitivity)
            return mechanism(scores, epsilon, sensitivity, seed, size)

        mechanism = sdg.exponential_mechanism
        monkeypatch.setattr(sdg, "exponential_mechanism", recorded)
        ds = random_ds(29, d=4, n=120)
        sdg.fit(ds, method, DpParams(1.0, delta=1e-9), 0)
        assert used and set(used) == {bound(120)}

    @settings(max_examples=200, deadline=None)
    @given(neighbouring_datasets(), st.integers(0, 2**32 - 1))
    def test_mst_edge_score_with_fixed_noisy_1way(self, pair, seed):
        ds, other = pair
        rng = np.random.default_rng(seed)
        # the noisy 1-way tables are measured once and shared by both datasets
        one_way = {i: rng.dirichlet(np.ones(c)) for i, c in enumerate(ds.domain.cardinalities)}
        for i, j in itertools.combinations(range(3), 2):
            diff = abs(sdg.mst_edge_score(ds, i, j, one_way) - sdg.mst_edge_score(other, i, j, one_way))
            assert diff <= sdg._table_sensitivity(len(ds)) + 1e-12


    @settings(max_examples=200, deadline=None)
    @given(neighbouring_datasets(), st.sampled_from([(), (1,), (2,), (1, 2)]))
    def test_measured_tables(self, pair, parents):
        """The tables fit_mst measures and the joint fit_privbayes measures move by at most 2/n in L1."""
        ds, other = pair
        bound = sdg._table_sensitivity(len(ds)) + 1e-12
        for attrs in [(0,), (1,), (2,), *itertools.combinations(range(3), 2)]:
            diff = marginals.marginal(ds, attrs) - marginals.marginal(other, attrs)
            assert np.abs(diff).sum() <= bound
        attrs = parents + (0,)
        diff = marginals.counts(ds, attrs) / len(ds) - marginals.counts(other, attrs) / len(other)
        assert np.abs(diff).sum() <= bound


class TestFitPrivbayes:
    def test_single_attribute(self):
        ds = random_ds(15, d=2).subset(np.arange(50))
        one = Dataset(Domain(["a0"], [ds.domain.cardinalities[0]]), ds.rows[:, :1])
        model = sdg.fit_privbayes(one, DpParams(INF), 0)
        assert model.structure == sdg.Structure("privbayes", ((0, ()),))
        assert abs(model.factors[0][1].sum() - 1.0) < 1e-12

    def test_acyclicity_over_seeds(self):
        ds = random_ds(16, d=5)
        for seed in range(40):
            model = sdg.fit_privbayes(ds, DpParams(1.0), seed)
            check_factors(model)

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
        model = sdg.fit_privbayes(ds, DpParams(INF), 2)
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
        model = sdg.fit_privbayes(ds, DpParams(1.0, theta=theta), 0)
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
                fitted = sdg.fit_privbayes(ds, DpParams(eps), seed)
                assert recovery.recover_bayesnet(ds, DpParams(eps), seed) == fitted.structure


def _reference_parent_subsets(placed, cards, limit):
    """The parent sets that fit one node's limit, enumerated again for each node (selection before one per step)."""
    out = []
    if limit >= 1:
        out.append(())
    if math.isinf(limit) and len(placed) > 20:
        raise ConfigurationError("unbounded parent-set enumeration is capped at 20 placed nodes")
    for r in range(1, len(placed) + 1):
        for comb in itertools.combinations(placed, r):
            size = 1
            for c in comb:
                size *= cards[c]
            if size <= limit:
                out.append(comb)
    return out


def reference_select_bayes_order(ds, acct, rng):
    """``sdg._select_bayes_order`` with each step's candidates built node by node from the per-node enumeration."""
    d, n = len(ds.domain), len(ds)
    sens = sdg._privbayes_score_sensitivity(n)
    cards = ds.domain.cardinalities
    threshold = sdg._domain_threshold(acct.total, n)
    first = int(rng.integers(d))
    order, placed, scored = [(first, ())], [first], {}
    if d == 1:
        return sdg.Structure("privbayes", order)
    for step in range(1, d):
        unplaced = sorted(set(range(d)) - set(placed))
        candidates = [(node, sub) for node in unplaced
                      for sub in _reference_parent_subsets(sorted(placed), cards, threshold / cards[node])]
        if not candidates:
            candidates = [(node, ()) for node in unplaced]
        for key in candidates:
            if key not in scored:
                scored[key] = sdg.privbayes_score(ds, *key)
        scores = np.array([scored[key] for key in candidates])
        eps_step = acct.exponential(f"privbayes/select/{step}", (sdg.BUDGET_SPLIT[0], d - 1))
        node, sub = candidates[sdg.exponential_mechanism(scores, eps_step, sens, rng)]
        order.append((node, sub))
        placed.append(node)
    return sdg.Structure("privbayes", order)


@st.composite
def selection_inputs(draw):
    """(cardinalities with 1s among them, threshold, seed): thresholds below 1, on a (subset, node) table's size,
    anywhere between, or infinite."""
    d = draw(st.integers(1, 7))
    cards = draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
    kind = draw(st.sampled_from(["below 1", "on a table size", "between", "infinite"]))
    if kind == "below 1":
        threshold = draw(st.floats(0.01, 0.99))
    elif kind == "on a table size":
        node = draw(st.integers(0, d - 1))
        others = [a for a in range(d) if a != node]
        parents = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others))) if others else []
        threshold = float(cards[node] * math.prod(cards[p] for p in parents))
    elif kind == "between":
        threshold = draw(st.floats(1.0, 400.0))
    else:
        threshold = INF
    return cards, threshold, draw(st.integers(0, 2**32 - 1))


class TestOneEnumerationPerStep:
    """Each selection step's candidate list equals the per-node enumeration's, entry for entry."""

    @staticmethod
    def _candidate_lists(select, cards, threshold, seed, monkeypatch):
        """Every step's candidate list when ``select`` runs with the threshold given and a uniform draw."""
        ds = make_ds(cards, np.zeros((5, len(cards)), dtype=np.int64))
        keys, lists = {}, []

        def score(ds, i, parents):
            return float(keys.setdefault((i, tuple(parents)), len(keys)))  # a score that names its candidate

        def draw(scores, epsilon, sensitivity, rng):
            lists.append([list(keys)[int(s)] for s in scores])
            return int(rng.integers(len(scores)))

        monkeypatch.setattr(sdg, "_domain_threshold", lambda dp, n: threshold)
        monkeypatch.setattr(sdg, "privbayes_score", score)
        monkeypatch.setattr(sdg, "exponential_mechanism", draw)
        structure = select(ds, Accountant(DpParams(1.0)), np.random.default_rng(seed))
        return structure, lists

    @settings(max_examples=300, deadline=None)
    @given(selection_inputs())
    @example(([2, 3, 2], 6.0, 0))  # a card-2 node takes the card-3 parent only if 3 <= 6 / 2 counts
    @example(([2, 3, 2], 6.0, 1))
    @example(([1, 1, 3], 0.5, 0))  # nothing fits: every unplaced node with no parents
    @example(([4, 1, 2, 3], INF, 5))
    def test_candidate_lists_equal_the_per_node_enumeration(self, case):
        cards, threshold, seed = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            got = self._candidate_lists(sdg._select_bayes_order, cards, threshold, seed, monkeypatch)
        with pytest.MonkeyPatch.context() as monkeypatch:
            want = self._candidate_lists(reference_select_bayes_order, cards, threshold, seed, monkeypatch)
        assert got == want

    def test_boundary_and_empty_parent_set_reach_the_lists(self, monkeypatch):
        """The exact-limit subset and () are among the candidates, so a strict < or a dropped () changes a list."""
        cards = [2, 3, 2]
        _, lists = self._candidate_lists(sdg._select_bayes_order, cards, 6.0, 0, monkeypatch)
        flat = {key for step in lists for key in step}
        assert any(not parents for _, parents in flat)
        assert any(parents and cards[node] * math.prod(cards[p] for p in parents) == 6 for node, parents in flat)

    def test_subsets_come_in_combinations_order_with_their_sizes(self):
        cards = (2, 1, 3, 4)
        got = sdg._parent_subsets([0, 1, 3], cards, 10.0)
        assert [sub for sub, _ in got] == [(), (0,), (1,), (3,), (0, 1), (0, 3), (1, 3), (0, 1, 3)]
        assert [size for _, size in got] == [1, 2, 1, 4, 2, 8, 4, 8]

    def test_unbounded_cap_raises_past_20_placed_nodes(self):
        placed, cards = list(range(21)), [2] * 22
        with pytest.raises(ConfigurationError, match="capped at 20 placed nodes"):
            sdg._parent_subsets(placed, cards, INF)
        with pytest.raises(ConfigurationError, match="capped at 20 placed nodes"):
            _reference_parent_subsets(placed, cards, INF / cards[21])

    @pytest.mark.parametrize("epsilon", [0.05, 1.0, 20.0, INF])
    def test_structures_rng_and_ledger_equal_the_reference(self, epsilon):
        for seed in range(6):
            ds = random_ds(40 + seed, d=5, n=200, max_card=5)
            acct, rng = Accountant(DpParams(epsilon)), np.random.default_rng(seed)
            ref_acct, ref_rng = Accountant(DpParams(epsilon)), np.random.default_rng(seed)
            assert sdg._select_bayes_order(ds, acct, rng) == reference_select_bayes_order(ds, ref_acct, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert acct.to_json() == ref_acct.to_json()


class TestBayesDensity:
    def test_empty_parents_product_of_marginals(self):
        ds = random_ds(20, d=3)
        order = sdg.Structure("privbayes", ((0, ()), (1, ()), (2, ())))
        model = sdg.model_from_data(ds, order)
        grid = enumerate_grid(ds.domain)
        want = np.ones(len(grid))
        for i in range(3):
            want *= lookup(factor_of(model, i), grid)
        assert np.allclose(np.exp(sdg.log_density(model, grid)), want, atol=1e-12)

    def test_normalization(self):
        ds = random_ds(21, d=3, max_card=2)
        model = sdg.model_from_data(ds, sdg.Structure("privbayes", ((2, ()), (0, (2,)), (1, (0, 2)))))
        grid = enumerate_grid(ds.domain)
        assert abs(np.exp(sdg.log_density(model, grid)).sum() - 1.0) < 1e-9

    def test_chain_rule_hand_value(self):
        ds = random_ds(22, d=3)
        model = sdg.model_from_data(ds, sdg.Structure("privbayes", ((0, ()), (1, (0,)), (2, (1,)))))
        x = ds.rows[0]
        want = (
            lookup(factor_of(model, 0), x[None, :])[0]
            * lookup(factor_of(model, 1), x[None, :])[0]
            * lookup(factor_of(model, 2), x[None, :])[0]
        )
        assert np.exp(sdg.log_density(model, x))[0] == pytest.approx(want, abs=1e-15)


class TestSampleBayes:
    def test_point_mass(self):
        ds = make_ds([2, 2], [[1, 0]] * 10)
        model = sdg.model_from_data(ds, sdg.Structure("privbayes", ((0, ()), (1, (0,)))), floor=0.0)
        out = sdg.sample(model, 30, seed=0)
        assert (out.rows == np.array([1, 0])).all()

    def test_determinism(self):
        ds = random_ds(23, d=3)
        model = sdg.model_from_data(ds, sdg.Structure("privbayes", ((0, ()), (1, (0,)), (2, (1,)))))
        a = sdg.sample(model, 100, seed=9)
        b = sdg.sample(model, 100, seed=9)
        assert np.array_equal(a.rows, b.rows)

    def test_sampling_consistency(self):
        ds = random_ds(24, d=3, n=2000)
        model = sdg.model_from_data(ds, sdg.Structure("privbayes", ((0, ()), (1, (0,)), (2, (0, 1)))))
        out = sdg.sample(model, 200000, seed=2)
        cards = out.domain.cardinalities
        joint = np.bincount(np.ravel_multi_index(out.rows.T, cards), minlength=math.prod(cards)).reshape(cards)
        emp = joint / joint.sum(axis=-1, keepdims=True)  # every parent configuration is drawn
        assert np.abs(emp - factor_of(model, 2)[1]).max() < 0.02


class TestModelFromData:
    """The attacker's noiseless model is the generator's own measurement at epsilon = inf."""

    @pytest.mark.parametrize("method", ["mst", "privbayes"])
    @pytest.mark.parametrize("seed", range(4))
    def test_is_the_noiseless_fit(self, method, seed):
        ds = random_ds(60 + seed, d=4)
        fitted = sdg.fit(ds, method, DpParams(INF), seed)
        model = sdg.model_from_data(ds, fitted.structure)
        assert model.structure == fitted.structure
        assert [attrs for attrs, _ in model.factors] == [attrs for attrs, _ in fitted.factors]
        assert [probs.tobytes() for _, probs in model.factors] == [probs.tobytes() for _, probs in fitted.factors]

    @pytest.mark.parametrize("structure", [
        sdg.Structure("mst", [(0, 1)]), sdg.Structure("privbayes", ((0, ()), (1, (0,)))),
    ])
    def test_empty_dataset(self, structure):
        with pytest.raises(EstimationError):
            sdg.model_from_data(make_ds([2, 2], np.zeros((0, 2))), structure)


@pytest.mark.parametrize("method", ["mst", "privbayes"])
def test_log_density_rejects_rows_outside_the_domain(method):
    model = sdg.fit(random_ds(28, d=3), method, DpParams(INF), 0)
    # past the last attribute's cardinality, a flat cell index would land inside the table
    for a, card in enumerate(model.domain.cardinalities):
        for bad in (-1, card):
            row = [0, 0, 0]
            row[a] = bad
            with pytest.raises(SchemaViolation, match="cell value outside its attribute domain"):
                sdg.log_density(model, [[0, 0, 0], row])
    with pytest.raises(SchemaViolation, match=r"rows must be a \(n, d\) matrix matching the domain"):
        sdg.log_density(model, [[0, 0]])


BAD_ROWS = {  # over cardinalities (2, 3, 2)
    "negative cell": ([[0, 0, 0], [0, -1, 0]], "cell value outside its attribute domain"),
    "cell equal to its cardinality": ([[0, 0, 2]], "cell value outside its attribute domain"),
    "wrong width": ([[0, 0]], "rows must be a (n, d) matrix matching the domain"),
    "3-D array": ([[[0, 0, 0]]], "rows must be a (n, d) matrix matching the domain"),
}


@pytest.mark.parametrize("entry", ["Dataset", "log_density"])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_bad_rows_raise_one_message_at_both_entry_points(entry, case):
    rows, message = BAD_ROWS[case]
    ds = make_ds([2, 3, 2], [[0, 0, 0], [1, 2, 1]])
    with pytest.raises(SchemaViolation) as err:
        if entry == "Dataset":
            Dataset(ds.domain, np.array(rows))
        else:
            sdg.log_density(sdg.fit(ds, "privbayes", DpParams(INF), 0), rows)
    assert str(err.value) == message


@pytest.mark.parametrize("method", ["mst", "privbayes"])
def test_negative_sample_size(method):
    model = sdg.fit(random_ds(28, d=3), method, DpParams(INF), 0)
    with pytest.raises(ConfigurationError, match="sample size must be >= 0"):
        sdg.sample(model, -1, seed=0)
    assert sdg.sample(model, 0, seed=0).rows.shape == (0, 3)


class TestSerialization:
    """model.json holds the structure and every factor, in sampling order."""

    def _check(self, model, tmp_path):
        path = tmp_path / "model.json"
        sdg.model_to_file(model, str(path))
        obj = json.loads(path.read_text())
        assert list(obj) == ["method", "domain", "edges" if model.structure.method == "mst" else "order",
                             "factors", "ledger"]
        assert obj["domain"] == model.domain.to_json()
        assert sdg.Structure.from_json(obj) == model.structure
        assert len(obj["factors"]) == len(model.factors)
        for factor, (attrs, probs) in zip(obj["factors"], model.factors):
            assert (factor["child"], tuple(factor["parents"])) == (attrs[-1], attrs[:-1])
            assert np.array_equal(np.array(factor["probs"]).reshape(factor["shape"]), probs)

    def test_tree_round_trip(self, tmp_path):
        model = sdg.fit_mst(random_ds(25, d=3), DpParams(INF), 0)
        self._check(model, tmp_path)

    def test_bayes_round_trip(self, tmp_path):
        model = sdg.fit_privbayes(random_ds(26, d=3), DpParams(INF), 0)
        self._check(model, tmp_path)


def test_generator_config_validation():
    with pytest.raises(ConfigurationError):
        sdg.fit(random_ds(30, d=3), "nope", DpParams(1.0), 0)
