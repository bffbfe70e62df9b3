import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthmia import marginals, sdg
from synthmia.data import Dataset, Domain
from synthmia.dp import Accountant, DpParams
from synthmia.errors import ConfigurationError, EstimationError, ParameterError


def make_ds(cards, rows):
    dom = Domain([f"a{i}" for i in range(len(cards))], list(cards))
    return Dataset(dom, np.array(rows, dtype=np.int64))


class TestMarginal:
    def test_three_value_column(self):
        ds = make_ds([3], [[0], [1], [1], [2]])
        table = marginals.marginal(ds, (0,))
        assert table.tolist() == [0.25, 0.5, 0.25]

    def test_correlated_pair_diagonal(self):
        ds = make_ds([2, 2], [[0, 0], [1, 1], [0, 0], [1, 1]])
        table = marginals.marginal(ds, (0, 1))
        assert table.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    def test_empty_dataset(self):
        ds = make_ds([2], np.empty((0, 1), dtype=np.int64))
        with pytest.raises(EstimationError):
            marginals.marginal(ds, (0,))

    def test_duplicate_attrs_rejected(self):
        ds = make_ds([2, 2], [[0, 0]])
        with pytest.raises(ConfigurationError):
            marginals.marginal(ds, (0, 0))

    def test_axis_sum_consistency(self):
        rng = np.random.default_rng(0)
        ds = make_ds([3, 4], rng.integers(0, [3, 4], size=(200, 2)))
        pair = marginals.marginal(ds, (0, 1))
        one = marginals.marginal(ds, (1,))
        assert np.allclose(pair.sum(axis=0), one, atol=1e-12)

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_normalization_property(self, seed):
        rng = np.random.default_rng(seed)
        cards = rng.integers(2, 5, size=3)
        ds = make_ds(cards, rng.integers(0, cards, size=(50, 3)))
        k = int(rng.integers(1, 4))
        attrs = tuple(rng.choice(3, size=k, replace=False).tolist())
        table = marginals.marginal(ds, attrs, floor=marginals.default_floor(50))
        assert abs(table.sum() - 1.0) < 1e-12
        # renormalization after flooring may shrink cells slightly below floor
        floor = marginals.default_floor(50)
        assert table.min() >= floor / (1.0 + floor * table.size)


def factor(ds, node, parents, floor=None):
    """P(node | parents) as PrivBayes' noiseless measurement of the one-factor network builds it: its probs."""
    ((attrs, probs),) = sdg.model_from_data(ds, sdg.Structure("privbayes", [(node, parents)]), floor=floor).factors
    assert attrs == tuple(parents) + (node,)
    return probs


class TestConditional:
    """The conditional tables of ``sdg.model_from_data``, the only conditional estimator."""

    def test_independent_child_rows_equal_marginal(self):
        rng = np.random.default_rng(3)
        child = rng.integers(0, 3, size=4000)
        parent = rng.integers(0, 2, size=4000)
        ds = make_ds([3, 2], np.column_stack([child, parent]))
        cond = factor(ds, 0, (1,), floor=0.0)
        one = marginals.marginal(ds, (0,))
        # brute-force oracle per parent configuration
        for v in range(2):
            sub = child[parent == v]
            oracle = np.bincount(sub, minlength=3) / sub.size
            assert np.allclose(cond[v], oracle, atol=1e-12)
            assert np.abs(cond[v] - one).max() < 0.05

    def test_unseen_parent_configuration_uniform(self):
        ds = make_ds([2, 3], [[0, 0], [1, 0], [0, 1]])
        cond = factor(ds, 0, (1,))
        assert np.allclose(cond[2], [0.5, 0.5])

    def test_empty_parents_equals_marginal(self):
        ds = make_ds([3], [[0], [1], [1], [2]])
        cond = factor(ds, 0, (), floor=0.0)
        assert np.allclose(cond, marginals.marginal(ds, (0,)))

    def test_child_in_parents_rejected(self):
        ds = make_ds([2, 2], [[0, 0]])
        with pytest.raises(ConfigurationError, match="attributes must be distinct"):
            factor(ds, 0, (0,))

    def test_block_normalization(self):
        rng = np.random.default_rng(7)
        ds = make_ds([3, 2, 2], rng.integers(0, [3, 2, 2], size=(40, 3)))
        cond = factor(ds, 0, (1, 2))
        assert np.allclose(cond.sum(axis=-1), 1.0, atol=1e-12)

    def test_chain_rule_before_flooring(self):
        rng = np.random.default_rng(9)
        rows = rng.integers(0, [2, 3], size=(60, 2))
        # ensure every parent value appears
        rows[:3, 1] = [0, 1, 2]
        ds = make_ds([2, 3], rows)
        pair = marginals.marginal(ds, (1, 0))
        cond = factor(ds, 0, (1,), floor=0.0)
        pj = marginals.marginal(ds, (1,))
        assert np.allclose(pair, cond * pj[:, None], atol=1e-12)


class TestLookup:
    def test_floor_lower_bound(self):
        ds = make_ds([2, 2], [[0, 0]] * 5)
        floor = marginals.default_floor(5)
        table = marginals.marginal(ds, (0, 1), floor=floor)
        assert table[1, 1] >= floor / (1.0 + floor * 4)

    def test_point_mass(self):
        ds = make_ds([2], [[1]] * 8)
        table = marginals.marginal(ds, (0,))
        assert table[[1]].tolist() == [1.0]

    def test_hand_counts_on_toy_data(self):
        ds = make_ds([2, 3], [[0, 0], [0, 1], [1, 1], [1, 1], [0, 2]])
        table = marginals.marginal(ds, (0, 1))
        assert table[[1, 0], [1, 2]] == pytest.approx([0.4, 0.2])


def test_table_cell_guard():
    dom = Domain([f"a{i}" for i in range(5)], [200] * 5)
    ds = Dataset(dom, np.zeros((3, 5), dtype=np.int64))
    with pytest.raises(ConfigurationError):
        marginals.counts(ds, (0, 1, 2, 3, 4))


def test_floor_probs_exhaustive_enumeration():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(6))
    probs[0] = 0.0
    probs /= probs.sum()
    floored = marginals.floor_probs(probs, 0.01)
    assert floored.min() >= 0.0099
    assert abs(floored.sum() - 1.0) < 1e-12
    # ordering preserved
    order = np.argsort(probs[1:])
    assert np.array_equal(np.argsort(floored[1:]), order)


def test_counts_order_independent():
    rng = np.random.default_rng(8)
    rows = rng.integers(0, [3, 3], size=(100, 2))
    ds1 = make_ds([3, 3], rows)
    ds2 = make_ds([3, 3], rows[::-1])
    assert np.array_equal(marginals.counts(ds1, (0, 1)), marginals.counts(ds2, (0, 1)))


def test_exhaustive_cell_count_identity():
    rng = np.random.default_rng(12)
    cards = [2, 3, 2]
    rows = rng.integers(0, cards, size=(70, 3))
    ds = make_ds(cards, rows)
    table = marginals.counts(ds, (0, 1, 2))
    for cell in itertools.product(*[range(c) for c in cards]):
        want = int(((rows == np.array(cell)).all(axis=1)).sum())
        assert table[cell] == want


def reference_counts(ds, attrs):
    shape = tuple(ds.domain.cardinalities[a] for a in attrs)
    out = np.zeros(shape, dtype=np.int64)
    np.add.at(out, tuple(ds.rows[:, a] for a in attrs), 1)
    return out


class TestCountCache:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cached_tables_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        cards = rng.integers(1, 5, size=d)
        base = make_ds(cards, rng.integers(0, cards, size=(int(rng.integers(1, 60)), d)))
        kept = [base]
        for _ in range(60):
            if rng.random() < 0.5:
                ds = kept[int(rng.integers(len(kept)))]
            else:
                # most subsets are freed after one use, so later ones may get their ids
                size = int(rng.integers(0, len(base) + 1))
                ds = base.subset(np.sort(rng.choice(len(base), size=size, replace=False)))
                if rng.random() < 0.2:
                    kept.append(ds)
            attrs = rng.permutation(d)[: int(rng.integers(1, d + 1))].tolist()
            table = marginals.counts(ds, attrs if rng.random() < 0.5 else tuple(attrs))
            assert np.array_equal(table, reference_counts(ds, attrs))
            assert table.dtype == np.int64

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 120), st.integers(1, 6))
    @example(0, 1, 0, 1)  # zero rows, one attribute
    @example(1, 1, 90, 2)  # one attribute, two distinct records
    @example(2, 3, 0, 1)  # zero rows
    @settings(max_examples=40, deadline=None)
    def test_duplicated_and_shuffled_rows_match_reference(self, seed, d, n, n_distinct):
        rng = np.random.default_rng(seed)
        cards = rng.integers(1, 5, size=d)
        # n rows drawn from at most n_distinct records: heavy duplication
        rows = rng.integers(0, cards, size=(n_distinct, d))[rng.integers(0, n_distinct, size=n)]
        ds, shuffled = make_ds(cards, rows), make_ds(cards, rng.permutation(rows))
        for r in range(1, d + 1):
            for attrs in itertools.permutations(range(d), r):
                want = reference_counts(ds, attrs)
                assert np.array_equal(marginals.counts(ds, attrs), want)
                assert np.array_equal(marginals.counts(shuffled, attrs), want)
        columns, mult, inverse = marginals.distinct(ds)
        assert columns.dtype == np.uint8 and columns.shape == (d, mult.size)
        assert mult.sum() == n and (mult >= 1).all()
        assert np.array_equal(columns.T[inverse], ds.rows)

    def test_rows_beyond_an_int64_code_match_reference(self):
        # 10**20 cells: the full-domain code overflows int64, so rows are deduplicated row-wise
        rng = np.random.default_rng(5)
        cards = [10] * 20
        rows = rng.integers(0, 10, size=(40, 20))[rng.integers(0, 40, size=300)]
        ds = make_ds(cards, rows)
        assert math.prod(cards) > 2**63
        columns, mult, inverse = marginals.distinct(ds)
        assert mult.size == len(np.unique(rows, axis=0)) and mult.sum() == 300
        assert np.array_equal(columns.T[inverse], ds.rows)
        for attrs in [(0,), (19, 3), (4, 7, 11), (1, 2, 3, 5, 8)]:
            assert np.array_equal(marginals.counts(ds, attrs), reference_counts(ds, attrs))

    def test_distinct_form_is_read_only_and_kept(self):
        ds = make_ds([2, 3], [[0, 1], [1, 2], [0, 1]])
        form = marginals.distinct(ds)
        assert marginals.distinct(ds) is form
        for arr in form:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_table_is_read_only(self):
        ds = make_ds([2, 3], [[0, 1], [1, 2], [1, 1]])
        table = marginals.counts(ds, (0, 1))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 5

    def test_list_and_tuple_share_one_entry(self):
        ds = make_ds([2, 3], [[0, 1], [1, 2], [1, 1]])
        table = marginals.counts(ds, [1, 0])
        assert marginals.counts(ds, (1, 0)) is table
        assert marginals.counts(ds, np.array([1, 0])) is table
        assert marginals.counts(ds, (0, 1)) is not table

    def test_dataset_from_view_ignores_writes_to_its_base(self):
        base = np.zeros((6, 2), dtype=np.int64)
        ds = Dataset(Domain(["a", "b"], [3, 3]), base[:4])
        before = marginals.counts(ds, (0, 1)).copy()
        base[0, 0] = 2
        assert ds.rows[0, 0] == 0
        assert np.array_equal(marginals.counts(ds, (0, 1)), before)
        assert np.array_equal(reference_counts(ds, (0, 1)), before)

    @pytest.mark.parametrize("epsilon", [1.0, math.inf])
    def test_bayes_selection_scores_each_candidate_once(self, monkeypatch, epsilon):
        calls = collections.Counter()
        score = sdg.privbayes_score

        def counted(ds, node, parents):
            calls[(node, parents)] += 1
            return score(ds, node, parents)

        monkeypatch.setattr(sdg, "privbayes_score", counted)
        rng = np.random.default_rng(4)
        cards = [2, 3, 2, 3, 2]
        ds = make_ds(cards, rng.integers(0, cards, size=(400, 5)))
        sdg._select_bayes_order(ds, Accountant(DpParams(epsilon)), np.random.default_rng(0))
        assert calls and set(calls.values()) == {1}


def one_and_two_way_keys(d):
    """Every 1-way key and every ordered pair, i > j included."""
    return [(a,) for a in range(d)] + list(itertools.permutations(range(d), 2))


def random_dataset(rng, d, n, max_card):
    cards = rng.integers(1, max_card + 1, size=d)  # cardinality 1 included
    return make_ds(cards, rng.integers(0, cards, size=(n, d)))


class TestGram:
    """Tables sliced from the gram against the same tables counted one at a time."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 300), st.integers(1, 7))
    @example(0, 3, 0, 3)  # empty
    @example(1, 4, 50, 1)  # every attribute of cardinality 1
    @settings(max_examples=60, deadline=None)
    def test_tables_equal_uncached_counts(self, seed, d, n, max_card):
        ds = random_dataset(np.random.default_rng(seed), d, n, max_card)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(marginals, "GRAM_CELLS_PER_PAIR", 10**9)  # a gram at any width
            assert d == 1 or marginals.gram(ds)[0].dtype == np.float32  # one attribute has no pairs
            for key in one_and_two_way_keys(d):
                table = marginals.counts(ds, key)
                assert table.dtype == np.int64 and not table.flags.writeable
                assert np.array_equal(table, marginals.uncached_counts(ds, key))
                assert np.array_equal(table, reference_counts(ds, key))

    @pytest.mark.parametrize("cards, built", [([6] * 10, True), ([6] * 9 + [7], False), ([4, 5], False)])
    def test_gram_only_up_to_its_cells_per_pair(self, cards, built):
        """Width 60 over 10 attributes is 3,600 gram cells for 45 pairs, 80 each; width 61 is past that."""
        ds = make_ds(cards, [[0] * len(cards)])
        assert (marginals.gram(ds) is not None) == built
        assert np.array_equal(marginals.counts(ds, (1, 0)), reference_counts(ds, (1, 0)))

    def test_one_pair_is_counted_alone(self):
        """``counts`` of one pair builds no gram; once ``pair_counts`` has built one, its tables are the same."""
        ds = random_dataset(np.random.default_rng(5), 4, 100, 3)
        alone = marginals.counts(ds, (2, 0))
        assert "gram" not in ds.__dict__[marginals._CACHE_ATTR]
        list(marginals.pair_counts(ds, [(0, 1)]))
        assert marginals.gram(ds) is not None and np.array_equal(marginals.counts(ds, (0, 2)), alone.T)

    def test_pair_counts_group_by_shape(self):
        ds = random_dataset(np.random.default_rng(3), 8, 400, 5)
        pairs = np.array(list(itertools.permutations(range(8), 2)))
        seen = []
        for at, tables in marginals.pair_counts(ds, pairs):
            assert len({tuple(ds.domain.cardinalities[a] for a in pair) for pair in pairs[at].tolist()}) == 1
            for pos, table in zip(at.tolist(), tables):
                assert np.array_equal(table, marginals.uncached_counts(ds, tuple(pairs[pos])))
            seen += at.tolist()
        assert sorted(seen) == list(range(len(pairs)))

    def test_plan_cache_keys(self, monkeypatch):
        """A kept gather plan serves only its own pairs on its own cardinalities: two pairs arrays on one
        domain, then the same arrays on a domain of equal width whose cardinalities differ."""
        monkeypatch.setattr(marginals, "GRAM_CELLS_PER_PAIR", 10**9)
        marginals._pair_plan.cache_clear()
        rng = np.random.default_rng(8)
        for cards in ((2, 3, 4, 5), (5, 4, 3, 2)):
            ds = make_ds(cards, rng.integers(0, cards, size=(300, 4)))
            for pairs in ([(0, 1), (2, 3), (3, 1)], [(3, 1), (0, 2), (1, 0)]):
                for _ in range(2):  # the second time from the kept plan
                    for at, tables in marginals.pair_counts(ds, pairs):
                        for pos, table in zip(at.tolist(), tables):
                            assert np.array_equal(table, marginals.uncached_counts(ds, pairs[pos]))
        assert marginals._pair_plan.cache_info().misses == 4

    def test_pair_past_the_storage_guard_without_a_gram(self):
        """Two attributes of 10**5 values build no gram, so their pair meets the dense-storage guard at once,
        with no gather plan made or kept for it."""
        ds = make_ds([10**5, 10**5], [[0, 0]])
        marginals._pair_plan.cache_clear()
        with pytest.raises(ConfigurationError, match="dense-storage guard"):
            marginals.pair_counts(ds, [(0, 1)])
        with pytest.raises(ConfigurationError, match="dense-storage guard"):
            sdg.mst_edge_score(ds, 0, 1)
        assert marginals._pair_plan.cache_info().currsize == 0

    @pytest.mark.parametrize("pairs", [[(1, 1)], [(0, 3)], [(-1, 0)], [(0, 1), (2, 2)]])
    def test_pair_counts_rejects_a_bad_pair(self, pairs):
        ds = make_ds([2, 3, 2], [[0, 1, 1]])
        with pytest.raises(ConfigurationError):
            list(marginals.pair_counts(ds, pairs))

    def test_empty_dataset(self):
        ds = make_ds([2, 3], np.empty((0, 2), dtype=np.int64))
        assert marginals.counts(ds, (1, 0)).tolist() == [[0, 0]] * 3
        assert marginals.counts(ds, (0,)).tolist() == [0, 0]
        with pytest.raises(EstimationError):
            marginals.marginal(ds, (0, 1))
        with pytest.raises(EstimationError):
            marginals.marginal(ds, (1,))

    def test_chunks_and_float64_and_bound(self, monkeypatch):
        rng = np.random.default_rng(11)
        want = random_dataset(rng, 5, 200, 6)
        keys = one_and_two_way_keys(5)
        tables = [reference_counts(want, key) for key in keys]
        for name, value in [("_GRAM_CHUNK", 7), ("_FLOAT32_MAX_ROWS", 0), ("GRAM_CELLS_PER_PAIR", 0)]:
            with monkeypatch.context() as patch:
                patch.setattr(marginals, "GRAM_CELLS_PER_PAIR", 10**9)
                patch.setattr(marginals, name, value)
                ds = make_ds(want.domain.cardinalities, want.rows)
                found = marginals.gram(ds)
                if name == "GRAM_CELLS_PER_PAIR":
                    assert found is None
                else:
                    assert found[0].dtype == (np.float64 if name == "_FLOAT32_MAX_ROWS" else np.float32)
                assert all(np.array_equal(marginals.counts(ds, key), t) for key, t in zip(keys, tables))
                scores = sdg.mst_edge_score(ds, *np.array(keys[5:]).T)
                assert np.array_equal(scores, sdg.mst_edge_score(want, *np.array(keys[5:]).T))

    def test_counts_past_float32_range(self):
        """Multiplicities of 2**24 + 2 rows in all (set on the distinct form, never materialised) sum in float64."""
        rows = [[0, 0], [1, 0], [2, 1]]  # in key order
        ds = make_ds([3, 2], rows)
        columns, _, inverse = marginals.distinct(make_ds([3, 2], rows))
        mult = np.array([2**24 - 1, 2, 1])
        marginals._cached(ds, "distinct", lambda: (columns, mult, inverse))
        assert marginals.gram(ds)[0].dtype == np.float64
        assert marginals.counts(ds, (1,)).tolist() == [2**24 + 1, 1]  # float32 would round it to 2**24
        assert marginals.counts(ds, (1, 0)).tolist() == [[2**24 - 1, 2, 0], [0, 0, 1]]
        for key in one_and_two_way_keys(2):
            assert np.array_equal(marginals.counts(ds, key), marginals.uncached_counts(ds, key))


class TestSubset:
    """A shadow subset as reweighted distinct rows against the subset it stands for."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 200), st.floats(0.0, 1.0))
    @example(0, 2, 1, 0.0)  # an empty subset
    @example(1, 3, 50, 1.0)  # all of it
    @settings(max_examples=60, deadline=None)
    def test_same_distinct_form_and_counts(self, seed, d, n, share):
        rng = np.random.default_rng(seed)
        base = random_dataset(rng, d, n, 4)
        idx = rng.choice(n, size=int(share * n), replace=False)
        got, want = marginals.subset(base, idx), base.subset(np.sort(idx))
        assert len(got) == len(want)
        assert got.household_id is None and got.membership_label is None
        (columns, mult, inverse), reference = marginals.distinct(got), marginals.distinct(want)
        for ours, theirs in zip((columns, mult), reference):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        assert np.array_equal(columns.T[inverse], got.rows)
        # the rows it holds are the subset's, in distinct order
        assert np.array_equal(got.rows, want.rows[np.argsort(reference[2], kind="stable")])
        for key in one_and_two_way_keys(d):
            assert np.array_equal(marginals.counts(got, key), marginals.counts(want, key))


def choice_loop(blocks, configs, rng):
    """The reference draw: one ``rng.choice`` per configuration present, ascending, over its rows in row order."""
    out = np.zeros(len(configs), dtype=np.int64)
    for c in np.unique(configs):
        mask = configs == c
        out[mask] = rng.choice(blocks.shape[1], size=int(mask.sum()), p=blocks[c])
    return out


@st.composite
def draw_cases(draw):
    """(blocks, configs, seed): random distributions with zero cells, and rows over some of their configurations."""
    n_cfg, nc = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.dirichlet(np.ones(nc), size=n_cfg)
    blocks[rng.random(blocks.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    blocks[blocks.sum(axis=1) == 0, int(rng.integers(nc))] = 1.0
    blocks /= blocks.sum(axis=1, keepdims=True)
    present = draw(st.lists(st.integers(0, n_cfg - 1), min_size=1, max_size=n_cfg, unique=True))
    configs = rng.choice(present, size=draw(st.integers(0, 80)))
    return blocks, configs, draw(st.integers(0, 2**32 - 1))


class TestDraw:
    @given(draw_cases())
    @settings(max_examples=300, deadline=None)
    @example((np.array([[0.2, 0.8]]), np.array([0]), 3))  # a single row
    @example((np.array([[1.0], [1.0]]), np.array([1, 1, 0]), 4))  # a single category
    @example((np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.1, 0.2, 0.7]]), np.array([2, 0, 2, 2, 0] * 8), 5))
    def test_equals_choice_loop(self, case):
        blocks, configs, seed = case
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = marginals.draw(blocks, configs, got_rng)
        assert got.tolist() == choice_loop(blocks, configs, want_rng).tolist()
        assert got_rng.random() == want_rng.random()  # the same generator state afterwards

    def test_within_choice_tolerance_is_accepted(self):
        blocks = np.array([[0.25, 0.75 + 1e-9], [0.5, 0.5]])
        configs = np.array([1, 0, 0, 1])
        want = choice_loop(blocks, configs, np.random.default_rng(6))
        assert marginals.draw(blocks, configs, np.random.default_rng(6)).tolist() == want.tolist()

    @pytest.mark.parametrize(
        "block", [[1.2, -0.2], [0.5, 0.6], [0.3, 0.3], [math.nan, 1.0]], ids=["negative", "over", "under", "nan"]
    )
    def test_invalid_block_is_typed(self, block):
        blocks = np.array([[0.5, 0.5], block])
        with pytest.raises(ValueError):  # what rng.choice raises
            choice_loop(blocks, np.array([1]), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="non-negative and sum to 1"):
            marginals.draw(blocks, np.array([1]), np.random.default_rng(0))
