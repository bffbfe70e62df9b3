import numpy as np
import pytest

from synthmia import data
from synthmia.errors import ConfigurationError, ParseError, SchemaViolation


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_first_appearance_encoding(self, tmp_path):
        ds = data.load_csv(write(tmp_path, "sex\nM\nF\nM\n"))
        assert ds.domain.cardinalities == (2,)
        assert ds.rows[:, 0].tolist() == [0, 1, 0]

    def test_header_only_file(self, tmp_path):
        ds = data.load_csv(write(tmp_path, "a,b\n"))
        assert len(ds) == 0
        assert len(ds.domain) == 2

    def test_empty_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            data.load_csv(write(tmp_path, ""))

    def test_unknown_category_under_schema(self, tmp_path):
        schema = data.Domain(["sex"], [2], [["M", "F"]])
        with pytest.raises(SchemaViolation):
            data.load_csv(write(tmp_path, "sex\nX\n"), schema)

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(ParseError):
            data.load_csv(write(tmp_path, "a,b\n1,2\n3\n"))

    def test_reserved_columns(self, tmp_path):
        ds = data.load_csv(write(tmp_path, "a,__household__,__member__\nx,7,1\ny,7,0\n"))
        assert ds.domain.names == ("a",)
        assert ds.household_id.tolist() == [7, 7]
        assert ds.membership_label.tolist() == [1, 0]

    def test_round_trip(self, tmp_path):
        aux = data.generate_households(200, n_attrs=3, max_cardinality=4, seed=5)
        path = str(tmp_path / "aux.csv")
        data.write_csv(aux, path)
        back = data.load_csv(path)
        again = data.load_csv(path, schema=back.domain)
        assert np.array_equal(back.rows, again.rows)
        assert np.array_equal(back.household_id, aux.household_id)
        assert back.decode() == aux.decode()


class TestDomainDataset:
    def test_domain_validation(self):
        with pytest.raises(ConfigurationError):
            data.Domain(["a", "a"], [2, 2])
        with pytest.raises(ConfigurationError):
            data.Domain(["a"], [0])

    def test_out_of_domain_cell(self):
        dom = data.Domain(["a"], [2])
        with pytest.raises(SchemaViolation):
            data.Dataset(dom, np.array([[2]]))

    def test_rows_immutable(self):
        ds = data.Dataset(data.Domain(["a"], [2]), np.array([[0], [1]]))
        with pytest.raises(ValueError):
            ds.rows[0, 0] = 1


class TestSnakeSplit:
    def setup_method(self):
        self.aux = data.generate_households(5000, n_attrs=4, max_cardinality=4, seed=11)
        self.spec = data.SplitSpec(
            n_target_households=20, min_household_size=4, train_size=1000, seed=3
        )

    def test_shapes_and_labels(self):
        train, target, labels = data.make_snake_split(self.aux, self.spec)
        assert len(train) == 1000
        member_hh = set(np.unique(target.household_id[labels == 1]).tolist())
        assert len(member_hh) == 10
        # member households appear fully in train
        train_keys = {tuple(r) for r in train.rows.tolist()}
        for hh in member_hh:
            for row in self.aux.rows[self.aux.household_id == hh]:
                assert tuple(row.tolist()) in train_keys

    def test_non_member_households_disjoint_from_train(self):
        train_idx, target_idx, labels = data.snake_split_indices(self.aux, self.spec)
        non_member_rows = set(target_idx[labels == 0].tolist())
        assert non_member_rows.isdisjoint(set(train_idx.tolist()))

    def test_determinism(self):
        a = data.snake_split_indices(self.aux, self.spec)
        b = data.snake_split_indices(self.aux, self.spec)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_zero_member_fraction(self):
        spec = data.SplitSpec(10, 4, 500, member_fraction_of_households=0.0, seed=1)
        train_idx, target_idx, labels = data.snake_split_indices(self.aux, spec)
        assert labels.sum() == 0
        assert set(train_idx.tolist()).isdisjoint(set(target_idx.tolist()))

    def test_insufficient_households(self):
        spec = data.SplitSpec(10**6, 4, 500, seed=1)
        with pytest.raises(ConfigurationError):
            data.snake_split_indices(self.aux, spec)

    def test_missing_household_ids(self):
        ds = data.Dataset(self.aux.domain, self.aux.rows)
        with pytest.raises(ConfigurationError):
            data.snake_split_indices(ds, self.spec)


class TestGenerateHouseholds:
    def test_determinism_and_size(self):
        a = data.generate_households(1234, seed=9)
        b = data.generate_households(1234, seed=9)
        assert len(a) == 1234
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.household_id, b.household_id)

    def test_households_partition_rows(self):
        ds = data.generate_households(800, seed=2)
        ids, counts = np.unique(ds.household_id, return_counts=True)
        assert counts.sum() == len(ds)

    def test_members_are_correlated(self):
        ds = data.generate_households(5000, n_attrs=6, resample_prob=0.1, seed=4)
        # two members of the same household agree on most attributes
        agree, pairs = 0, 0
        for hh in np.unique(ds.household_id)[:200]:
            rows = ds.rows[ds.household_id == hh]
            if len(rows) >= 2:
                agree += (rows[0] == rows[1]).mean()
                pairs += 1
        assert agree / pairs > 0.6
