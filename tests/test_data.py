import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synthmia import data
from synthmia.errors import ConfigurationError, ParseError, SchemaViolation, SynthmiaError

RESERVED = (data.HOUSEHOLD_COLUMN, data.MEMBER_COLUMN)
# labels with the characters CSV quoting must survive, non-ASCII ones, "" and
# labels wider than the 8 bytes of an integer key
LABELS = st.text(alphabet='ab ,"\n\r\té中', max_size=3) | st.text(alphabet='ab,"中', min_size=9, max_size=12)
# labels a file can hold unquoted
PLAIN_LABELS = st.text(alphabet="ab \té中", max_size=3) | st.text(alphabet="ab中", min_size=9, max_size=12)
NAMES = st.lists(st.text(alphabet='ab_é,"', min_size=1, max_size=3), min_size=1, max_size=3, unique=True)
INT64 = st.integers(-(2**63), 2**63 - 1)
# reserved cells of 1 to 18 ASCII digits, which load_csv may parse digit by digit
DIGIT_IDS = st.integers(0, 10**18 - 1).map(str) | st.sampled_from(["007", "0", "9" * 18])
# any integer int() reads, in the spellings it allows: signs, spaces, "_", other scripts' digits, 19 digits
LENIENT_IDS = st.sampled_from(["-0", "+5", " 7", "7 ", "1_000", "٣", "1" + "0" * 18, "0" * 19])
IDS = DIGIT_IDS | INT64.map(str) | LENIENT_IDS
BAD_INTS = st.sampled_from(["x", "1.5", "", "0x1", "2e3", str(2**63), str(-(2**63) - 1)])


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def reference_load_csv(path, schema=None):
    """Row-by-row reference for data.load_csv: every cell encoded in turn."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        records = list(reader)
    for name in RESERVED:
        if header.count(name) > 1:
            raise ParseError(f"{path}: column {name} appears {header.count(name)} times, at most once allowed")
    data_cols = [i for i, name in enumerate(header) if name not in RESERVED]
    names = [header[i] for i in data_cols]
    for r, rec in enumerate(records):
        if len(rec) != len(header):
            raise ParseError(f"{path}: row {r + 2} has {len(rec)} cells, expected {len(header)}")
    if schema is not None:
        if list(schema.names) != names:
            raise SchemaViolation(f"{path}: header {names} does not match schema {list(schema.names)}")
        encoders = [{label: i for i, label in enumerate(schema.labels(a))} for a in range(len(schema))]
    else:
        encoders = [{} for _ in names]
    rows = []
    for rec in records:
        row = []
        for a, c in enumerate(data_cols):
            if rec[c] not in encoders[a]:
                if schema is not None:
                    raise SchemaViolation(f"{path}: unknown category {rec[c]!r} in column {names[a]!r}")
                encoders[a][rec[c]] = len(encoders[a])
            row.append(encoders[a][rec[c]])
        rows.append(row)
    if schema is None:
        categories = [list(enc) or [""] for enc in encoders]
        schema = data.Domain(names, [len(c) for c in categories], categories)
    ids = []
    for name in RESERVED:
        if name not in header:
            ids.append(None)
            continue
        col, column = header.index(name), []
        for r, rec in enumerate(records):
            try:
                value = int(rec[col])
            except ValueError:
                value = None
            if value is None or not -(2**63) <= value < 2**63:
                raise ParseError(f"{path}: row {r + 2}: {name} {rec[col]!r} is not an integer")
            column.append(value)
        ids.append(column)
    return data.Dataset(schema, np.array(rows, dtype=np.int64).reshape(len(rows), len(names)), *ids)


def load_outcome(load, path, schema):
    """What a loader returns, as comparable values, or the type and message of its error."""
    try:
        ds = load(path, schema)
    except SynthmiaError as exc:
        return type(exc), str(exc)
    ids = [None if v is None else v.tolist() for v in (ds.household_id, ds.membership_label)]
    return ds.domain, ds.rows.tolist(), ids


@st.composite
def csv_files(draw):
    """(CSV text, schema or None): tricky labels, reserved columns anywhere, at most one fault.

    A file is written by csv.writer or, quote-free, by joining its cells with
    commas, with CRLF or LF line ends (a quote-free file may mix them) and
    maybe no final line end; a lone CR or a NUL may sit inside a label.
    """
    plain = draw(st.booleans())
    names = draw(NAMES.filter(lambda names: not plain or not any(set(name) & set(',"') for name in names)))
    n = draw(st.integers(0, 6))
    columns = [draw(st.lists(PLAIN_LABELS if plain else LABELS, min_size=n, max_size=n)) for _ in names]
    if n and draw(st.booleans()):
        label = draw(st.sampled_from(["a\rb", "\r", "a\x00", "\x00"]))
        columns[draw(st.integers(0, len(names) - 1))][draw(st.integers(0, n - 1))] = label
    header, cols = list(names), list(columns)
    for name in RESERVED:
        if draw(st.booleans()):
            at = draw(st.integers(0, len(header)))
            header.insert(at, name)
            cols.insert(at, draw(st.lists(DIGIT_IDS if draw(st.booleans()) else IDS, min_size=n, max_size=n)))
    records = [list(rec) for rec in zip(*cols)]
    fault = draw(st.sampled_from(["none", "ragged", "reserved", "unknown", "duplicate", "blank"]))
    schema = None
    if fault == "unknown" or draw(st.booleans()):
        cats = [draw(st.permutations(list(dict.fromkeys(col)) or [""])) for col in columns]
        if draw(st.booleans()):
            # a schema label the file never uses
            cats[0] = [*cats[0], "unused"]
        schema = data.Domain(names, [len(c) for c in cats], cats)
    if fault == "ragged" and records:
        r = draw(st.integers(0, n - 1))
        records[r] = records[r][:-1] if draw(st.booleans()) else [*records[r], "x"]
    elif fault == "reserved" and records and len(header) > len(names):
        reserved_cols = [i for i, name in enumerate(header) if name in RESERVED]
        records[draw(st.integers(0, n - 1))][draw(st.sampled_from(reserved_cols))] = draw(BAD_INTS)
    elif fault == "unknown" and records:
        # distinct labels, so the message tells which cell was reported
        data_at = [i for i, name in enumerate(header) if name not in RESERVED]
        for k in range(draw(st.integers(1, 3))):
            records[draw(st.integers(0, n - 1))][draw(st.sampled_from(data_at))] = f"unknown{k}"
    elif fault == "duplicate":
        header.append(draw(st.sampled_from(RESERVED)))
        records = [[*rec, "0"] for rec in records]
    elif fault == "blank":
        records.insert(draw(st.integers(0, n)), [])
    eol = draw(st.sampled_from(["\r\n", "\n"]))
    if plain:
        mixed = draw(st.booleans())
        ends = [draw(st.sampled_from(["\r\n", "\n"])) if mixed else eol for _ in range(len(records) + 1)]
        eol = ends[-1]
        text = "".join(",".join(rec) + end for rec, end in zip([header, *records], ends))
    else:
        buf = io.StringIO()
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        writer = csv.writer(buf, quoting=quoting, lineterminator=eol)
        writer.writerow(header)
        writer.writerows(records)
        text = buf.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(eol)
    return draw(st.sampled_from(["", "\ufeff"])) + text, schema


@st.composite
def labelled_datasets(draw):
    """A Dataset whose categories need quoting, with or without reserved columns."""
    names = draw(NAMES)
    cats = [draw(st.lists(LABELS, min_size=1, max_size=4, unique=True)) for _ in names]
    n = draw(st.integers(0, 6))
    rows = [[draw(st.integers(0, len(c) - 1)) for c in cats] for _ in range(n)]
    ids = [draw(st.none() | st.lists(INT64, min_size=n, max_size=n)) for _ in RESERVED]
    domain = data.Domain(names, [len(c) for c in cats], cats)
    return data.Dataset(domain, np.array(rows, dtype=np.int64).reshape(n, len(names)), *ids)


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

    def test_unknown_category_first_by_row_then_column(self, tmp_path):
        schema = data.Domain(["a", "b"], [1, 1], [["x"], ["p"]])
        with pytest.raises(SchemaViolation, match="unknown category 'zz' in column 'b'"):
            data.load_csv(write(tmp_path, "a,b\nx,zz\nyy,p\n"), schema)

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
        for a in range(len(aux.domain)):
            decoded = [aux.domain.labels(a)[v] for v in aux.rows[:, a]]
            assert [back.domain.labels(a)[v] for v in back.rows[:, a]] == decoded

    def test_byte_order_mark_is_dropped(self, tmp_path):
        ds = data.load_csv(write(tmp_path, "\ufeff__household__,a\n7,x\n8,y\n"))
        assert ds.domain.names == ("a",)
        assert ds.household_id.tolist() == [7, 8]

    @pytest.mark.parametrize("header", ["a,__household__,__household__", "__member__,a,__member__"])
    def test_reserved_column_twice(self, tmp_path, header):
        name = header.split(",")[-1]
        with pytest.raises(ParseError, match=f"column {name} appears 2 times"):
            data.load_csv(write(tmp_path, header + "\n" + "1,1,1\n"))

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_files())
    def test_matches_row_by_row_reference(self, tmp_path, case):
        text, schema = case
        path = write(tmp_path, text)
        want = load_outcome(reference_load_csv, path, schema)
        assert load_outcome(data.load_csv, path, schema) == want
        # every file through csv.reader alone
        with mock.patch.object(data, "_byte_columns", return_value=None):
            assert load_outcome(data.load_csv, path, schema) == want

    @pytest.mark.parametrize(
        "text, tokenizer",
        [
            ("a,__household__\r\nx,7\r\ny,8\r\n", "bytes"),
            ("\ufeffa,b\nx,1\ny,2", "bytes"),
            ("a,b\n" + "abcdefghijk,1\n" * 3, "bytes"),
            ('a,b\n"x",1\n', "reader"),
            ("a,b\nx\r,1\n", "reader"),
            ("a,b\nx\x00,1\n", "reader"),
            ("a\nx\n\ny\n", "reader"),
            ("\r\na\nx\n", "reader"),
            ("a,b\nx,1\ny\n", "reader"),
            ("a\n" + "x" * 100 + "\n" + "y\n" * 20, "reader"),
        ],
        ids=["crlf", "bom-lf-no-final-newline", "wide-labels", "quote", "lone-cr", "nul", "blank-line",
             "blank-header", "ragged", "wide-cell"],
    )
    def test_tokenizer_choice(self, tmp_path, monkeypatch, text, tokenizer):
        calls = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *args: calls.append(args) or reader(*args))
        path = write(tmp_path, text)
        outcome = load_outcome(data.load_csv, path, None)
        assert bool(calls) == (tokenizer == "reader")
        assert outcome == load_outcome(reference_load_csv, path, None)

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\nz,1\ny,2\nz,1\nx,3\n",
            "a,b\né,x\ne,\n,y\nzé,x\né,y\n",
            "a\nb\nb\nb\na",
            "a,b\r\nb,é\r\nb,é\r\nb,é\r\na,é\r\n",
            "a,b\r\nx,\ny,\r\n,1\nz,",
            "a,b\nx,é\r\ny,e\nz,e\r\nw,e",
        ],
        ids=["one-byte", "two-byte-utf8", "first-seen-last", "first-seen-last-crlf", "empty-cells-mixed-line-ends",
             "one-byte-label-in-two-byte-column-mixed-line-ends"],
    )
    def test_narrow_keys(self, tmp_path, text):
        """One-byte columns go through the lookup table, wider ones (such as "é") through np.unique."""
        path = write(tmp_path, text)
        with open(path, "rb") as fh:
            assert data._byte_columns(fh.read()) is not None
        want = load_outcome(reference_load_csv, path, None)
        assert load_outcome(data.load_csv, path, None) == want
        # categories keep first-appearance order, which is not the order of the bytes
        domain = want[0]
        assert any(list(c) != sorted(c) for c in domain.categories)
        schema = data.Domain(domain.names, domain.cardinalities, [c[::-1] for c in domain.categories])
        assert load_outcome(data.load_csv, path, schema) == load_outcome(reference_load_csv, path, schema)

    @pytest.mark.parametrize(
        "cells, values",
        [
            (["7", "007", "0", "9" * 18, "12"], [7, 7, 0, 10**18 - 1, 12]),
            (["7", "+5", "12"], [7, 5, 12]),
            (["7", " 7", "1_000"], [7, 7, 1000]),
            (["7", "٣"], [7, 3]),
            (["7", "1" + "0" * 18], [7, 10**18]),
        ],
        ids=["digits", "sign", "space-underscore", "arabic-indic", "19-digits"],
    )
    def test_reserved_ids_read_as_int_reads_them(self, tmp_path, cells, values):
        path = write(tmp_path, "a,__household__\n" + "".join(f"x,{cell}\n" for cell in cells))
        with open(path, "rb") as fh:
            _, columns = data._byte_columns(fh.read())
        # only a column of plain digits skips its labels
        assert (columns[1][0] is None) == all(cell.isascii() and cell.isdigit() and len(cell) <= 18 for cell in cells)
        assert data.load_csv(path).household_id.tolist() == values

    def test_field_over_limit_is_parse_error(self, tmp_path):
        limit = csv.field_size_limit()
        ds = data.load_csv(write(tmp_path, "a\n" + "y" * limit + "\n"))
        assert ds.domain.categories == (("y" * limit,),)
        for line, text in ((1, "y" * (limit + 1) + "\n"), (2, "a\n" + "y" * (limit + 1) + "\n")):
            with pytest.raises(ParseError, match=rf"line {line}: field larger than field limit \({limit}\)"):
                data.load_csv(write(tmp_path, text))

    def test_one_wide_cell_keeps_memory_small(self, tmp_path):
        # fixed-width keys for this column would take 50,000 x 100,000 bytes
        lines = ["a,b", *["x,1"] * 50_000]
        lines[1] = "x" * 100_000 + ",1"
        path = write(tmp_path, "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            ds = data.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert len(ds) == 50_000 and ds.domain.cardinalities == (2, 1)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(labelled_datasets())
    def test_write_then_load_keeps_quoted_labels(self, tmp_path, ds):
        path = str(tmp_path / "ds.csv")
        data.write_csv(ds, path)
        back = data.load_csv(path, schema=ds.domain)
        assert back.rows.tolist() == ds.rows.tolist()
        for field in ("household_id", "membership_label"):
            want, got = getattr(ds, field), getattr(back, field)
            assert (got is None) == (want is None)
            assert want is None or got.tolist() == want.tolist()


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
