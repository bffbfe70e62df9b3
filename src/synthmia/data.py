"""Categorical tabular data: encoding, CSV ingestion and experiment splits.

Records are encoded as dense integer category indices. Two reserved CSV
columns, ``__household__`` and ``__member__``, carry household grouping and
membership labels through files. A CSV is split into columns from its bytes
in numpy when it is quote-free, and by ``csv.reader`` otherwise; both give
the same column form and the same Dataset (``load_csv``).
"""

import codecs
import csv
import io
import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import marginals
from .errors import ConfigurationError, ParseError, SchemaViolation

HOUSEHOLD_COLUMN = "__household__"
MEMBER_COLUMN = "__member__"
_RESERVED = (HOUSEHOLD_COLUMN, MEMBER_COLUMN)


@dataclass(frozen=True)
class Domain:
    """Ordered categorical attributes with their cardinalities.

    ``categories`` optionally keeps the original string labels per attribute
    (index -> label), so encoded rows can be written back as their labels.
    """

    names: tuple
    cardinalities: tuple
    categories: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "cardinalities", tuple(int(c) for c in self.cardinalities))
        if len(self.names) != len(self.cardinalities):
            raise ConfigurationError("names and cardinalities must align")
        if len(set(self.names)) != len(self.names):
            raise ConfigurationError("attribute names must be unique")
        if any(c < 1 for c in self.cardinalities):
            raise ConfigurationError("every cardinality must be >= 1")
        if self.categories is not None:
            cats = tuple(tuple(c) for c in self.categories)
            if len(cats) != len(self.names):
                raise ConfigurationError("categories must align with attributes")
            for c, n in zip(cats, self.cardinalities):
                if len(c) != n:
                    raise ConfigurationError("category list length must match cardinality")
            object.__setattr__(self, "categories", cats)

    def __len__(self):
        return len(self.names)

    def labels(self, attr):
        """Decode labels for one attribute (falls back to stringified indices)."""
        if self.categories is not None:
            return self.categories[attr]
        return tuple(str(v) for v in range(self.cardinalities[attr]))

    def to_json(self):
        return [
            {"name": n, "categories": list(self.labels(i))}
            for i, n in enumerate(self.names)
        ]


def check_rows(rows, domain):
    """SchemaViolation unless the int64 array ``rows`` is an (n, d) matrix of cells inside ``domain``."""
    if rows.ndim != 2 or rows.shape[1] != len(domain):
        raise SchemaViolation("rows must be a (n, d) matrix matching the domain")
    # read as unsigned, a negative cell is above every cardinality: one comparison checks both ends
    if (rows.view(np.uint64) >= np.array(domain.cardinalities, dtype=np.uint64)).any():
        raise SchemaViolation("cell value outside its attribute domain")


@dataclass(frozen=True)
class Dataset:
    """Encoded records over a Domain, immutable after construction.

    The rows are read-only and owned by the Dataset (a view is copied), so
    tables counted from them once stay valid (``marginals.counts``).
    """

    domain: Domain
    rows: np.ndarray
    household_id: np.ndarray = None
    membership_label: np.ndarray = None

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        if rows.base is not None:
            # a view: whoever holds its base could still write the rows
            rows = rows.copy()
        check_rows(rows, self.domain)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        for field in ("household_id", "membership_label"):
            val = getattr(self, field)
            if val is not None:
                arr = np.ascontiguousarray(val, dtype=np.int64)
                if arr.shape != (rows.shape[0],):
                    raise SchemaViolation(f"{field} must have one entry per row")
                arr.setflags(write=False)
                object.__setattr__(self, field, arr)

    def __len__(self):
        return self.rows.shape[0]

    def subset(self, indices):
        return Dataset(
            self.domain,
            self.rows[indices],
            None if self.household_id is None else self.household_id[indices],
            None if self.membership_label is None else self.membership_label[indices],
        )


def load_csv(path, schema=None):
    """Read a header-first CSV into a Dataset, one whole column at a time.

    Labels are the exact cell strings ``csv.reader`` reads; a UTF-8 byte
    order mark before the header is dropped. Two tokenizers give one column
    form, (labels in first-appearance order, codes) per column. A file with no
    quote, NUL, lone CR, blank line or ragged row is split from its bytes in
    numpy and only its distinct labels are decoded (``_byte_columns``); any
    other file goes through ``csv.reader`` (``_reader_columns``), which
    reports ragged rows and fields over ``csv.field_size_limit()``. The rest
    works on distinct labels: without a schema, each column is encoded by
    first appearance order; with one, unknown labels raise SchemaViolation.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        header, columns = _byte_columns(raw) or _reader_columns(path, raw)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None

    _check_reserved(path, header)
    data_cols = [i for i, name in enumerate(header) if name not in _RESERVED]
    names = [header[i] for i in data_cols]
    if schema is None:
        # a header-only file gets a one-label placeholder domain per column
        labels = [columns[c][0] or [""] for c in data_cols]
        domain = Domain(names, [len(c) for c in labels], labels)
    elif list(schema.names) != names:
        raise SchemaViolation(f"{path}: header {names} does not match schema {list(schema.names)}")
    else:
        domain = schema

    rows = np.empty((len(columns[0][1]) if columns else 0, len(names)), dtype=np.int64)
    for a, c in enumerate(data_cols):
        enc = {label: idx for idx, label in enumerate(domain.labels(a))}
        labels, codes = columns[c]
        rows[:, a] = np.array([enc.get(label, -1) for label in labels], dtype=np.int64).take(codes)
    if (rows < 0).any():
        r, a = np.argwhere(rows < 0)[0]  # the first unknown label by row and then by column
        labels, codes = columns[data_cols[a]]
        raise SchemaViolation(f"{path}: unknown category {labels[codes[r]]!r} in column {names[a]!r}")

    ids = [_int_column(path, name, *columns[header.index(name)]) if name in header else None for name in _RESERVED]
    return Dataset(domain, rows, *ids)


def _check_reserved(path, header):
    for name in _RESERVED:
        if header.count(name) > 1:
            raise ParseError(f"{path}: column {name} appears {header.count(name)} times, at most once allowed")


def _byte_columns(raw):
    """(header, columns) of a CSV whose delimiters form a grid, or None to leave it to csv.reader.

    A reserved column parsed by ``_digit_column`` comes as (None, values); the others go through ``_label_codes``.
    """
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    if start == len(raw) or b'"' in raw or b"\0" in raw or raw.startswith((b"\n", b"\r\n"), start):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    sep = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    is_newline = buf[sep] == ord("\n")
    if not raw.endswith(b"\n"):
        sep, is_newline = np.append(sep, len(raw)), np.append(is_newline, True)
    width = int(is_newline.argmax()) + 1
    if np.count_nonzero(is_newline) * width != len(sep) or not is_newline[width - 1 :: width].all():
        return None  # ragged, or a blank line among several columns
    grid = sep.reshape(-1, width)  # the delimiters of each line, header first
    crlf = buf[grid[:, -1] - 1] == ord("\r")
    header = raw[start : grid[0, -1] - crlf[0]]
    limit = csv.field_size_limit()
    if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(crlf) or len(header) > limit:
        return None  # a CR inside a line, or an over-long header
    reserved = [name.encode() for name in _RESERVED]  # matched as bytes: the header is decoded last
    columns = []
    ends = grid[:-1, -1]  # the line end before each row
    for c, name in enumerate(header.split(b",")):
        # one strided read of the grid per column: no (rows x columns) copy, only gathered cells widened
        starts, ends = ends + 1, grid[1:, c] - (crlf[1:] if c == width - 1 else 0)
        lengths = ends - starts
        longest = int(lengths.max(initial=0))
        if longest > limit or (width == 1 and lengths.min(initial=1) == 0):
            return None
        if name in reserved and (values := _digit_column(buf, ends, lengths, longest)) is not None:
            columns.append((None, values))
        elif len(starts) * longest > len(raw):
            return None  # its fixed-width keys would take more bytes than the file
        else:
            first, codes = _label_codes(buf, starts, lengths, longest)
            columns.append(([raw[s : s + n] for s, n in zip(starts[first].tolist(), lengths[first].tolist())], codes))
    # decoded only now, so a file left to csv.reader reports its errors in file order
    return header.decode().split(","), [(labels and [b.decode() for b in labels], codes) for labels, codes in columns]


def _digit_column(buf, ends, lengths, longest):
    """A column as int64 if every cell is 1 to 18 ASCII digits (so fits and reads as int() reads it), else None."""
    if longest > 18 or lengths.min(initial=1) == 0:
        return None
    values = np.zeros(len(ends), dtype=np.int64)
    for k in range(longest):  # the k-th digit from the right, 0 in a shorter cell
        digits = np.where(lengths > k, buf.take(ends - 1 - k, mode="clip") - np.uint8(ord("0")), 0)
        if digits.max() > 9:  # any byte but a digit wraps past 9
            return None
        values += np.int64(10**k) * digits
    return values


def _label_codes(buf, starts, lengths, longest):
    """(each distinct cell's first row, in row order; codes by first appearance) of one column.

    A cell's key is its bytes zero-padded to the widest cell (no cell holds a NUL). One-byte keys index a table
    of each byte's first row; wider ones go through np.unique, as an unsigned integer or a byte string.
    """
    if longest <= 1:
        keys = buf.take(starts, mode="clip")
        keys = np.where(lengths > 0, keys, 0) if lengths.min(initial=1) == 0 else keys
        firsts = np.full(256, len(keys))  # by key; len(keys) for a key no cell has
        np.minimum.at(firsts, keys, np.arange(len(keys)))
    else:
        size = 1 << (longest - 1).bit_length() if longest <= 8 else longest
        matrix = np.zeros((len(starts), size), dtype=np.uint8)
        for j in range(longest):
            matrix[:, j] = np.where(lengths > j, buf.take(starts + j, mode="clip"), 0)
        _, firsts, keys = np.unique(matrix.view(f"u{size}" if longest <= 8 else f"S{size}").ravel(),
                                    return_index=True, return_inverse=True)
    first = np.sort(firsts[firsts < len(keys)])
    rank = np.zeros(len(firsts), dtype=np.min_scalar_type(len(first)))
    rank[keys[first]] = np.arange(len(first))
    return first, rank.take(keys)


def _reader_columns(path, raw):
    """(header, columns) of any CSV through csv.reader, one defaultdict encoder per column."""
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            records = list(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row")
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None

    if set(map(len, records)) - {len(header)}:
        _check_reserved(path, header)  # reported before a ragged row
        r, rec = next((r, rec) for r, rec in enumerate(records) if len(rec) != len(header))
        raise ParseError(f"{path}: row {r + 2} has {len(rec)} cells, expected {len(header)}")
    columns = []
    for c in range(len(header)):
        enc = defaultdict(itertools.count().__next__)
        codes = np.fromiter(map(enc.__getitem__, map(itemgetter(c), records)), np.int64, len(records))
        columns.append((list(enc), codes))
    return header, columns


def _int_column(path, name, labels, codes):
    """A reserved column as integers, int() once per distinct label; ParseError naming the first bad row."""
    if labels is None:  # parsed from its digits (_byte_columns)
        return codes
    try:
        return np.fromiter(map(int, labels), np.int64, len(labels))[codes]
    except (ValueError, OverflowError):
        # labels are in first-appearance order: the first bad one is on the first bad row
        for idx, label in enumerate(labels):
            try:
                np.int64(int(label))
            except (ValueError, OverflowError):
                r = int(np.argmax(codes == idx))
                raise ParseError(f"{path}: row {r + 2}: {name} {label!r} is not an integer") from None


def write_csv(ds, path):
    """Write a Dataset back to CSV, including reserved columns when present.

    Each attribute is decoded by one gather from an array of its labels.
    """
    header = list(ds.domain.names)
    cols = [np.array(ds.domain.labels(a), dtype=object)[ds.rows[:, a]] for a in range(len(header))]
    for name, ids in ((HOUSEHOLD_COLUMN, ds.household_id), (MEMBER_COLUMN, ds.membership_label)):
        if ids is not None:
            header.append(name)
            cols.append(ids.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of the household-based train/target split."""

    n_target_households: int
    min_household_size: int
    train_size: int
    member_fraction_of_households: float = 0.5
    seed: int = 0


def snake_split_indices(aux, spec):
    """Row-index form of the split: (train_idx, target_idx, target_labels).

    Targets are all rows of the selected households; a fixed fraction of
    those households goes to train in full, and train is padded with rows
    sampled without replacement from aux minus the targets.
    """
    if aux.household_id is None:
        raise ConfigurationError("aux dataset has no household ids")
    if not 0.0 <= spec.member_fraction_of_households <= 1.0:
        raise ConfigurationError("member_fraction_of_households must lie in [0, 1]")
    rng = np.random.default_rng(spec.seed)

    ids, counts = np.unique(aux.household_id, return_counts=True)
    qualifying = ids[counts >= spec.min_household_size]
    if qualifying.size < spec.n_target_households:
        raise ConfigurationError(
            f"only {qualifying.size} households of size >= {spec.min_household_size}, "
            f"need {spec.n_target_households}"
        )
    selected = rng.choice(qualifying, size=spec.n_target_households, replace=False)  # np.unique: sorted
    n_member = int(spec.member_fraction_of_households * spec.n_target_households)
    member_hh = rng.choice(np.sort(selected), size=n_member, replace=False)

    in_target = np.isin(aux.household_id, selected)
    target_idx = np.flatnonzero(in_target)
    member_idx = np.flatnonzero(np.isin(aux.household_id, member_hh))

    pad = spec.train_size - member_idx.size
    if pad < 0:
        raise ConfigurationError(
            f"member households contribute {member_idx.size} rows, above train_size {spec.train_size}"
        )
    pool = np.flatnonzero(~in_target)
    if pool.size < pad:
        raise ConfigurationError("not enough non-target rows to pad the train set")
    pad_idx = rng.choice(pool, size=pad, replace=False)
    train_idx = np.concatenate([member_idx, np.sort(pad_idx)])
    labels = np.isin(aux.household_id[target_idx], member_hh).astype(np.int64)
    return train_idx, target_idx, labels


def make_snake_split(aux, spec):
    """Build (train, target, labels) datasets from an auxiliary dataset."""
    train_idx, target_idx, labels = snake_split_indices(aux, spec)
    train = aux.subset(train_idx)
    target = Dataset(
        aux.domain,
        aux.rows[target_idx],
        aux.household_id[target_idx],
        labels,
    )
    return train, target, labels


def generate_households(
    n_rows,
    n_attrs=8,
    max_cardinality=8,
    min_size=1,
    max_size=10,
    resample_prob=0.15,
    seed=0,
):
    """Generate a synthetic household-structured population.

    Attributes follow a randomly-drawn dependency chain, each drawn given the
    one before it (``marginals.draw``); members of one household are perturbed
    copies of a shared seed record, giving strong intra-household
    correlation. Deterministic given the seed.
    """
    if n_rows < 1 or n_attrs < 1:
        raise ConfigurationError("n_rows and n_attrs must be positive")
    if max_cardinality < 2 or not 0 <= min_size <= max_size or max_size < 1:
        raise ConfigurationError("need max_cardinality >= 2 and 0 <= min_size <= max_size, max_size >= 1")
    rng = np.random.default_rng(seed)
    cards = rng.integers(2, max_cardinality + 1, size=n_attrs)
    # attribute k's distribution per value of attribute k - 1; attribute 0 has one constant configuration
    blocks = [rng.dirichlet(np.ones(cards[0]))[None, :]]
    blocks += [rng.dirichlet(0.3 * np.ones(cards[k]), size=cards[k - 1]) for k in range(1, n_attrs)]

    # oversample households, then cut at exactly n_rows
    est = n_rows // ((min_size + max_size) // 2 or 1) + n_rows
    sizes = rng.integers(min_size, max_size + 1, size=est)
    cum = np.cumsum(sizes)
    n_households = int(np.searchsorted(cum, n_rows) + 1)
    sizes = sizes[:n_households]

    def draw_attr(rows, k):
        configs = rows[:, k - 1] if k else np.zeros(len(rows), dtype=np.int64)
        return marginals.draw(blocks[k], configs, rng)

    seeds = np.empty((n_households, n_attrs), dtype=np.int64)
    for k in range(n_attrs):
        seeds[:, k] = draw_attr(seeds, k)
    rows = np.repeat(seeds, sizes, axis=0)
    household = np.repeat(np.arange(n_households), sizes)

    # per-member perturbation, sequential along the chain
    flip = rng.random(rows.shape) < resample_prob
    for k in range(n_attrs):
        idx = np.flatnonzero(flip[:, k])
        rows[idx, k] = draw_attr(rows[idx], k)

    # trimmed in place: a view of the first n_rows would be copied by Dataset
    rows.resize((n_rows, n_attrs), refcheck=False)
    household = household[:n_rows]
    domain = Domain([f"a{i}" for i in range(n_attrs)], cards.tolist())
    return Dataset(domain, rows, household_id=household)
