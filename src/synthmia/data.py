"""Categorical tabular data: encoding, CSV ingestion and experiment splits.

Records are encoded as dense integer category indices. Two reserved CSV
columns, ``__household__`` and ``__member__``, carry household grouping and
membership labels through files.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParseError, SchemaViolation

HOUSEHOLD_COLUMN = "__household__"
MEMBER_COLUMN = "__member__"


@dataclass(frozen=True)
class Domain:
    """Ordered categorical attributes with their cardinalities.

    ``categories`` optionally keeps the original string labels per attribute
    (index -> label), enabling decode back to raw values.
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

    @classmethod
    def from_json(cls, obj):
        names = [a["name"] for a in obj]
        cats = [list(a["categories"]) for a in obj]
        return cls(names, [len(c) for c in cats], cats)


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
        if rows.ndim != 2 or rows.shape[1] != len(self.domain):
            raise SchemaViolation("rows must be a (n, d) matrix matching the domain")
        if (rows < 0).any() or (rows >= np.array(self.domain.cardinalities)).any():
            raise SchemaViolation("cell value outside its attribute domain")
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

    def decode(self):
        """Rows as lists of original string labels."""
        labels = [self.domain.labels(a) for a in range(len(self.domain))]
        return [[labels[a][v] for a, v in enumerate(row)] for row in self.rows]


def load_csv(path, schema=None):
    """Read a header-first CSV into a Dataset.

    Without a schema, each column is encoded by first appearance order.
    With one, unknown labels raise SchemaViolation.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            records = list(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected a header row")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None

    data_cols = [i for i, name in enumerate(header) if name not in (HOUSEHOLD_COLUMN, MEMBER_COLUMN)]
    names = [header[i] for i in data_cols]
    hh_col = header.index(HOUSEHOLD_COLUMN) if HOUSEHOLD_COLUMN in header else None
    mb_col = header.index(MEMBER_COLUMN) if MEMBER_COLUMN in header else None

    for r, rec in enumerate(records):
        if len(rec) != len(header):
            raise ParseError(f"{path}: row {r + 2} has {len(rec)} cells, expected {len(header)}")

    if schema is not None:
        if list(schema.names) != names:
            raise SchemaViolation(f"{path}: header {names} does not match schema {list(schema.names)}")
        encoders = [
            {label: idx for idx, label in enumerate(schema.labels(a))}
            for a in range(len(schema))
        ]
    else:
        encoders = [{} for _ in names]

    rows = np.empty((len(records), len(names)), dtype=np.int64)
    for r, rec in enumerate(records):
        for a, c in enumerate(data_cols):
            value = rec[c]
            enc = encoders[a]
            if value not in enc:
                if schema is not None:
                    raise SchemaViolation(f"{path}: unknown category {value!r} in column {names[a]!r}")
                enc[value] = len(enc)
            rows[r, a] = enc[value]

    if schema is not None:
        domain = schema
    else:
        categories = []
        for a, enc in enumerate(encoders):
            if not enc:
                # header-only file: give each column a one-label placeholder domain
                enc[""] = 0
            categories.append([label for label, _ in sorted(enc.items(), key=lambda kv: kv[1])])
        domain = Domain(names, [len(c) for c in categories], categories)

    household = None if hh_col is None else _int_column(path, header, records, hh_col)
    member = None if mb_col is None else _int_column(path, header, records, mb_col)
    return Dataset(domain, rows, household, member)


def _int_column(path, header, records, col):
    """One reserved column as integers; ParseError naming the first bad row."""
    try:
        return np.array([int(rec[col]) for rec in records], dtype=np.int64)
    except (ValueError, OverflowError):
        for r, rec in enumerate(records):
            try:
                np.int64(int(rec[col]))
            except (ValueError, OverflowError):
                raise ParseError(f"{path}: row {r + 2}: {header[col]} {rec[col]!r} is not an integer") from None


def write_csv(ds, path):
    """Write a Dataset back to CSV, including reserved columns when present."""
    header = list(ds.domain.names)
    if ds.household_id is not None:
        header.append(HOUSEHOLD_COLUMN)
    if ds.membership_label is not None:
        header.append(MEMBER_COLUMN)
    decoded = ds.decode()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r, row in enumerate(decoded):
            out = list(row)
            if ds.household_id is not None:
                out.append(int(ds.household_id[r]))
            if ds.membership_label is not None:
                out.append(int(ds.membership_label[r]))
            writer.writerow(out)


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
    selected = rng.choice(np.sort(qualifying), size=spec.n_target_households, replace=False)
    n_member = int(spec.member_fraction_of_households * spec.n_target_households)
    member_hh = rng.choice(np.sort(selected), size=n_member, replace=False)

    selected_set = set(int(h) for h in selected)
    member_set = set(int(h) for h in member_hh)
    in_target = np.isin(aux.household_id, sorted(selected_set))
    target_idx = np.flatnonzero(in_target)
    member_idx = np.flatnonzero(np.isin(aux.household_id, sorted(member_set)))

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
    labels = np.isin(aux.household_id[target_idx], sorted(member_set)).astype(np.int64)
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

    Attributes follow a randomly-drawn dependency chain; members of one
    household are perturbed copies of a shared seed record, giving strong
    intra-household correlation. Deterministic given the seed.
    """
    if n_rows < 1 or n_attrs < 1:
        raise ConfigurationError("n_rows and n_attrs must be positive")
    if max_cardinality < 2 or not 0 <= min_size <= max_size or max_size < 1:
        raise ConfigurationError("need max_cardinality >= 2 and 0 <= min_size <= max_size, max_size >= 1")
    rng = np.random.default_rng(seed)
    cards = rng.integers(2, max_cardinality + 1, size=n_attrs)
    first = rng.dirichlet(np.ones(cards[0]))
    conds = [rng.dirichlet(0.3 * np.ones(cards[k]), size=cards[k - 1]) for k in range(1, n_attrs)]

    # oversample households, then cut at exactly n_rows
    est = n_rows // ((min_size + max_size) // 2 or 1) + n_rows
    sizes = rng.integers(min_size, max_size + 1, size=est)
    cum = np.cumsum(sizes)
    n_households = int(np.searchsorted(cum, n_rows) + 1)
    sizes = sizes[:n_households]

    def sample_chain(n):
        out = np.empty((n, n_attrs), dtype=np.int64)
        out[:, 0] = rng.choice(cards[0], size=n, p=first)
        for k in range(1, n_attrs):
            for v in range(cards[k - 1]):
                mask = out[:, k - 1] == v
                m = int(mask.sum())
                if m:
                    out[mask, k] = rng.choice(cards[k], size=m, p=conds[k - 1][v])
        return out

    seeds = sample_chain(n_households)
    rows = np.repeat(seeds, sizes, axis=0)
    household = np.repeat(np.arange(n_households), sizes)

    # per-member perturbation, sequential along the chain
    flip = rng.random(rows.shape) < resample_prob
    for k in range(n_attrs):
        mask = flip[:, k]
        m = int(mask.sum())
        if not m:
            continue
        if k == 0:
            rows[mask, 0] = rng.choice(cards[0], size=m, p=first)
        else:
            prev = rows[mask, k - 1]
            for v in range(cards[k - 1]):
                sub = prev == v
                s = int(sub.sum())
                if s:
                    idx = np.flatnonzero(mask)[sub]
                    rows[idx, k] = rng.choice(cards[k], size=s, p=conds[k - 1][v])

    # trimmed in place: a view of the first n_rows would be copied by Dataset
    rows.resize((n_rows, n_attrs), refcheck=False)
    household = household[:n_rows]
    domain = Domain([f"a{i}" for i in range(n_attrs)], cards.tolist())
    return Dataset(domain, rows, household_id=household)
