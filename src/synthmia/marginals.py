"""Contingency-table kernels: counts, empirical marginals, conditionals and categorical draws.

``conditional_from_joint`` is the one rule by which both generators' measurements
turn a joint into a factor, so the attacks read conditionals through them. ``draw``
is the one rule by which a generator draws a child given its parents' configuration.

Tables are dense numpy arrays; a marginal is a probability array whose axes
follow its attributes, and a factor P(child | parents) is ``(attrs, probs)``
with ``attrs = parents + (child,)``. Each distinct record is counted once, weighted
by its multiplicity, so counts are exact integers independent of row order.
Counted together, the 2-way tables of a Dataset are blocks of one one-hot product, its ``gram``.
Zero cells can be floored to a small positive value and renormalized, which
keeps density ratios finite downstream.
"""

import math

import numpy as np

from .errors import ConfigurationError, EstimationError, ParameterError

# floor default: 1/(FLOOR_FACTOR * source_size)
FLOOR_FACTOR = 10
MAX_TABLE_CELLS = 10**8
# a gram of width w costs w**2 multiply-adds per distinct row, a bincount per pair one pass over them: at 20k
# rows the bincounts caught up past about 80 gram cells per pair (float32, one OpenBLAS thread, x86)
GRAM_CELLS_PER_PAIR = 80
_GRAM_CHUNK = 2048  # one-hot rows per block of the gram's product, which bounds its temporaries
# float32 holds every integer up to 2**24, so it sums a gram of that many rows exactly, in about
# 60% of float64's time (5.3 against 9.0 ms for 13,725 distinct rows of width 66)
_FLOAT32_MAX_ROWS = 2**24
# the tolerance of Generator.choice's check that p sums to 1
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)
# the Dataset attribute holding its count tables, {attribute tuple: table},
# its distinct form under "distinct" and its gram under "gram"
_CACHE_ATTR = "_counts"


def default_floor(source_size):
    return 1.0 / (FLOOR_FACTOR * max(int(source_size), 1))


def _cached(ds, key, compute):
    """``compute()``, kept on the Dataset under ``key`` and made read-only; one cache per Dataset."""
    cache = ds.__dict__.setdefault(_CACHE_ATTR, {})  # the instance dict, since a Dataset is frozen
    value = cache.get(key)
    if value is None:
        value = compute()
        for arr in value if isinstance(value, tuple) else (value,):
            arr.setflags(write=False)
        cache[key] = value
    return value


def distinct(ds):
    """(columns, multiplicities, inverse) of the Dataset's distinct rows, kept like its tables.

    ``columns[a]`` is attribute a of each distinct row (smallest unsigned dtype),
    distinct row k occurs ``multiplicities[k]`` times, and row r is distinct row
    ``inverse[r]``. Derived from the read-only rows, it never goes stale.
    """
    def compute():
        cards = ds.domain.cardinalities
        if math.prod(cards) <= 2**63:  # the largest code, cells - 1, fits in int64
            keys, axis = np.zeros(len(ds), dtype=np.int64), None
            for a, card in enumerate(cards):
                keys = keys * card + ds.rows[:, a]
        else:
            keys, axis = ds.rows, 0
        _, inverse, mult = np.unique(keys, return_inverse=True, return_counts=True, axis=axis)
        inverse = inverse.reshape(-1)
        first = np.empty(mult.size, dtype=np.intp)
        first[inverse] = np.arange(len(ds))  # some row of each; finding the first needs a slower, stable sort
        dtype = np.min_scalar_type(max(cards, default=1) - 1)
        return np.ascontiguousarray(ds.rows[first].T, dtype=dtype), mult, inverse

    return _cached(ds, "distinct", compute)


def subset(ds, indices):
    """``ds.subset(indices)`` as ds's distinct rows weighted by how often indices take each, in ``distinct`` order.

    It has no household ids or labels, and its distinct form is taken from ds's, so its rows are never sorted.
    """
    columns, mult, inverse = distinct(ds)
    weights = np.bincount(inverse[indices], minlength=mult.size)
    columns, weights = columns[:, weights > 0], weights[weights > 0]
    out = type(ds)(ds.domain, np.repeat(columns.T, weights, axis=0))
    _cached(out, "distinct", lambda: (columns, weights, np.repeat(np.arange(weights.size), weights)))
    return out


def gram(ds):
    """(G, starts): every 2-way table of ds as a block of one matrix, or None past ``GRAM_CELLS_PER_PAIR``.

    G = X^T diag(multiplicities) X over the one-hot matrix X of the distinct rows, with attribute a in the
    columns from ``starts[a]``: block (i, j) of G is the (i, j) table.
    """
    d, width = len(ds.domain), sum(ds.domain.cardinalities)

    def compute():
        cols, mult, _ = distinct(ds)
        dtype = np.float32 if mult.sum() <= _FLOAT32_MAX_ROWS else np.float64
        starts = np.cumsum((0,) + ds.domain.cardinalities[:-1])
        g = np.zeros((width, width), dtype=dtype)
        for lo in range(0, mult.size, _GRAM_CHUNK):
            hot = np.zeros((min(_GRAM_CHUNK, mult.size - lo), width), dtype=dtype)
            hot.reshape(-1)[cols[:, lo : lo + len(hot)].T + starts + np.arange(0, hot.size, width)[:, None]] = 1
            g += (hot.T * mult[lo : lo + len(hot)].astype(dtype)) @ hot
        return g, starts

    return None if 2 * width * width > GRAM_CELLS_PER_PAIR * d * (d - 1) else _cached(ds, "gram", compute)


def uncached_counts(ds, attrs):
    """The table ``counts`` keeps, counted afresh from the distinct rows: for a table asked for once.

    Each distinct row's flat cell index is built by Horner's rule, row-major like ``np.ravel_multi_index``
    but unchecked (a Dataset checks its cells), and counted with its multiplicity.
    """
    cards = ds.domain.cardinalities
    if len(set(attrs)) != len(attrs) or any(a < 0 or a >= len(cards) for a in attrs):
        raise ConfigurationError("attributes must be distinct and inside the domain")
    shape = tuple(cards[a] for a in attrs)
    if math.prod(shape) > MAX_TABLE_CELLS:
        raise ConfigurationError(f"table of {math.prod(shape)} cells exceeds the dense-storage guard")
    cols, mult, _ = distinct(ds)
    flat = cols[attrs[0]].astype(np.int64)
    for a in attrs[1:]:
        flat = flat * cards[a] + cols[a]
    table = np.bincount(flat, weights=mult, minlength=math.prod(shape))  # float64: exact below 2**53 rows
    return table.astype(np.int64).reshape(shape)


def counts(ds, attrs):
    """Integer contingency table over the given attributes, counted once per Dataset.

    A 2-way table is a block of the ``gram`` once ``pair_counts`` has built it (one pair alone does not pay
    for a gram), any other ``uncached_counts``. Tables are kept on the Dataset, keyed by the attribute tuple,
    and every caller asking for the same one shares it, so it is read-only.
    """
    key = tuple(int(a) for a in attrs)
    sliced = len(key) == 2 and "gram" in ds.__dict__.get(_CACHE_ATTR, {})
    return _cached(ds, key, lambda: next(pair_counts(ds, [key]))[1][0] if sliced else uncached_counts(ds, key))


def pair_counts(ds, pairs):
    """(positions in pairs, their stacked int64 tables) per (c_i, c_j) shape of the (i, j) rows of pairs."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any() or ((pairs < 0) | (pairs >= len(ds.domain))).any():
        raise ConfigurationError("attributes must be distinct and inside the domain")
    shapes = np.array(ds.domain.cardinalities, dtype=np.int64)[pairs]
    found = gram(ds)
    for ci, cj in sorted(set(map(tuple, shapes.tolist()))):
        at = np.flatnonzero((shapes[:, 0] == ci) & (shapes[:, 1] == cj))
        if found is None:  # counted one by one
            yield at, np.stack([uncached_counts(ds, pair) for pair in pairs[at].tolist()])
        else:  # one fancy index into the gram, from each table's first row and column in it
            starts = found[1][pairs[at]][:, :, None, None]
            yield at, found[0][starts[:, 0] + np.arange(ci)[:, None], starts[:, 1] + np.arange(cj)].astype(np.int64)


def floor_probs(probs, floor):
    """Raise every cell to at least ``floor`` and renormalize to sum 1."""
    if floor is None or floor <= 0:
        return probs
    out = np.maximum(probs, floor)
    return out / out.sum()


def marginal(ds, attrs, floor=None):
    """Empirical marginal over ``attrs``, cell(v) = count(v) / |ds|: an array with its axes in ``attrs`` order."""
    if len(ds) == 0:
        raise EstimationError("cannot estimate a marginal from an empty dataset")
    return floor_probs(counts(ds, attrs) / len(ds), floor)


def conditional_from_joint(joint_probs, child, parents, floor=None):
    """The factor ``(parents + (child,), probs)`` of a joint table whose axes are parents + (child,).

    Each parent configuration's block is divided by its mass, or is uniform without
    mass; a positive ``floor`` then raises every cell to it and renormalizes the blocks.
    """
    joint = np.asarray(joint_probs, dtype=np.float64)
    nc = joint.shape[-1]
    sums = joint.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(sums > 0, joint / np.where(sums > 0, sums, 1.0), 1.0 / nc)
    if floor is not None and floor > 0:
        cond = np.maximum(cond, floor)
        cond = cond / cond.sum(axis=-1, keepdims=True)
    cond = np.ascontiguousarray(cond)
    cond.setflags(write=False)
    return tuple(parents) + (child,), cond


def draw(blocks, configs, rng):
    """One categorical draw per row: row r's category from distribution ``blocks[configs[r]]``.

    Exactly the draws of ``rng.choice(nc, size=m, p=blocks[c])`` once per
    configuration c present, in ascending order, over that configuration's
    rows in row order: one ``rng.random(n)`` in that order, and each row's
    count of its CDF cells <= u, which is ``searchsorted(side="right")``.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if not (np.all(blocks >= 0) and np.all(np.abs(blocks.sum(axis=1) - 1.0) <= _CHOICE_ATOL)):
        raise ParameterError("a categorical distribution must be non-negative and sum to 1")
    cdf = np.cumsum(blocks, axis=1)
    cdf /= cdf[:, -1:]
    u = np.empty(len(configs))
    u[np.argsort(configs, kind="stable")] = rng.random(len(configs))
    out = np.zeros(len(configs), dtype=np.int64)
    for c in range(blocks.shape[1]):  # a column at a time: no (rows x categories) temporary
        out += cdf[configs, c] <= u
    return out
