"""Contingency-table kernels: counts, empirical marginals, conditionals and categorical draws.

``conditional_from_joint`` is the one rule by which both generators' measurements
turn a joint into a factor, so the attacks read conditionals through them. ``draw``
is the one rule by which a generator draws a child given its parents' configuration.

Tables are dense numpy arrays; a marginal is a probability array whose axes
follow its attributes, and a factor P(child | parents) is ``(attrs, probs)``
with ``attrs = parents + (child,)``. Each distinct record is counted once, weighted
by its multiplicity, so counts are exact integers independent of row order.
Zero cells can be floored to a small positive value and renormalized, which
keeps density ratios finite downstream.
"""

import math

import numpy as np

from .errors import ConfigurationError, EstimationError, ParameterError

# floor default: 1/(FLOOR_FACTOR * source_size)
FLOOR_FACTOR = 10
MAX_TABLE_CELLS = 10**8
# the tolerance of Generator.choice's check that p sums to 1
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)
# the Dataset attribute holding its count tables, {attribute tuple: table},
# and its distinct form under "distinct"
_CACHE_ATTR = "_counts"


def default_floor(source_size):
    return 1.0 / (FLOOR_FACTOR * max(int(source_size), 1))


def _check_attrs(ds, attrs):
    d = len(ds.domain)
    if len(set(attrs)) != len(attrs):
        raise ConfigurationError("attributes must be distinct")
    if any(a < 0 or a >= d for a in attrs):
        raise ConfigurationError("attribute index outside the domain")
    cells = 1
    for a in attrs:
        cells *= ds.domain.cardinalities[a]
    if cells > MAX_TABLE_CELLS:
        raise ConfigurationError(f"table of {cells} cells exceeds the dense-storage guard")


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


def uncached_counts(ds, attrs):
    """The table ``counts`` keeps, counted afresh: for a table asked for once, not worth keeping.

    Each distinct row's flat cell index is built by Horner's rule, row-major like ``np.ravel_multi_index``
    but unchecked (a Dataset checks its cells), and counted with its multiplicity.
    """
    _check_attrs(ds, attrs)
    cards = ds.domain.cardinalities
    shape = tuple(cards[a] for a in attrs)
    cols, mult, _ = distinct(ds)
    flat = cols[attrs[0]].astype(np.int64)
    for a in attrs[1:]:
        flat = flat * cards[a] + cols[a]
    table = np.bincount(flat, weights=mult, minlength=math.prod(shape))  # float64: exact below 2**53 rows
    return table.astype(np.int64).reshape(shape)


def counts(ds, attrs):
    """Integer contingency table over the given attributes, counted once per Dataset.

    Tables are kept on the Dataset, keyed by the attribute tuple, and every
    caller asking for the same one shares it, so it is read-only.
    """
    key = tuple(int(a) for a in attrs)
    return _cached(ds, key, lambda: uncached_counts(ds, key))


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
