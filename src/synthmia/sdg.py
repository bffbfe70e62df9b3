"""DP synthetic data generators: tree graphical model and Bayesian network.

Both follow the same pipeline: privately select a graph structure, measure the associated statistics with
calibrated noise, then sample i.i.d. records from the factorized joint density. ``BUDGET_SPLIT`` gives 1/3 of
epsilon to structure selection and 2/3 to statistics measurement. Both selections are one step loop, ``_select``:
each step draws one key by the exponential mechanism (``dp.selection_probs``) from what the method's step rule
scores. ``method_steps`` names each method's selection and its one measurement, which turns every joint into a
factor through ``marginals.conditional_from_joint``; ``model_from_data`` runs the measurement at epsilon = inf,
the noiseless density the attacker fits on synth and aux.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import marginals
from .data import Dataset, Domain, check_rows
from .dp import Accountant, DpParams, as_generator, exponential_mechanism, gaussian_noise, laplace_noise
from .errors import ConfigurationError, EstimationError, ParseError

METHOD_MST = "mst"
METHOD_PRIVBAYES = "privbayes"
METHODS = (METHOD_MST, METHOD_PRIVBAYES)

# default theta such that theta * epsilon * n = 4 * epsilon at |train| scale
DEFAULT_THETA_SCALE = 4.0

# epsilon fractions for (structure selection, statistics measurement)
BUDGET_SPLIT = (1.0 / 3.0, 2.0 / 3.0)

# NumPy sums up to this many cells left to right; from 8 on it sums with 8 accumulators
SEQUENTIAL_SUM_CELLS = 7

def _table_sensitivity(n):
    """L1 sensitivity of a probability table of n records under one-record change."""
    if n == 0:
        raise EstimationError("a probability table needs a non-empty dataset")
    return 2.0 / n


def _privbayes_score_sensitivity(n):
    """3/n: ``privbayes_score`` halves the L1 distance of a joint (moved <= 2/n) from its margins' product (<= 4/n)."""
    return 1.5 * _table_sensitivity(n)


def _tree_delta_share(d):
    """The tree generator's 3d - 1 Gaussian measurements split delta equally."""
    return (1.0, 3 * d - 1)


def _is_index(x):
    return type(x) is int and x >= 0


def _is_indices(x):
    return isinstance(x, list) and all(map(_is_index, x))


@dataclass(frozen=True)
class Structure:
    """A generator's graph: a tree's edges or a Bayesian network's order.

    Tree keys are edges (i, j) with i < j, in sorted order; network keys are
    (node, parent tuple) in placement order. Its JSON form is
    ``{"method": "mst", "edges": [[i, j], ...]}`` or
    ``{"method": "privbayes", "order": [[node, [parent, ...]], ...]}``.
    """

    method: str
    keys: tuple

    def __post_init__(self):
        method_steps(self.method)  # ConfigurationError for an unknown method
        if self.method == METHOD_MST:
            keys = sorted((min(i, j), max(i, j)) for i, j in self.keys)
        else:
            keys = ((node, tuple(parents)) for node, parents in self.keys)
        object.__setattr__(self, "keys", tuple(keys))

    def validate(self, d):
        """ConfigurationError unless this factorises a density over d attributes.

        A tree needs d - 1 edges between attributes below d and no cycle (an
        edge within one component, a self-loop included, closes one); a network
        places every attribute below d once, each parent before its child.
        """
        outside = f"structure names an attribute outside 0..{d - 1}"
        if self.method == METHOD_MST:
            if len(self.keys) != d - 1:
                raise ConfigurationError("a spanning tree needs exactly d - 1 edges")
            if any(j >= d for _, j in self.keys):
                raise ConfigurationError(outside)
            component = np.arange(d)
            for i, j in self.keys:
                if component[i] == component[j]:
                    raise ConfigurationError("edges contain a cycle")
                component[component == component[j]] = component[i]
            return
        seen = set()
        for node, parents in self.keys:
            if node >= d:
                raise ConfigurationError(outside)
            if node in seen:
                raise ConfigurationError("node appears twice in the order")
            if any(p not in seen for p in parents):
                raise ConfigurationError("parent does not precede its child")
            seen.add(node)
        if len(seen) != d:
            raise ConfigurationError("order must cover every attribute")

    def to_json(self):
        if self.method == METHOD_MST:
            return {"method": self.method, "edges": [list(e) for e in self.keys]}
        return {"method": self.method, "order": [[node, list(parents)] for node, parents in self.keys]}

    @classmethod
    def from_json(cls, obj):
        """Inverse of ``to_json``; ParseError on a missing or ill-typed field."""
        method = obj.get("method") if isinstance(obj, dict) else None
        if method == METHOD_MST:
            items = obj.get("edges")
            if isinstance(items, list) and all(_is_indices(e) and len(e) == 2 for e in items):
                return cls(method, items)
        elif method == METHOD_PRIVBAYES:
            items = obj.get("order")
            if isinstance(items, list) and all(
                isinstance(k, list) and len(k) == 2 and _is_index(k[0]) and _is_indices(k[1]) for k in items
            ):
                return cls(method, items)
        raise ParseError("a structure needs a 'method' and that method's 'edges' or 'order' of node indices")


@dataclass
class Model:
    """A fitted generator: a Bayesian network over its structure, measured on n records.

    ``factors`` are P(child | parents) as ``(attrs, probs)`` in sampling order. A tree is
    the network rooted at attribute 0 whose other nodes each have one parent,
    visited breadth first over sorted neighbours.
    """

    domain: Domain
    structure: Structure
    factors: tuple
    n: int
    ledger: Accountant

    def to_json(self):
        # the structure's own form, with the domain second
        return {
            "method": self.structure.method,
            "domain": self.domain.to_json(),
            **self.structure.to_json(),
            "factors": [{"kind": "conditional", "child": attrs[-1], "parents": list(attrs[:-1]),
                         "shape": list(probs.shape), "probs": probs.ravel().tolist(), "source_size": self.n}
                        for attrs, probs in self.factors],
            "ledger": self.ledger.to_json(),
        }


def log_density(model, rows):
    """Log of the factorised joint density, vectorised over records; SchemaViolation on a row outside the domain."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    check_rows(rows, model.domain)
    logp = np.zeros(rows.shape[0])
    for attrs, probs in model.factors:
        flat = rows[:, attrs[0]]  # the row-major cell, as in sample
        for a, card in zip(attrs[1:], probs.shape[1:]):
            flat = flat * card + rows[:, a]
        logp += np.log(probs.ravel().take(flat))
    return logp


def sample(model, n, seed):
    """Ancestral sampling: each factor draws its child given the parents drawn before it (``marginals.draw``)."""
    if n < 0:
        raise ConfigurationError(f"sample size must be >= 0, got {n}")
    rng = as_generator(seed)
    rows = np.zeros((int(n), len(model.domain)), dtype=np.int64)
    for attrs, probs in model.factors:
        flat_cfg = np.zeros(int(n), dtype=np.int64)  # row-major parent configuration, as in the table
        for p, card in zip(attrs[:-1], probs.shape):
            flat_cfg = flat_cfg * card + rows[:, p]
        rows[:, attrs[-1]] = marginals.draw(probs.reshape(-1, probs.shape[-1]), flat_cfg, rng)
    return Dataset(model.domain, rows)


# ---------------------------------------------------------------------------
# tree model
# ---------------------------------------------------------------------------

def mst_edge_score(ds, i, j, noisy_1way=None):
    """Total-variation-style dependency score between attributes i and j, or an array of them for index arrays.

    The L1 distance of the (i, j) joint from the product of ``noisy_1way[i]`` and ``noisy_1way[j]``, or of its own
    margins. Joints of one shape are scored as one array (``marginals.pair_counts``), each as one table alone.
    """
    if len(ds) == 0:
        raise EstimationError("cannot estimate a marginal from an empty dataset")
    pairs = np.column_stack((np.ravel(i), np.ravel(j)))
    scores = np.empty(len(pairs))
    groups = marginals.pair_counts(ds, pairs)
    if noisy_1way is not None:  # row a holds noisy_1way[a], zero-padded
        margins = np.zeros((len(ds.domain), max(ds.domain.cardinalities)))
        for a in set(pairs.ravel().tolist()):
            margins[a, : ds.domain.cardinalities[a]] = noisy_1way[a]
    for at, tables in groups:
        joint = tables / len(ds)
        if noisy_1way is None:
            pi, pj = joint.sum(axis=2), joint.sum(axis=1)
        else:
            pi, pj = (margins[pairs[at, k], : tables.shape[k + 1]] for k in (0, 1))
        scores[at] = np.abs(joint - pi[:, :, None] * pj[:, None, :]).sum(axis=(1, 2))
    return scores if np.ndim(i) else float(scores[0])


def _noisy_probs(probs, sigma, rng):
    """Add Gaussian noise to a probability table, clip negatives, renormalize.

    ``sigma = None`` (no noise) returns the table unchanged.
    """
    if sigma is None:
        return probs
    noisy = probs + gaussian_noise(sigma, probs.size, rng).reshape(probs.shape)
    noisy = np.clip(noisy, 0.0, None)
    total = noisy.sum()
    if total <= 0:
        return np.full(probs.shape, 1.0 / probs.size)
    return noisy / total


def _select(step, chosen, steps, label, count, sens, acct, rng):
    """Append ``steps`` keys to ``chosen``, each the exponential mechanism's pick of ``step(chosen)``'s scored keys."""
    for _ in range(steps):
        keys, scores = step(chosen)
        eps = acct.exponential(f"{label}{len(chosen)}", (BUDGET_SPLIT[0], count))
        chosen.append(keys[exponential_mechanism(scores, eps, sens, rng)])
    return chosen


def _select_tree_edges(ds, acct, rng):
    """DP spanning-tree selection: noisy scores + d-1 exponential-mechanism steps."""
    d = len(ds.domain)
    n = len(ds)
    sens = _table_sensitivity(n)

    one_way = {}
    for i in range(d):
        sigma = acct.gaussian(f"mst/select/1way/{i}", sens, (BUDGET_SPLIT[0], 2 * d), _tree_delta_share(d))
        if sigma is not None:
            one_way[i] = _noisy_probs(marginals.marginal(ds, (i,)), sigma, rng)

    pairs = np.array([(i, j) for i in range(d) for j in range(i + 1, d)], dtype=np.int64).reshape(-1, 2)
    # noiseless, each pair's score takes its 1-way margins from its own table
    scores = mst_edge_score(ds, pairs[:, 0], pairs[:, 1], one_way or None)

    component = np.arange(d)  # each attribute's component label

    def step(edges):  # the pairs that join two components, once the last edge has joined its two
        for i, j in edges[-1:]:
            component[component == component[j]] = component[i]
        candidates = np.flatnonzero(component[pairs[:, 0]] != component[pairs[:, 1]])
        return pairs[candidates], scores[candidates]

    edges = _select(step, [], d - 1, "mst/select/edge/", 2 * (d - 1), sens, acct, rng)
    return Structure(METHOD_MST, [e.tolist() for e in edges])


def _stack_key(shape):
    """Edge tables of one key are fitted as one zero-padded stack, each sum as on its own table.

    Zeros appended to a sum of up to ``SEQUENTIAL_SUM_CELLS`` cells move no bit, so a longer row is stacked
    only with rows of its length. Columns are summed row by row, but a table's one column like a row. Keying
    on the exact shape instead, which pads nothing, left most stacks one or two edges and cost +0.065 s of
    normalised ``grid-mst-wide`` wall time (8 of 8 paired runs on a 2-vCPU VM; run-to-run IQR 0.041 s). Keying
    on the column count alone, with no ``SEQUENTIAL_SUM_CELLS``, is as exact (33,023 fuzzed edges matched the
    one-edge loop) but cost +5% serial CPU there (1.38 -> 1.45 s, 18 operations each), the one-edge loop +11%.
    """
    length = shape[0] if shape[1] == 1 else shape[1]
    return shape[1] == 1, length if length > SEQUENTIAL_SUM_CELLS else 0


def _ipf_factors(margins, sums, done):
    """IPF's scaling of each row or column to its margin, 0 where it has no mass, and 1.0 for a done edge."""
    return np.where(done[:, None], 1.0, np.where(sums > 0, margins / np.where(sums > 0, sums, 1.0), 0.0))


def _consistent_tree_tables(node_probs, edge_probs, edges, floor):
    """Floor all tables and fit each edge table to its floored node margins by IPF, to 1e-13 or 2000 sweeps.

    Edge tables are fitted a stack at a time (``_stack_key``); an edge whose rows match stops there, its
    factors 1.0 from then on, so each table is the one its own IPF loop would give.
    """
    node_tables = {i: marginals.floor_probs(probs, floor) for i, probs in node_probs.items()}
    stacks = {}
    for e in edges:
        stacks.setdefault(_stack_key(edge_probs[e].shape), []).append(e)
    edge_tables = {}
    for stack in stacks.values():
        shapes = [edge_probs[e].shape for e in stack]
        out = np.zeros((len(stack), max(r for r, _ in shapes), max(c for _, c in shapes)))
        pi, pj = np.zeros(out.shape[:2]), np.zeros((len(stack), out.shape[2]))
        for k, ((i, j), (r, c)) in enumerate(zip(stack, shapes)):
            out[k, :r, :c] = marginals.floor_probs(edge_probs[(i, j)], floor)
            pi[k, :r], pj[k, :c] = node_tables[i], node_tables[j]
        rows, done = out.sum(axis=2), np.zeros(len(stack), dtype=bool)
        for _ in range(2000):
            out *= _ipf_factors(pi, rows, done)[:, :, None]
            cols = out.sum(axis=1)
            out *= _ipf_factors(pj, cols, done)[:, None, :]
            rows = out.sum(axis=2)
            done |= np.abs(rows - pi).max(axis=1) < 1e-13
            if done.all():
                break
        edge_tables.update((e, out[k, :r, :c].copy()) for k, (e, (r, c)) in enumerate(zip(stack, shapes)))
    return node_tables, edge_tables


def _measure_tree(ds, structure, acct, rng, floor=None):
    """The tree generator's measurement: noisy 1-way and edge tables, made consistent, as breadth-first factors."""
    d, n = len(ds.domain), len(ds)
    sens = _table_sensitivity(n)

    def measure(label, attrs):
        sigma = acct.gaussian(label, sens, (BUDGET_SPLIT[1], 2 * d - 1), _tree_delta_share(d))
        return _noisy_probs(marginals.marginal(ds, attrs), sigma, rng)

    node_probs = {i: measure(f"mst/measure/1way/{i}", (i,)) for i in range(d)}
    edge_probs = {(i, j): measure(f"mst/measure/2way/{i}-{j}", (i, j)) for i, j in structure.keys}
    if floor is None:
        floor = marginals.default_floor(n)
    node_tables, edge_tables = _consistent_tree_tables(node_probs, edge_probs, structure.keys, floor)

    adj = {i: [] for i in range(d)}
    for i, j in structure.keys:
        adj[i].append(j)
        adj[j].append(i)
    root = node_tables[0]  # already a distribution: dividing it by its sum would move last bits
    root.setflags(write=False)
    factors, queue = [((0,), root)], [0]
    for parent in queue:  # breadth first: each node reached is appended
        for child in sorted(adj[parent]):
            if child not in queue:
                queue.append(child)
                pair = edge_tables[(min(parent, child), max(parent, child))]
                # zero-mass parent values are never sampled; they get a uniform placeholder
                factors.append(marginals.conditional_from_joint(pair if parent < child else pair.T, child, (parent,)))
    return Model(ds.domain, structure, tuple(factors), n, acct)


def fit_mst(train, dp, seed):
    """Fit a DP tree model: select the edges, then measure the tree's tables."""
    if len(train.domain) < 2:
        raise ConfigurationError("tree model needs at least two attributes")
    rng = as_generator(seed)
    acct = Accountant(dp)
    return _measure_tree(train, _select_tree_edges(train, acct, rng), acct, rng)


# ---------------------------------------------------------------------------
# bayesian network
# ---------------------------------------------------------------------------

def privbayes_score(ds, i, parents):
    """Dependency score of a (node, parent set) candidate.

    Half the L1 distance between the joint P(X_i, Pi_i) and the product of
    its marginals; a one-record change moves it by at most 3/n.
    """
    parents = tuple(parents)
    if i in parents:
        raise ConfigurationError("node cannot be its own parent")
    if not parents:
        return 0.0
    if len(ds) == 0:
        raise EstimationError("cannot score a candidate on an empty dataset")
    p_child = marginals.counts(ds, (i,)) / len(ds)
    # counted uncached: a selection run scores each candidate once, and
    # caching these joints on every shadow subset costs memory and time
    joint = marginals.uncached_counts(ds, parents + (i,)) / len(ds)
    p_parents = joint.sum(axis=-1)
    product = p_parents[..., None] * p_child
    return float(0.5 * np.abs(joint - product).sum())


def _parent_subsets(placed, cards, threshold):
    """(subset, joint domain size) for each subset of placed nodes, () first, then by size in combinations order."""
    if math.isinf(threshold) and len(placed) > 20:
        raise ConfigurationError("unbounded parent-set enumeration is capped at 20 placed nodes")
    return [(comb, math.prod(comb_cards)) for r in range(len(placed) + 1) for comb, comb_cards in
            zip(itertools.combinations(placed, r), itertools.combinations([cards[p] for p in placed], r))]


def _domain_threshold(dp, n):
    """theta * epsilon * n: the largest (node, parents) table PrivBayes may pick."""
    theta = dp.theta if dp.theta is not None else DEFAULT_THETA_SCALE / n
    return math.inf if math.isinf(dp.epsilon) else theta * dp.epsilon * n


def _select_bayes_order(ds, acct, rng):
    """Greedy DP selection of an ordered (node, parent set) list."""
    d = len(ds.domain)
    if d < 1:
        raise ConfigurationError("empty domain")
    n = len(ds)
    sens = _privbayes_score_sensitivity(n)  # first: it rejects an empty dataset
    cards = ds.domain.cardinalities
    threshold = _domain_threshold(acct.total, n)

    scored = {}  # a candidate's score does not depend on the step, so each is scored once

    def step(order):
        placed = [node for node, _ in order]
        unplaced = sorted(set(range(d)) - set(placed))
        subsets = _parent_subsets(sorted(placed), cards, threshold)
        candidates = [(node, sub) for node in unplaced for sub, size in subsets if size <= threshold / cards[node]]
        if not candidates:
            candidates = [(node, ()) for node in unplaced]
        for key in candidates:
            if key not in scored:
                scored[key] = privbayes_score(ds, *key)
        return candidates, np.array([scored[key] for key in candidates])

    order = [(int(rng.integers(d)), ())]
    return Structure(METHOD_PRIVBAYES, _select(step, order, d - 1, "privbayes/select/", d - 1, sens, acct, rng))


def _measure_network(ds, structure, acct, rng, floor=None):
    """PrivBayes' measurement over ``structure``: each factor's joint with Laplace noise, as a conditional."""
    d, n = len(ds.domain), len(ds)
    sens = _table_sensitivity(n)
    if floor is None:
        floor = marginals.default_floor(n)
    factors = []
    for node, parents in structure.keys:
        joint = marginals.counts(ds, parents + (node,)).astype(np.float64) / n
        scale = acct.laplace(f"privbayes/measure/{node}", sens, (BUDGET_SPLIT[1], d))
        if scale is not None:
            joint = joint + laplace_noise(scale, joint.size, rng).reshape(joint.shape)
            joint = np.clip(joint, 0.0, None)
        factors.append(marginals.conditional_from_joint(joint, node, parents, floor))
    return Model(ds.domain, structure, tuple(factors), n, acct)


def fit_privbayes(train, dp, seed):
    """Fit a DP Bayesian network: select the order, then measure its conditionals."""
    rng = as_generator(seed)
    acct = Accountant(dp)
    return _measure_network(train, _select_bayes_order(train, acct, rng), acct, rng)


def method_steps(method):
    """(selection, measurement) functions of a generator method; ConfigurationError for any name outside METHODS."""
    if method == METHOD_MST:
        return _select_tree_edges, _measure_tree
    if method == METHOD_PRIVBAYES:
        return _select_bayes_order, _measure_network
    raise ConfigurationError(f"unknown method {method!r}")


def model_from_data(ds, structure, floor=None):
    """The generator's own measurement of ``structure`` on ds at epsilon = inf (the attacker's density)."""
    _, measure = method_steps(structure.method)
    return measure(ds, structure, Accountant(DpParams(math.inf)), None, floor)


def fit(train, method, dp, seed):
    """Fit a ``method`` generator with budget dp; its selection and noise draw from seed."""
    method_steps(method)  # ConfigurationError for an unknown method
    return fit_mst(train, dp, seed) if method == METHOD_MST else fit_privbayes(train, dp, seed)


def model_to_file(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json(), fh)
