"""DP synthetic data generators: tree graphical model and Bayesian network.

Both follow the same pipeline: privately select a graph structure, measure
the associated statistics with calibrated noise, then sample i.i.d. records
from the factorized joint density. ``BUDGET_SPLIT`` gives 1/3 of epsilon to
structure selection and 2/3 to statistics measurement.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import marginals
from .data import Dataset, Domain
from .dp import (
    BudgetLedger,
    DpParams,
    as_generator,
    exponential_mechanism,
    gaussian_sigma,
    laplace_noise,
)
from .errors import ConfigurationError, EstimationError, ParseError

METHOD_MST = "mst"
METHOD_PRIVBAYES = "privbayes"

# default theta such that theta * epsilon * n = 4 * epsilon at |train| scale
DEFAULT_THETA_SCALE = 4.0

# epsilon fractions for (structure selection, statistics measurement)
BUDGET_SPLIT = (1.0 / 3.0, 2.0 / 3.0)

# L1 sensitivity of a probability table under one-record change
def _table_sensitivity(n):
    return 2.0 / n


@dataclass(frozen=True)
class GeneratorConfig:
    method: str
    dp: DpParams

    def __post_init__(self):
        if self.method not in (METHOD_MST, METHOD_PRIVBAYES):
            raise ConfigurationError(f"unknown method {self.method!r}")


class DisjointSets:
    """Union-find over 0..n-1 with path halving."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a, b):
        """Merge the sets of a and b; False if they already share one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


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
        if self.method == METHOD_MST:
            keys = sorted((min(i, j), max(i, j)) for i, j in self.keys)
        elif self.method == METHOD_PRIVBAYES:
            keys = ((node, tuple(parents)) for node, parents in self.keys)
        else:
            raise ConfigurationError(f"unknown method {self.method!r}")
        object.__setattr__(self, "keys", tuple(keys))

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
class TreeModel:
    """Spanning tree over attributes with node and edge probability tables."""

    domain: Domain
    structure: Structure
    node_tables: dict
    edge_tables: dict
    ledger: BudgetLedger = None

    def degrees(self):
        deg = {i: 0 for i in range(len(self.domain))}
        for i, j in self.structure.keys:
            deg[i] += 1
            deg[j] += 1
        return deg

    def validate(self, tol=1e-6):
        d = len(self.domain)
        if len(self.structure.keys) != d - 1:
            raise ConfigurationError("a spanning tree needs exactly d - 1 edges")
        sets = DisjointSets(d)
        if not all(sets.union(i, j) for i, j in self.structure.keys):
            raise ConfigurationError("edges contain a cycle")
        for i, j in self.structure.keys:
            pair = self.edge_tables[(i, j)].probs
            if np.abs(pair.sum(axis=1) - self.node_tables[i].probs).max() > tol:
                raise ConfigurationError(f"edge ({i},{j}) inconsistent with node {i}")
            if np.abs(pair.sum(axis=0) - self.node_tables[j].probs).max() > tol:
                raise ConfigurationError(f"edge ({i},{j}) inconsistent with node {j}")

    def to_json(self):
        # the structure's own form, with the domain second
        return {
            "method": METHOD_MST,
            "domain": self.domain.to_json(),
            **self.structure.to_json(),
            "node_tables": {str(i): t.to_json() for i, t in self.node_tables.items()},
            "edge_tables": {f"{i}-{j}": t.to_json() for (i, j), t in self.edge_tables.items()},
            "ledger": self.ledger.to_json() if self.ledger else None,
        }

    @classmethod
    def from_json(cls, obj):
        node_tables = {int(k): marginals.MarginalTable.from_json(v) for k, v in obj["node_tables"].items()}
        edge_tables = {
            tuple(int(x) for x in k.split("-")): marginals.MarginalTable.from_json(v)
            for k, v in obj["edge_tables"].items()
        }
        return cls(Domain.from_json(obj["domain"]), Structure.from_json(obj), node_tables, edge_tables)


@dataclass
class BayesNetModel:
    """Bayesian network as an ordered (node, parent set) list plus conditionals."""

    domain: Domain
    structure: Structure
    cond_tables: dict
    domain_threshold: float = math.inf
    ledger: BudgetLedger = None

    def validate(self):
        seen = set()
        for node, parents in self.structure.keys:
            if node in seen:
                raise ConfigurationError("node appears twice in the order")
            if any(p not in seen for p in parents):
                raise ConfigurationError("parent does not precede its child")
            seen.add(node)
        if len(seen) != len(self.domain):
            raise ConfigurationError("order must cover every attribute")

    def to_json(self):
        return {
            "method": METHOD_PRIVBAYES,
            "domain": self.domain.to_json(),
            **self.structure.to_json(),
            "cond_tables": {str(node): t.to_json() for node, t in self.cond_tables.items()},
            "domain_threshold": self.domain_threshold if math.isfinite(self.domain_threshold) else None,
            "ledger": self.ledger.to_json() if self.ledger else None,
        }

    @classmethod
    def from_json(cls, obj):
        tables = {int(k): marginals.ConditionalTable.from_json(v) for k, v in obj["cond_tables"].items()}
        thr = obj.get("domain_threshold")
        return cls(Domain.from_json(obj["domain"]), Structure.from_json(obj), tables, thr if thr is not None else math.inf)


# ---------------------------------------------------------------------------
# tree model
# ---------------------------------------------------------------------------

def mst_edge_score(ds, i, j, noisy_1way=None):
    """Total-variation-style dependency score between attributes i and j."""
    if i == j:
        raise ConfigurationError("edge score needs two distinct attributes")
    pair = marginals.marginal(ds, (i, j)).probs
    if noisy_1way is not None:
        pi = noisy_1way[i].probs
        pj = noisy_1way[j].probs
    else:
        pi = pair.sum(axis=1)
        pj = pair.sum(axis=0)
    return float(np.abs(pair - np.outer(pi, pj)).sum())


def _noisy_probs(probs, sigma, rng):
    """Add Gaussian noise to a probability table, clip negatives, renormalize."""
    noisy = probs + rng.normal(0.0, sigma, size=probs.shape)
    noisy = np.clip(noisy, 0.0, None)
    total = noisy.sum()
    if total <= 0:
        return np.full(probs.shape, 1.0 / probs.size)
    return noisy / total


def _ipf_to_margins(pair, pi, pj, tol=1e-13, max_iters=2000):
    """Iterative proportional fitting of a 2-way table to fixed 1-way margins."""
    out = pair.copy()
    for _ in range(max_iters):
        rows = out.sum(axis=1)
        out *= np.where(rows > 0, pi / np.where(rows > 0, rows, 1.0), 0.0)[:, None]
        cols = out.sum(axis=0)
        out *= np.where(cols > 0, pj / np.where(cols > 0, cols, 1.0), 0.0)[None, :]
        if np.abs(out.sum(axis=1) - pi).max() < tol:
            break
    return out


def _select_tree_edges(ds, dp, rng, ledger=None):
    """DP spanning-tree selection: noisy scores + d-1 exponential-mechanism steps."""
    d = len(ds.domain)
    n = len(ds)
    eps = dp.epsilon
    noiseless = math.isinf(eps)
    sel_frac = BUDGET_SPLIT[0]

    if noiseless:
        one_way = None
    else:
        if not dp.delta > 0:
            raise ConfigurationError("the tree generator needs delta > 0 for Gaussian noise")
        delta_each = dp.delta / (3 * d - 1)
        eps_each = sel_frac * eps / (2 * d)
        sigma = gaussian_sigma(eps_each, delta_each, _table_sensitivity(n))
        one_way = {}
        for i in range(d):
            probs = marginals.marginal(ds, (i,)).probs
            one_way[i] = marginals.MarginalTable((i,), _noisy_probs(probs, sigma, rng), n)
            if ledger is not None:
                ledger.spend(f"mst/select/1way/{i}", sel_frac / (2 * d), 1.0 / (3 * d - 1), "gaussian")

    all_pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    scores = {p: mst_edge_score(ds, p[0], p[1], one_way) for p in all_pairs}

    sets = DisjointSets(d)
    eps_step = math.inf if noiseless else sel_frac * eps / (2 * (d - 1))
    edges = []
    for step in range(d - 1):
        candidates = [p for p in all_pairs if sets.find(p[0]) != sets.find(p[1])]
        cand_scores = np.array([scores[p] for p in candidates])
        k = exponential_mechanism(cand_scores, eps_step, _table_sensitivity(n), rng)
        if ledger is not None and not noiseless:
            ledger.spend(f"mst/select/edge/{step}", sel_frac / (2 * (d - 1)), 0.0, "exponential")
        i, j = candidates[k]
        sets.union(i, j)
        edges.append((i, j))
    return Structure(METHOD_MST, edges)


def _consistent_tree_tables(node_probs, edge_probs, edges, n, floor):
    """Floor all tables and project edge tables onto common node margins."""
    node_tables = {}
    for i, probs in node_probs.items():
        node_tables[i] = marginals.MarginalTable((i,), marginals.floor_probs(probs, floor), n)
    edge_tables = {}
    for (i, j) in edges:
        pair = marginals.floor_probs(edge_probs[(i, j)], floor)
        pair = _ipf_to_margins(pair, node_tables[i].probs, node_tables[j].probs)
        edge_tables[(i, j)] = marginals.MarginalTable((i, j), pair, n)
    return node_tables, edge_tables


def fit_mst(train, cfg):
    """Fit a DP tree model: select edges, measure noisy marginals, make consistent."""
    domain = train.domain
    d = len(domain)
    if d < 2:
        raise ConfigurationError("tree model needs at least two attributes")
    if any(c < 1 for c in domain.cardinalities):
        raise ConfigurationError("degenerate attribute with zero cardinality")
    n = len(train)
    dp = cfg.dp
    eps = dp.epsilon
    noiseless = math.isinf(eps)
    rng = as_generator(dp.seed)
    ledger = BudgetLedger(dp)

    structure = _select_tree_edges(train, dp, rng, ledger)

    n_tables = 2 * d - 1
    sigma = None
    if not noiseless:
        eps_each = BUDGET_SPLIT[1] * eps / n_tables
        delta_each = dp.delta / (3 * d - 1)
        sigma = gaussian_sigma(eps_each, delta_each, _table_sensitivity(n))

    node_probs = {}
    for i in range(d):
        probs = marginals.marginal(train, (i,)).probs
        if sigma is not None:
            probs = _noisy_probs(probs, sigma, rng)
            ledger.spend(f"mst/measure/1way/{i}", BUDGET_SPLIT[1] / n_tables, 1.0 / (3 * d - 1), "gaussian")
        node_probs[i] = probs
    edge_probs = {}
    for (i, j) in structure.keys:
        probs = marginals.marginal(train, (i, j)).probs
        if sigma is not None:
            probs = _noisy_probs(probs, sigma, rng)
            ledger.spend(f"mst/measure/2way/{i}-{j}", BUDGET_SPLIT[1] / n_tables, 1.0 / (3 * d - 1), "gaussian")
        edge_probs[(i, j)] = probs

    floor = marginals.default_floor(n)
    node_tables, edge_tables = _consistent_tree_tables(node_probs, edge_probs, structure.keys, n, floor)
    return TreeModel(domain, structure, node_tables, edge_tables, ledger)


def tree_model_from_data(ds, structure, floor=None):
    """Noiseless tree model over a fixed tree (attacker-side density estimator)."""
    if floor is None:
        floor = marginals.default_floor(len(ds))
    node_probs = {i: marginals.marginal(ds, (i,)).probs for i in range(len(ds.domain))}
    edge_probs = {e: marginals.marginal(ds, e).probs for e in structure.keys}
    node_tables, edge_tables = _consistent_tree_tables(node_probs, edge_probs, structure.keys, len(ds), floor)
    return TreeModel(ds.domain, structure, node_tables, edge_tables)


def tree_log_density(model, rows):
    """Log of the tree-factorized joint density, vectorized over records."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    deg = model.degrees()
    logp = np.zeros(rows.shape[0])
    for i, table in model.node_tables.items():
        logp += (1 - deg[i]) * np.log(table.lookup_rows(rows))
    for table in model.edge_tables.values():
        logp += np.log(table.lookup_rows(rows))
    return logp


def tree_density(model, x):
    """Joint density of one record (or a matrix of records) under a tree model."""
    dens = np.exp(tree_log_density(model, x))
    return float(dens[0]) if np.asarray(x).ndim == 1 else dens


def sample_tree(model, n, seed):
    """Ancestral sampling: root at the lowest-index node, BFS over sorted neighbors."""
    rng = as_generator(seed)
    d = len(model.domain)
    adj = {i: [] for i in range(d)}
    for i, j in model.structure.keys:
        adj[i].append(j)
        adj[j].append(i)
    root = 0
    rows = np.zeros((int(n), d), dtype=np.int64)
    rows[:, root] = rng.choice(model.domain.cardinalities[root], size=int(n), p=model.node_tables[root].probs)
    visited = {root}
    queue = [root]
    while queue:
        parent_node = queue.pop(0)
        for child in sorted(adj[parent_node]):
            if child in visited:
                continue
            visited.add(child)
            queue.append(child)
            key = (parent_node, child) if parent_node < child else (child, parent_node)
            pair = model.edge_tables[key].probs
            if parent_node > child:
                pair = pair.T
            mass = pair.sum(axis=1, keepdims=True)
            # zero-mass parent values are never sampled; uniform placeholder
            cond = np.where(mass > 0, pair / np.where(mass > 0, mass, 1.0), 1.0 / pair.shape[1])
            for v in range(cond.shape[0]):
                mask = rows[:, parent_node] == v
                m = int(mask.sum())
                if m:
                    rows[mask, child] = rng.choice(cond.shape[1], size=m, p=cond[v])
    return Dataset(model.domain, rows)


# ---------------------------------------------------------------------------
# bayesian network
# ---------------------------------------------------------------------------

def privbayes_score(ds, i, parents):
    """Dependency score of a (node, parent set) candidate.

    Half the L1 distance between the joint P(X_i, Pi_i) and the product of
    its marginals; a one-record change moves it by at most 2/n.
    """
    parents = tuple(parents)
    if i in parents:
        raise ConfigurationError("node cannot be its own parent")
    if not parents:
        return 0.0
    joint = marginals.marginal(ds, parents + (i,)).probs
    p_child = marginals.marginal(ds, (i,)).probs
    p_parents = joint.sum(axis=-1)
    product = p_parents[..., None] * p_child
    return float(0.5 * np.abs(joint - product).sum())


def _parent_subsets(placed, cards, limit):
    """All subsets of placed nodes whose joint domain size fits the limit."""
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


def _domain_threshold(dp, n):
    """theta * epsilon * n: the largest (node, parents) table PrivBayes may pick."""
    if n == 0:
        raise EstimationError("PrivBayes needs a non-empty dataset")
    theta = dp.theta if dp.theta is not None else DEFAULT_THETA_SCALE / n
    return math.inf if math.isinf(dp.epsilon) else theta * dp.epsilon * n


def _select_bayes_order(ds, dp, rng, ledger=None):
    """Greedy DP selection of an ordered (node, parent set) list."""
    d = len(ds.domain)
    if d < 1:
        raise ConfigurationError("empty domain")
    n = len(ds)
    cards = ds.domain.cardinalities
    eps = dp.epsilon
    noiseless = math.isinf(eps)
    threshold = _domain_threshold(dp, n)

    first = int(rng.integers(d))
    order = [(first, ())]
    placed = [first]
    if d == 1:
        return Structure(METHOD_PRIVBAYES, order)
    eps_step = math.inf if noiseless else BUDGET_SPLIT[0] * eps / (d - 1)
    for step in range(1, d):
        unplaced = sorted(set(range(d)) - set(placed))
        candidates = []
        for node in unplaced:
            limit = threshold / cards[node]
            for sub in _parent_subsets(sorted(placed), cards, limit):
                candidates.append((node, sub))
        if not candidates:
            candidates = [(node, ()) for node in unplaced]
        scores = np.array([privbayes_score(ds, node, sub) for node, sub in candidates])
        k = exponential_mechanism(scores, eps_step, _table_sensitivity(n), rng)
        if ledger is not None and not noiseless:
            ledger.spend(f"privbayes/select/{step}", BUDGET_SPLIT[0] / (d - 1), 0.0, "exponential")
        node, sub = candidates[k]
        order.append((node, sub))
        placed.append(node)
    return Structure(METHOD_PRIVBAYES, order)


def fit_privbayes(train, cfg):
    """Fit a DP Bayesian network; Laplace noise on measured conditionals."""
    domain = train.domain
    d = len(domain)
    n = len(train)
    dp = cfg.dp
    eps = dp.epsilon
    noiseless = math.isinf(eps)
    rng = as_generator(dp.seed)
    ledger = BudgetLedger(dp)
    threshold = _domain_threshold(dp, n)

    structure = _select_bayes_order(train, dp, rng, ledger)

    floor = marginals.default_floor(n)
    scale = None
    if not noiseless:
        eps_each = BUDGET_SPLIT[1] * eps / d
        scale = _table_sensitivity(n) / eps_each

    cond_tables = {}
    for node, parents in structure.keys:
        joint = marginals.counts(train, parents + (node,)).astype(np.float64) / n
        if scale is not None:
            joint = joint + laplace_noise(scale, joint.size, rng).reshape(joint.shape)
            joint = np.clip(joint, 0.0, None)
            ledger.spend(f"privbayes/measure/{node}", BUDGET_SPLIT[1] / d, 0.0, "laplace")
        cond_tables[node] = marginals.conditional_from_joint(joint, node, parents, n, floor)
    return BayesNetModel(domain, structure, cond_tables, threshold, ledger)


def bayes_model_from_data(ds, structure, floor=None):
    """Noiseless Bayesian-network tables over a fixed structure."""
    if floor is None:
        floor = marginals.default_floor(len(ds))
    cond_tables = {
        node: marginals.conditional(ds, node, parents, floor) for node, parents in structure.keys
    }
    return BayesNetModel(ds.domain, structure, cond_tables)


def bayes_log_density(model, rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    logp = np.zeros(rows.shape[0])
    for table in model.cond_tables.values():
        logp += np.log(table.lookup_rows(rows))
    return logp


def bayes_density(model, x):
    dens = np.exp(bayes_log_density(model, x))
    return float(dens[0]) if np.asarray(x).ndim == 1 else dens


def sample_bayes(model, n, seed):
    """Ancestral sampling in topological order."""
    rng = as_generator(seed)
    d = len(model.domain)
    rows = np.zeros((int(n), d), dtype=np.int64)
    for node, parents in model.structure.keys:
        table = model.cond_tables[node]
        nc = model.domain.cardinalities[node]
        if not parents:
            rows[:, node] = rng.choice(nc, size=int(n), p=table.probs.ravel())
            continue
        shape = tuple(model.domain.cardinalities[p] for p in parents)
        flat_cfg = np.ravel_multi_index(tuple(rows[:, p] for p in parents), shape)
        blocks = table.probs.reshape(-1, nc)
        for cfg_idx in np.unique(flat_cfg):
            mask = flat_cfg == cfg_idx
            rows[mask, node] = rng.choice(nc, size=int(mask.sum()), p=blocks[cfg_idx])
    return Dataset(model.domain, rows)


def fit(train, cfg):
    """Dispatch on the configured method."""
    if cfg.method == METHOD_MST:
        return fit_mst(train, cfg)
    return fit_privbayes(train, cfg)


def sample(model, n, seed):
    if isinstance(model, TreeModel):
        return sample_tree(model, n, seed)
    return sample_bayes(model, n, seed)


def model_to_file(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json(), fh)


def model_from_file(path):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj["method"] == METHOD_MST:
        return TreeModel.from_json(obj)
    return BayesNetModel.from_json(obj)
