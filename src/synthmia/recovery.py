"""Attacker-side structure estimation.

Three routes: exact maximum-spanning-tree recovery from the synthetic data,
a single Bayesian-network selection run on the synthetic data, and shadow
modeling (repeated selection runs on random auxiliary subsets, accumulating
how often each structure element gets picked).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import sdg
from .dp import DpParams, as_generator, derive_seed
from .errors import ConfigurationError


@dataclass(frozen=True)
class ShadowConfig:
    K: int = 50
    subset_size: int = 10000
    dp: DpParams = None
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ConfigurationError("shadow run count must be >= 1")
        if self.subset_size < 1:
            raise ConfigurationError("shadow subset size must be >= 1")
        if self.dp is None:
            raise ConfigurationError("shadow modeling needs the attacked generator's DP params")


@dataclass
class ShadowWeights:
    """Selection counts per structure key over K shadow runs.

    Keys are edge pairs (i, j) with i < j for the tree method, or
    (node, parent tuple) for the Bayesian network.
    """

    method: str
    K: int
    weights: dict = field(default_factory=dict)

    def total(self):
        return sum(self.weights.values())

    def add(self, key):
        self.weights[key] = self.weights.get(key, 0) + 1

    def to_json(self):
        out = {}
        for key, w in sorted(self.weights.items()):
            if self.method == sdg.METHOD_MST:
                name = f"{key[0]}-{key[1]}"
            else:
                node, parents = key
                name = f"{node}|{','.join(str(p) for p in parents)}"
            out[name] = w
        return {"method": self.method, "K": self.K, "weights": out}

    @classmethod
    def from_json(cls, obj):
        weights = {}
        for name, w in obj["weights"].items():
            if obj["method"] == sdg.METHOD_MST:
                i, j = name.split("-")
                key = (int(i), int(j))
            else:
                node, parents = name.split("|")
                key = (int(node), tuple(int(p) for p in parents.split(",")) if parents else ())
            weights[key] = int(w)
        return cls(obj["method"], int(obj["K"]), weights)


def recover_tree(synth):
    """Exact maximum spanning tree under the edge dependency score.

    Deterministic Kruskal greedy over edges ordered by (-score, pair);
    needs no knowledge of the generator's DP parameters.
    """
    d = len(synth.domain)
    if len(synth) == 0 or d < 2:
        raise ConfigurationError("tree recovery needs a non-empty dataset with d >= 2")
    scored = []
    for i in range(d):
        for j in range(i + 1, d):
            scored.append((-sdg.mst_edge_score(synth, i, j), (i, j)))
    scored.sort()

    sets = sdg.DisjointSets(d)
    edges = []
    for _, (i, j) in scored:
        if sets.union(i, j):
            edges.append((i, j))
            if len(edges) == d - 1:
                break
    return tuple(sorted(edges))


def recover_bayesnet(synth, dp):
    """One Bayesian-network selection run on the synthetic data.

    Requires the generator's hyper-parameters (epsilon, theta); returns the
    ordered (node, parent set) structure only.
    """
    return sdg._select_bayes_order(synth, dp, as_generator(dp.seed))


def _selection_run(subset, method, dp, rng):
    if method == sdg.METHOD_MST:
        return sdg._select_tree_edges(subset, dp, rng)
    return sdg._select_bayes_order(subset, dp, rng)


def shadow_weights(aux, cfg, method=sdg.METHOD_MST):
    """K selection runs on uniform without-replacement subsets of aux."""
    if cfg.subset_size > len(aux):
        raise ConfigurationError("shadow subset size exceeds the auxiliary dataset")
    weights = ShadowWeights(method, cfg.K)
    for k in range(cfg.K):
        rng = as_generator(derive_seed(cfg.seed, k))
        idx = rng.choice(len(aux), size=cfg.subset_size, replace=False)
        subset = aux.subset(np.sort(idx))
        structure = _selection_run(subset, method, cfg.dp, rng)
        if method == sdg.METHOD_MST:
            for edge in structure:
                weights.add(edge)
        else:
            for node, parents in structure:
                weights.add((node, tuple(parents)))
    return weights


def weights_to_file(weights, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(weights.to_json(), fh, indent=2)


def weights_from_file(path):
    with open(path, encoding="utf-8") as fh:
        return ShadowWeights.from_json(json.load(fh))
