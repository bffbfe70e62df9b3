"""Attacker-side structure estimation.

Each route is the generator's own DP structure selection: a noiseless tree
selection (the exact maximum spanning tree) or a Bayesian-network run on the
synthetic data, or shadow modeling (K runs on random auxiliary subsets).
"""

import math
from dataclasses import dataclass, field

from . import marginals, sdg
from .dp import Accountant, DpParams, as_generator, derive_seed
from .errors import ConfigurationError, ParseError


@dataclass
class ShadowWeights:
    """Selection counts per structure key over K shadow runs.

    Keys are ``sdg.Structure`` keys: edges (i, j) with i < j for the tree
    method, (node, parent tuple) for the Bayesian network.
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
        """Inverse of ``to_json``; ParseError on a missing or ill-typed field."""
        try:
            weights = {_parse_key(obj["method"], name): w for name, w in obj["weights"].items()}
            counts = [obj["K"], *weights.values()]
        except (KeyError, TypeError, ValueError, AttributeError):
            counts = None
        if counts is None or not all(map(sdg._is_index, counts)):
            raise ParseError('shadow weights are {"method", "K": runs, "weights": {key: count, ...}}')
        return cls(obj["method"], obj["K"], weights)


def _parse_key(method, name):
    """The structure key of a ``to_json`` key name ("i-j" or "node|p,p")."""
    if method == sdg.METHOD_MST:
        i, j = name.split("-")
        return (int(i), int(j))
    if method == sdg.METHOD_PRIVBAYES:
        node, parents = name.split("|")
        return (int(node), tuple(int(p) for p in parents.split(",")) if parents else ())
    raise ValueError(f"unknown method {method!r}")


def recover_tree(synth):
    """Exact maximum spanning tree under the edge dependency score.

    The tree generator's own selection run at epsilon = inf, greedy over edges
    by (-score, pair); needs no knowledge of the generator's DP parameters.
    """
    if len(synth) == 0 or len(synth.domain) < 2:
        raise ConfigurationError("tree recovery needs a non-empty dataset with d >= 2")
    return sdg.method_steps(sdg.METHOD_MST)[0](synth, Accountant(DpParams(math.inf)), None)


def recover_bayesnet(synth, dp, seed):
    """One Bayesian-network selection run on the synthetic data.

    Requires the generator's hyper-parameters (epsilon, theta); returns the
    ordered (node, parent set) structure only.
    """
    return sdg.method_steps(sdg.METHOD_PRIVBAYES)[0](synth, Accountant(dp), as_generator(seed))


def recover(synth, method, dp, seed):
    """The structure of a ``method`` generator recovered from synth (dp and seed: PrivBayes's)."""
    sdg.method_steps(method)  # ConfigurationError for an unknown method
    return recover_tree(synth) if method == sdg.METHOD_MST else recover_bayesnet(synth, dp, seed)


def shadow_weights(aux, method, dp, seed, k, subset_size):
    """k selection runs at budget dp on uniform without-replacement subsets of aux, run i from derive_seed(seed, i).

    A subset is aux's distinct rows weighted by how often its draw took each (``marginals.subset``).
    """
    select, _ = sdg.method_steps(method)
    if k < 1:
        raise ConfigurationError("shadow run count must be >= 1")
    if subset_size < 1:
        raise ConfigurationError("shadow subset size must be >= 1")
    if dp is None:
        raise ConfigurationError("shadow modeling needs the attacked generator's DP params")
    if subset_size > len(aux):
        raise ConfigurationError("shadow subset size exceeds the auxiliary dataset")
    weights = ShadowWeights(method, k)
    for run in range(k):
        rng = as_generator(derive_seed(seed, run))
        idx = rng.choice(len(aux), size=subset_size, replace=False)
        subset = marginals.subset(aux, idx)
        for key in select(subset, Accountant(dp), rng).keys:
            weights.add(key)
    return weights
