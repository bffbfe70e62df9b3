"""Membership-inference attack registry, scores, household aggregation, activations.

Every attack compares the synthetic data against the auxiliary data through
ratios of floored probability tables; a record with a high ratio looks more
typical of the synthetic data than of the population, suggesting membership
in the training set. Scores are kept in log-space internally.
"""

from dataclasses import dataclass

import numpy as np

from . import marginals, sdg
from .errors import ConfigurationError

# attack name -> (generator family it targets, attacker input it takes):
# "structure" (an ``sdg.Structure``), "weights" (shadow weights) or None
ATTACKS = {
    "tamis-mst": (sdg.METHOD_MST, "structure"),
    "tamis-mst-avg": (sdg.METHOD_MST, "structure"),
    "mamamia-mst": (sdg.METHOD_MST, "weights"),
    "hybrid-mst": (sdg.METHOD_MST, "structure"),
    "tamis-pb": (sdg.METHOD_PRIVBAYES, "structure"),
    "mamamia-pb": (sdg.METHOD_PRIVBAYES, "weights"),
    "hybrid-pb": (sdg.METHOD_PRIVBAYES, "structure"),
    "marginals-sigma": ("free", None),
    "marginals-pi": ("free", None),
}


def lookup(name):
    """(family, input, starred, score function) of an attack name.

    A trailing ``*`` asks for the generator's true structure, so it is only
    valid on structure attacks. The score function is this module's
    attribute named like the attack, read at call time.
    """
    base = name[:-1] if name.endswith("*") else name
    if base not in ATTACKS:
        raise ConfigurationError(f"unknown attack {name!r}")
    family, needs = ATTACKS[base]
    starred = base != name
    if starred and needs != "structure":
        raise ConfigurationError(f"{name!r}: '*' (true structure) applies only to structure attacks")
    return family, needs, starred, globals()[base.replace("-", "_")]


@dataclass(frozen=True)
class ScoreVector:
    """Per-record raw attack scores, stored as logs."""

    attack_name: str
    log_scores: np.ndarray
    target_ids: np.ndarray = None

    def __post_init__(self):
        logs = np.ascontiguousarray(self.log_scores, dtype=np.float64)
        logs.setflags(write=False)
        object.__setattr__(self, "log_scores", logs)
        if self.target_ids is None:
            ids = np.arange(logs.size, dtype=np.int64)
        else:
            ids = np.ascontiguousarray(self.target_ids, dtype=np.int64)
            if ids.shape != logs.shape:
                raise ConfigurationError("target_ids must align with scores")
        ids.setflags(write=False)
        object.__setattr__(self, "target_ids", ids)

    def __len__(self):
        return self.log_scores.size

    @property
    def scores(self):
        return np.exp(self.log_scores)


def _rows(target):
    return np.atleast_2d(np.asarray(getattr(target, "rows", target), dtype=np.int64))


def _log_marginal_ratio(rows, attrs, synth, aux):
    """log of the floored marginal ratio mu^synth / mu^aux, per record."""
    ts = marginals.marginal(synth, attrs, floor=marginals.default_floor(len(synth)))
    ta = marginals.marginal(aux, attrs, floor=marginals.default_floor(len(aux)))
    return np.log(ts.lookup_rows(rows)) - np.log(ta.lookup_rows(rows))


def _log_conditional_ratio(rows, key, synth, aux):
    """log of the floored conditional ratio for a (node, parents) key, per record."""
    ts = marginals.conditional(synth, *key)
    ta = marginals.conditional(aux, *key)
    return np.log(ts.lookup_rows(rows)) - np.log(ta.lookup_rows(rows))


def tamis_mst(target, structure, synth, aux):
    """Ratio of tree-factorized densities fitted on synth and on aux."""
    rows = _rows(target)
    model_s = sdg.tree_model_from_data(synth, structure)
    model_a = sdg.tree_model_from_data(aux, structure)
    logs = sdg.tree_log_density(model_s, rows) - sdg.tree_log_density(model_a, rows)
    return ScoreVector("tamis-mst", logs)


def tamis_pb(target, structure, synth, aux):
    """Ratio of Bayesian-network densities fitted on synth and on aux."""
    rows = _rows(target)
    model_s = sdg.bayes_model_from_data(synth, structure)
    model_a = sdg.bayes_model_from_data(aux, structure)
    logs = sdg.bayes_log_density(model_s, rows) - sdg.bayes_log_density(model_a, rows)
    return ScoreVector("tamis-pb", logs)


def _weighted_mean_ratio(name, target, terms, log_ratio, synth, aux):
    """log of the weighted mean of per-factor ratios, summed in ``terms`` order.

    ``terms`` is a sequence of (key, weight); ``log_ratio`` is
    ``_log_marginal_ratio`` (pair keys) or ``_log_conditional_ratio``.
    """
    rows = _rows(target)
    total = sum(w for _, w in terms)
    if total <= 0:
        raise ConfigurationError(f"{name}: no structure element has positive weight")
    acc = np.zeros(rows.shape[0])
    for key, w in terms:
        if w:
            acc += w * np.exp(log_ratio(rows, key, synth, aux))
    return ScoreVector(name, np.log(acc / total))


def mamamia_mst(target, weights, synth, aux):
    """Weight-normalized average of 2-way marginal ratios (1-ways excluded)."""
    terms = sorted(weights.weights.items())
    return _weighted_mean_ratio("mamamia-mst", target, terms, _log_marginal_ratio, synth, aux)


def mamamia_pb(target, weights, synth, aux):
    """Weight-normalized average of conditional-table ratios."""
    terms = sorted(weights.weights.items())
    return _weighted_mean_ratio("mamamia-pb", target, terms, _log_conditional_ratio, synth, aux)


def hybrid_mst(target, structure, synth, aux):
    """Uniform average of 2-way ratios over the recovered tree's edges."""
    # unit weights in sorted key order: exactly mamamia's sum under indicator weights
    terms = [(e, 1) for e in structure.keys]
    return _weighted_mean_ratio("hybrid-mst", target, terms, _log_marginal_ratio, synth, aux)


def hybrid_pb(target, structure, synth, aux):
    """Uniform average of conditional ratios over the recovered network."""
    # unit weights in sorted key order: exactly mamamia's sum under indicator weights
    terms = [(key, 1) for key in sorted(structure.keys)]
    return _weighted_mean_ratio("hybrid-pb", target, terms, _log_conditional_ratio, synth, aux)


def _node_pair_mean(name, target, pairs, synth, aux):
    """log of the mean of the d node ratios and each pair's ratio over its nodes'."""
    rows = _rows(target)
    d = len(synth.domain)
    node_ratio = [_log_marginal_ratio(rows, (i,), synth, aux) for i in range(d)]
    acc = np.zeros(rows.shape[0])
    for i in range(d):
        acc += np.exp(node_ratio[i])
    for i, j in pairs:
        pair = _log_marginal_ratio(rows, (i, j), synth, aux)
        acc += np.exp(pair - node_ratio[i] - node_ratio[j])
    return ScoreVector(name, np.log(acc / (d + len(pairs))))


def tamis_mst_avg(target, structure, synth, aux):
    """Average (rather than product) of node and edge ratio terms."""
    return _node_pair_mean("tamis-mst-avg", target, structure.keys, synth, aux)


def marginals_sigma(target, synth, aux):
    """Structure-free baseline: average over all 1- and 2-way ratio terms."""
    d = len(synth.domain)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return _node_pair_mean("marginals-sigma", target, pairs, synth, aux)


def marginals_pi(target, synth, aux):
    """Structure-free baseline: prefactored product of 1- and 2-way ratios."""
    rows = _rows(target)
    d = len(synth.domain)
    logs = np.zeros(rows.shape[0])
    for i in range(d):
        logs += (2 - d) * _log_marginal_ratio(rows, (i,), synth, aux)
    for i in range(d):
        for j in range(i + 1, d):
            logs += _log_marginal_ratio(rows, (i, j), synth, aux)
    n_terms = d + d * (d - 1) // 2
    return ScoreVector("marginals-pi", logs - np.log(n_terms))


def aggregate_households(score_vector, household_id):
    """Mean of raw (linear-space) scores within each household."""
    household_id = np.asarray(household_id, dtype=np.int64)
    if household_id.shape != score_vector.log_scores.shape:
        raise ConfigurationError("household ids must align with scores")
    ids, inverse = np.unique(household_id, return_inverse=True)
    sums = np.bincount(inverse, weights=score_vector.scores)
    counts = np.bincount(inverse)
    means = sums / counts
    return ScoreVector(score_vector.attack_name, np.log(means), ids)


def activate_simple(score_vector, threshold=0.5):
    """Map raw scores through 2*sigmoid(score) - 1, then threshold."""
    lam = score_vector.scores
    probs = 2.0 / (1.0 + np.exp(-lam)) - 1.0
    preds = (probs >= threshold).astype(np.int64)
    return probs, preds


def activate_calibrated(score_vector, prior, threshold=0.5):
    """Quantile-centered activation enforcing a predicted-positive rate.

    Scores are standardized with the population standard deviation, centered
    on their (1 - prior) linearly-interpolated quantile, passed through a
    sigmoid, and thresholded. Degenerate (constant) score vectors give all
    negative predictions.
    """
    if not 0.0 < prior < 1.0:
        raise ConfigurationError("prior must lie in (0, 1)")
    lam = score_vector.scores
    std = lam.std()
    if lam.size < 2 or std == 0.0:
        return np.zeros(lam.size), np.zeros(lam.size, dtype=np.int64)
    z = (lam - lam.mean()) / std
    centered = z - np.quantile(z, 1.0 - prior)
    probs = 1.0 / (1.0 + np.exp(-centered))
    preds = (probs >= threshold).astype(np.int64)
    return probs, preds
