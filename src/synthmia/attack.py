"""Membership-inference attack registry, scores, household aggregation, activations.

Every attack compares the synthetic data against the auxiliary data through
ratios of floored probability tables; a record with a high ratio looks more
typical of the synthetic data than of the population, suggesting membership
in the training set. Each attack returns one log score per record, a 1-D
float64 array.
"""

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
    if not isinstance(name, str):
        raise ConfigurationError(f"attack name {name!r} is not a string")
    base = name[:-1] if name.endswith("*") else name
    if base not in ATTACKS:
        raise ConfigurationError(f"unknown attack {name!r}")
    family, needs = ATTACKS[base]
    starred = base != name
    if starred and needs != "structure":
        raise ConfigurationError(f"{name!r}: '*' (true structure) applies only to structure attacks")
    return family, needs, starred, globals()[base.replace("-", "_")]


def score_records(fn, target, *inputs):
    """``fn(target, *inputs)``, scoring each distinct record of the target Dataset once (scores are per record)."""
    columns, _, inverse = marginals.distinct(target)
    return fn(columns.T, *inputs)[inverse]


def _rows(target):
    return np.atleast_2d(np.asarray(getattr(target, "rows", target), dtype=np.int64))


def _log_ratio_table(attrs, synth, aux):
    """log of the floored marginal ratio mu^synth / mu^aux, per cell of the attrs table (``marginals.log_marginal``)."""
    return marginals.log_marginal(synth, attrs) - marginals.log_marginal(aux, attrs)


def _pair_cells(table, rows, i, j):
    """``table[rows[:, i], rows[:, j]]``, one take by each record's flat cell."""
    return table.ravel().take(rows[:, i] * table.shape[1] + rows[:, j])


def _marginal_ratio(rows, pair, synth, aux):
    """The floored marginal ratio of an attribute pair per record, exponentiated per cell."""
    return _pair_cells(np.exp(_log_ratio_table(pair, synth, aux)), rows, *pair)


def _log_density_ratio(target, structure, synth, aux):
    """log of the ratio of the densities the generator's noiseless measurement fits on synth and on aux."""
    rows = _rows(target)
    model_s, model_a = sdg.model_from_data(synth, structure), sdg.model_from_data(aux, structure)
    return sdg.log_density(model_s, rows) - sdg.log_density(model_a, rows)


def tamis_mst(target, structure, synth, aux):
    """Ratio of tree-factorized densities fitted on synth and on aux."""
    return _log_density_ratio(target, structure, synth, aux)


def tamis_pb(target, structure, synth, aux):
    """Ratio of Bayesian-network densities fitted on synth and on aux."""
    return _log_density_ratio(target, structure, synth, aux)


def _density_ratio(rows, structure, synth, aux):
    return np.exp(_log_density_ratio(rows, structure, synth, aux))


def _weighted_mean_ratio(target, terms, ratio, synth, aux):
    """log of the weighted mean of per-factor ratios, summed in ``terms`` order.

    ``terms`` is a sequence of (key, weight) and ``ratio(rows, key, synth, aux)``
    is ``_marginal_ratio`` (attribute-pair keys) or ``_density_ratio``
    (one-factor ``sdg.Structure`` keys, see ``_factors``).
    """
    rows = _rows(target)
    total = sum(w for _, w in terms)
    if total <= 0:
        raise ConfigurationError("no structure element has positive weight")
    acc = np.zeros(rows.shape[0])
    for key, w in terms:
        if w:
            acc += w * ratio(rows, key, synth, aux)
    return np.log(acc / total)


def mamamia_mst(target, weights, synth, aux):
    """Weight-normalized average of 2-way marginal ratios (1-ways excluded)."""
    terms = sorted(weights.weights.items())
    return _weighted_mean_ratio(target, terms, _marginal_ratio, synth, aux)


def _factors(terms):
    """Each (node, parents) key of ``terms`` as the one-factor network the generator's measurement fits."""
    return [(sdg.Structure(sdg.METHOD_PRIVBAYES, [key]), w) for key, w in terms]


def mamamia_pb(target, weights, synth, aux):
    """Weight-normalized average of conditional-table ratios."""
    terms = _factors(sorted(weights.weights.items()))
    return _weighted_mean_ratio(target, terms, _density_ratio, synth, aux)


def hybrid_mst(target, structure, synth, aux):
    """Uniform average of 2-way ratios over the recovered tree's edges."""
    # unit weights in sorted key order: exactly mamamia's sum under indicator weights
    terms = [(e, 1) for e in structure.keys]
    return _weighted_mean_ratio(target, terms, _marginal_ratio, synth, aux)


def hybrid_pb(target, structure, synth, aux):
    """Uniform average of conditional ratios over the recovered network."""
    # unit weights in sorted key order: exactly mamamia's sum under indicator weights
    terms = _factors((key, 1) for key in sorted(structure.keys))
    return _weighted_mean_ratio(target, terms, _density_ratio, synth, aux)


def _node_pair_mean(target, pairs, synth, aux):
    """log of the mean of the d node ratios and each pair's ratio over its nodes'."""
    rows = _rows(target)
    d = len(synth.domain)
    node = [_log_ratio_table((i,), synth, aux) for i in range(d)]
    acc = np.zeros(rows.shape[0])
    for i in range(d):
        acc += np.exp(node[i])[rows[:, i]]
    for i, j in pairs:
        pair = _log_ratio_table((i, j), synth, aux)
        acc += _pair_cells(np.exp(pair - node[i][:, None] - node[j]), rows, i, j)
    return np.log(acc / (d + len(pairs)))


def tamis_mst_avg(target, structure, synth, aux):
    """Average (rather than product) of node and edge ratio terms."""
    return _node_pair_mean(target, structure.keys, synth, aux)


def marginals_sigma(target, synth, aux):
    """Structure-free baseline: average over all 1- and 2-way ratio terms."""
    d = len(synth.domain)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return _node_pair_mean(target, pairs, synth, aux)


def marginals_pi(target, synth, aux):
    """Structure-free baseline: prefactored product of 1- and 2-way ratios."""
    rows = _rows(target)
    d = len(synth.domain)
    logs = np.zeros(rows.shape[0])
    for i in range(d):
        logs += ((2 - d) * _log_ratio_table((i,), synth, aux))[rows[:, i]]
    for i in range(d):
        for j in range(i + 1, d):
            logs += _pair_cells(_log_ratio_table((i, j), synth, aux), rows, i, j)
    n_terms = d + d * (d - 1) // 2
    return logs - np.log(n_terms)


def aggregate_households(log_scores, household_id):
    """log of the mean raw (linear-space) score of each household, in ascending household-id order."""
    household_id = np.asarray(household_id, dtype=np.int64)
    if household_id.shape != np.shape(log_scores):
        raise ConfigurationError("household ids must align with scores")
    _, inverse = np.unique(household_id, return_inverse=True)
    return np.log(np.bincount(inverse, weights=np.exp(log_scores)) / np.bincount(inverse))


def check_activation(threshold, prior=None):
    """ConfigurationError unless ``prior``, when given, lies in (0, 1) and ``threshold`` is finite."""
    if prior is not None and not 0.0 < prior < 1.0:
        raise ConfigurationError("prior must lie in (0, 1)")
    if not np.isfinite(threshold):
        raise ConfigurationError("threshold must be a finite number")


def activate_simple(log_scores, threshold=0.5):
    """Map raw scores through 2*sigmoid(score) - 1, then threshold."""
    check_activation(threshold)
    lam = np.exp(log_scores)
    probs = 2.0 / (1.0 + np.exp(-lam)) - 1.0
    preds = (probs >= threshold).astype(np.int64)
    return probs, preds


def activate_calibrated(log_scores, prior, threshold=0.5):
    """Quantile-centered activation enforcing a predicted-positive rate.

    Scores are standardized with the population standard deviation, centered
    on their (1 - prior) linearly-interpolated quantile, passed through a
    sigmoid, and thresholded. Degenerate (constant) scores give all
    negative predictions.
    """
    check_activation(threshold, prior)
    lam = np.exp(log_scores)
    std = lam.std()
    if lam.size < 2 or std == 0.0:
        return np.zeros(lam.size), np.zeros(lam.size, dtype=np.int64)
    z = (lam - lam.mean()) / std
    centered = z - np.quantile(z, 1.0 - prior)
    probs = 1.0 / (1.0 + np.exp(-centered))
    preds = (probs >= threshold).astype(np.int64)
    return probs, preds
