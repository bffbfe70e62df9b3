"""Output checks for the benchmark workloads.

Every check recomputes its expectation here, from the workload's own
configuration and the files the program wrote, or tests a property the
method must have. Nothing in this module imports synthmia, so a fault in the
program cannot hide behind the same fault in its check.

Each check returns a list of error strings; an empty list means it passed.
"""

import collections
import csv
import json
import math
import os
import statistics

import numpy as np

SETTINGS = ("aux-individuals", "target-individuals", "target-households")
SETTING_METRICS = ("auroc", "balanced_accuracy_simple", "balanced_accuracy_calibrated")
RECOVERY_METRICS = ("choice_accuracy", "precision", "recall", "jaccard", "perfect_match")
RESERVED_COLUMNS = ("__household__", "__member__")
# Share of the generator's tree edges that recovery from synth must find at
# the largest epsilon, over all replicas of a run. Recovery is statistical: on
# grid-mst-wide (d = 16, 4k synthetic rows) about one replica in ten misses
# one edge, and three of four replicas did so in one run, so exact equality
# per replica is not a property the method has there. For a single d = 8
# replica the bar still means the whole tree.
MIN_EDGE_RECALL = 0.9


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def attack_method(attack):
    """Generator method an attack targets, or None for structure-free attacks."""
    base = attack.rstrip("*")
    if base.startswith("marginals-"):
        return None
    if base.endswith("-mst") or base.endswith("-mst-avg"):
        return "mst"
    if base.endswith("-pb"):
        return "privbayes"
    raise ValueError(f"unknown attack {attack!r}")


# ---------------------------------------------------------------------------
# replica workloads
# ---------------------------------------------------------------------------

def expected_replica_keys(config):
    """Every (replica, method, epsilon, setting, attack, metric) the config implies."""
    keys = set()
    for r in range(config["replicas"]):
        for method in config["methods"]:
            for eps in config["epsilons"]:
                for metric in RECOVERY_METRICS:
                    keys.add((str(r), method, eps, "recovery", f"recover-{method}", metric))
                for attack in config["attacks"]:
                    if attack_method(attack) not in (None, method):
                        continue
                    for setting in SETTINGS:
                        for metric in SETTING_METRICS:
                            keys.add((str(r), method, eps, setting, attack, metric))
    return keys


def read_replica_rows(out_dir):
    """(key, value) pairs from every replica CSV in an experiment directory."""
    rows = []
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("replica_") and name.endswith(".csv")):
            continue
        with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                key = (rec["replica"], rec["method"], rec["epsilon"], rec["setting"], rec["attack"], rec["metric"])
                rows.append((key, float(rec["value"])))
    return rows


def check_row_set(rows, expected):
    errors = []
    seen = collections.Counter(key for key, _ in rows)
    missing = expected - set(seen)
    extra = set(seen) - expected
    repeated = [key for key, n in seen.items() if n > 1]
    if missing:
        errors.append(f"{len(missing)} metric rows missing, e.g. {sorted(missing)[0]}")
    if extra:
        errors.append(f"{len(extra)} unexpected metric rows, e.g. {sorted(extra)[0]}")
    if repeated:
        errors.append(f"{len(repeated)} metric rows repeated, e.g. {sorted(repeated)[0]}")
    return errors


def check_value_ranges(rows):
    errors = []
    for key, value in rows:
        if not 0.0 <= value <= 1.0:
            errors.append(f"{key} = {value} outside [0, 1]")
        elif key[-1] == "perfect_match" and value not in (0.0, 1.0):
            errors.append(f"{key} = {value} is not 0 or 1")
    return errors


def check_summary(rows, summary):
    """summary.json against mean / stdv / median / n recomputed per cell."""
    groups = collections.defaultdict(list)
    for key, value in rows:
        groups["/".join(key[1:])].append(value)
    errors = []
    if set(groups) != set(summary):
        errors.append(f"summary.json cells differ from the replica CSVs ({len(summary)} vs {len(groups)})")
    for name, values in sorted(groups.items()):
        cell = summary.get(name)
        if cell is None:
            continue
        want = {
            "mean": math.fsum(values) / len(values),
            "median": statistics.median(values),
            "stdv": statistics.stdev(values) if len(values) > 1 else 0.0,
        }
        for stat, value in want.items():
            if not _close(cell[stat], value):
                errors.append(f"summary {name} {stat} = {cell[stat]}, recomputed {value}")
        if cell["n"] != len(values):
            errors.append(f"summary {name} n = {cell['n']}, recomputed {len(values)}")
    return errors


def _by_key(rows):
    return {key: value for key, value in rows}


def check_mst_recovery(rows, config):
    """At the largest epsilon, recovery from synth finds the generator's tree."""
    if "mst" not in config["methods"]:
        return []
    top = max(config["epsilons"], key=float)
    values = _by_key(rows)
    recalls = []
    for r in range(config["replicas"]):
        value = values.get((str(r), "mst", top, "recovery", "recover-mst", "recall"))
        if value is None:
            return [f"replica {r}: no recover-mst recall row at epsilon {top}"]
        recalls.append(value)
    mean = math.fsum(recalls) / len(recalls)
    if mean < MIN_EDGE_RECALL - 1e-12:
        return [f"recovered MST finds {mean:.3f} of the generator's edges at epsilon {top}, below {MIN_EDGE_RECALL}"]
    return []


def check_power_grows(rows, config, attack):
    """Mean aux-individuals AUROC of ``attack`` rises from the smallest to the largest epsilon."""
    lo = min(config["epsilons"], key=float)
    hi = max(config["epsilons"], key=float)
    method = attack_method(attack)
    values = _by_key(rows)
    means = {}
    for eps in (lo, hi):
        aucs = [values.get((str(r), method, eps, "aux-individuals", attack, "auroc"))
                for r in range(config["replicas"])]
        if None in aucs:
            return [f"{attack}: aux-individuals AUROC missing at epsilon {eps}"]
        means[eps] = math.fsum(aucs) / len(aucs)
    if not means[hi] > means[lo]:
        return [f"{attack} aux-individuals AUROC {means[hi]:.4f} at epsilon {hi} "
                f"does not exceed {means[lo]:.4f} at epsilon {lo}"]
    return []


def check_replica_outputs(out_dir, config, power_attack):
    rows = read_replica_rows(out_dir)
    errors = check_row_set(rows, expected_replica_keys(config))
    errors += check_value_ranges(rows)
    summary_path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(summary_path):
        errors.append("summary.json missing")
    else:
        with open(summary_path, encoding="utf-8") as fh:
            errors += check_summary(rows, json.load(fh))
    errors += check_mst_recovery(rows, config)
    errors += check_power_grows(rows, config, power_attack)
    return errors


# ---------------------------------------------------------------------------
# cli-audit
# ---------------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def csv_domain(path):
    """Data columns of a CSV and the set of labels each column takes."""
    header, records = read_csv(path)
    cols = [i for i, name in enumerate(header) if name not in RESERVED_COLUMNS]
    labels = {header[i]: {rec[i] for rec in records} for i in cols}
    return [header[i] for i in cols], labels, len(records)


def check_synth(path, names, labels, n_synth):
    header, records = read_csv(path)
    errors = []
    if header != names:
        errors.append(f"{path}: header {header} is not the aux attributes {names}")
        return errors
    if len(records) != n_synth:
        errors.append(f"{path}: {len(records)} rows, expected {n_synth}")
    for a, name in enumerate(names):
        unknown = {rec[a] for rec in records} - labels[name]
        if unknown:
            errors.append(f"{path}: column {name} has labels outside the aux domain: {sorted(unknown)[:3]}")
    return errors


def read_structure(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tree_errors(edges, d):
    """Problems that keep ``edges`` from being a spanning tree on d nodes."""
    if len(edges) != d - 1:
        return [f"{len(edges)} edges, a spanning tree on {d} nodes has {d - 1}"]
    parent = list(range(d))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in edges:
        if not (0 <= i < d and 0 <= j < d) or i == j:
            return [f"edge ({i}, {j}) is not between two distinct attributes"]
        ri, rj = find(i), find(j)
        if ri == rj:
            return [f"edge ({i}, {j}) closes a cycle"]
        parent[ri] = rj
    return []


def order_errors(order, d):
    """Problems that keep ``order`` from being a topological (node, parents) list over d nodes."""
    nodes = [node for node, _ in order]
    if sorted(nodes) != list(range(d)):
        return [f"order places nodes {sorted(nodes)}, expected each of 0..{d - 1} once"]
    placed = set()
    for node, parents in order:
        late = [p for p in parents if p not in placed]
        if late:
            return [f"node {node} has parents {late} that are not placed before it"]
        placed.add(node)
    return []


def check_structures(gen_path, rec_path, method, d):
    gen, rec = read_structure(gen_path), read_structure(rec_path)
    errors = []
    if method == "mst":
        for label, obj in (("generator", gen), ("recovered", rec)):
            errors += [f"{label} tree: {e}" for e in tree_errors([tuple(e) for e in obj["edges"]], d)]
        gen_edges = {tuple(sorted(e)) for e in gen["edges"]}
        rec_edges = {tuple(sorted(e)) for e in rec["edges"]}
        if gen_edges != rec_edges:
            errors.append(f"recovered tree {sorted(rec_edges)} differs from the generator's {sorted(gen_edges)}")
    else:
        for label, obj in (("generator", gen), ("recovered", rec)):
            errors += [f"{label} order: {e}" for e in order_errors(obj["order"], d)]
    return errors


def check_weights(path, method, k, d):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    total = sum(obj["weights"].values())
    want = k * (d - 1) if method == "mst" else k * d
    if total != want:
        return [f"{path}: weights total {total}, expected {want}"]
    return []


def pairwise_auroc(scores, labels):
    """Share of (positive, negative) pairs ranked correctly, ties counting half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def balanced_accuracy(preds, labels):
    tpr = ((preds == 1) & (labels == 1)).sum() / (labels == 1).sum()
    tnr = ((preds == 0) & (labels == 0)).sum() / (labels == 0).sum()
    return 0.5 * (tpr + tnr)


def check_scores(scores_path, eval_path, n_target):
    header, records = read_csv(scores_path)
    errors = []
    if len(records) != n_target:
        errors.append(f"{scores_path}: {len(records)} rows, expected one per target record ({n_target})")
    col = {name: i for i, name in enumerate(header)}
    ids = [int(rec[col["record_id"]]) for rec in records]
    if sorted(ids) != list(range(len(records))):
        errors.append(f"{scores_path}: record ids are not 0..{len(records) - 1}")
    raw = np.array([float(rec[col["raw_score"]]) for rec in records])
    preds = np.array([int(rec[col["prediction"]]) for rec in records])
    labels = np.array([int(rec[col["label"]]) for rec in records])
    # with one class predicted, a threshold above or below every score fits
    if preds.any() and not preds.all() and not raw[preds == 0].max() < raw[preds == 1].min():
        errors.append(f"{scores_path}: predictions are not a threshold of raw_score")
    with open(eval_path, encoding="utf-8") as fh:
        ev = json.load(fh)
    auc = pairwise_auroc(raw, labels)
    ba = balanced_accuracy(preds, labels)
    if not _close(ev["auroc"], auc):
        errors.append(f"{eval_path}: auroc {ev['auroc']}, pairwise recomputation {auc}")
    if not _close(ev["balanced_accuracy"], ba):
        errors.append(f"{eval_path}: balanced_accuracy {ev['balanced_accuracy']}, recomputed {ba}")
    if ev["n"] != len(records):
        errors.append(f"{eval_path}: n {ev['n']}, scores has {len(records)} rows")
    return errors


def check_cli_outputs(plan, failed_cells):
    """Check every cell of a cli-audit plan whose commands all exited 0."""
    names, labels, _ = csv_domain(plan["aux"])
    _, _, n_target = csv_domain(plan["target"])
    d = len(names)
    errors = []
    for idx, cell in enumerate(plan["cells"]):
        if idx in failed_cells:
            continue
        method = cell["method"]
        errors += check_synth(cell["synth"], names, labels, plan["n_synth"])
        errors += check_structures(cell["generator_structure"], cell["structure"], method, d)
        errors += check_weights(cell["weights"], method, plan["shadow_k"], d)
        for att in cell["attacks"]:
            errors += check_scores(att["scores"], att["eval"], n_target)
    return errors
