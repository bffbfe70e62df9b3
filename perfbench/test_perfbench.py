"""The benchmark's own test: its checks pass on real outputs and reject broken ones.

Runs every workload at a tiny size, then breaks one output at a time and
requires the matching check to fail. Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import csv
import dataclasses
import json
import os
import shutil

import pytest

import checks
import tracing
import workloads

TINY_POPULATION = dict(n_rows=3000, n_attrs=5, max_cardinality=3, train_size=1000, n_target_households=20)
TINY_REPLICA = workloads.ReplicaSpec(
    **TINY_POPULATION, epsilons=("1", "1000"), methods=("mst", "privbayes"),
    attacks=workloads.ALL_ATTACKS, shadow_k=3, replicas=2, power_attack="tamis-mst",
)
TINY_CLI = workloads.CliSpec(**TINY_POPULATION, epsilons=("100", "1000"), shadow_k=3, n_synth=1000)
SEED = 3


@pytest.fixture(scope="module")
def replica_run(tmp_path_factory):
    workload = workloads.ReplicaWorkload(TINY_REPLICA)
    workload.setup(SEED, str(tmp_path_factory.mktemp("replica")))
    return workload, workload.run()


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    workload = workloads.CliWorkload(TINY_CLI)
    workload.setup(SEED, str(tmp_path_factory.mktemp("cli")))
    return workload, workload.run()


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *records = list(csv.reader(fh))
    records = edit(header, records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *records])


def _rewrite_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


# ---------------------------------------------------------------------------
# replica workloads
# ---------------------------------------------------------------------------

def test_replica_outputs_pass(replica_run):
    workload, outcome = replica_run
    assert outcome.failed == 0
    assert outcome.attempted == 2 * 2 * 2
    assert workload.check(outcome) == []


def test_replica_check_rejects_failed_operations(replica_run):
    workload, _ = replica_run
    errors = workload.check(workloads.Outcome(attempted=8, failed=8))
    assert errors and "8 of 8 operations failed" in errors[0]


def _set_value(pred, value):
    def edit(header, records):
        col = {name: i for i, name in enumerate(header)}
        for rec in records:
            if pred({name: rec[i] for name, i in col.items()}):
                rec[col["value"]] = value
        return records
    return edit


def _drop_first(header, records):
    return records[1:]


def _repeat_first(header, records):
    return [records[0], *records]


def _top_recall(row):
    return row["attack"] == "recover-mst" and row["epsilon"] == "1000" and row["metric"] == "recall"


def _top_tamis_aux_auroc(row):
    return (row["attack"] == "tamis-mst" and row["epsilon"] == "1000"
            and row["setting"] == "aux-individuals" and row["metric"] == "auroc")


REPLICA_BREAKS = {
    "missing": _drop_first,
    "repeated": _repeat_first,
    "outside [0, 1]": _set_value(lambda row: row["metric"] == "auroc", "1.2"),
    "not 0 or 1": _set_value(lambda row: row["metric"] == "perfect_match", "0.5"),
    "generator's edges": _set_value(_top_recall, "0.5"),
    "does not exceed": _set_value(_top_tamis_aux_auroc, "0.4"),
}


@pytest.mark.parametrize("expected", sorted(REPLICA_BREAKS))
def test_replica_check_rejects(replica_run, tmp_path, expected):
    workload, _ = replica_run
    broken = str(tmp_path / "results")
    shutil.copytree(workload.out_dir, broken)
    for r in range(TINY_REPLICA.replicas):
        _rewrite_csv(os.path.join(broken, f"replica_{r:04d}.csv"), REPLICA_BREAKS[expected])
    errors = checks.check_replica_outputs(broken, workload.config, TINY_REPLICA.power_attack)
    assert any(expected in e for e in errors), errors


def test_replica_check_rejects_stale_summary(replica_run, tmp_path):
    workload, _ = replica_run
    broken = str(tmp_path / "results")
    shutil.copytree(workload.out_dir, broken)

    def edit(summary):
        cell = sorted(summary)[0]
        summary[cell]["mean"] += 1e-6

    _rewrite_json(os.path.join(broken, "summary.json"), edit)
    errors = checks.check_replica_outputs(broken, workload.config, TINY_REPLICA.power_attack)
    assert any("mean" in e and "recomputed" in e for e in errors), errors


def test_expected_rows_follow_the_config():
    config = {"replicas": 1, "methods": ["mst"], "epsilons": ["1"],
              "attacks": ["tamis-mst", "tamis-pb", "tamis-pb*", "marginals-pi"]}
    attacks = {key[4] for key in checks.expected_replica_keys(config)}
    assert attacks == {"recover-mst", "tamis-mst", "marginals-pi"}


# ---------------------------------------------------------------------------
# cli-audit
# ---------------------------------------------------------------------------

def test_cli_outputs_pass(cli_run):
    workload, outcome = cli_run
    assert outcome.attempted == 44
    assert outcome.failed == 0
    assert workload.check(outcome) == []


def _cell(plan, method):
    return next(c for c in plan["cells"] if c["method"] == method)


def _edit_structure(method, edit):
    return lambda plan: _rewrite_json(_cell(plan, method)["structure"], edit)


def _cycle(obj):
    # a triangle on nodes 0, 1, 2 plus a path over the rest keeps d - 1 edges
    d = len(obj["edges"]) + 1
    obj["edges"] = [[0, 1], [1, 2], [0, 2]] + [[k, k + 1] for k in range(3, d - 1)]


def _other_tree(obj):
    d = len(obj["edges"]) + 1
    edges = {tuple(sorted(e)) for e in obj["edges"]}
    path = [[k, k + 1] for k in range(d - 1)]
    obj["edges"] = path if {tuple(e) for e in path} != edges else [[0, k] for k in range(1, d)]


def _parent_after_child(obj):
    order = obj["order"]
    first, _ = order[0]
    node, _ = order[1]
    order[0] = [first, [node]]


def _weights_off(plan):
    def edit(obj):
        key = next(iter(obj["weights"]))
        obj["weights"][key] += 1
    _rewrite_json(_cell(plan, "mst")["weights"], edit)


def _attack(plan, name):
    return next(a for c in plan["cells"] for a in c["attacks"] if a["name"] == name)


def _drop_score_row(plan):
    _rewrite_csv(_attack(plan, "tamis-mst")["scores"], _drop_first)


def _flip_prediction(plan):
    def edit(header, records):
        col = {name: i for i, name in enumerate(header)}
        preds = [int(r[col["prediction"]]) for r in records]
        assert 0 < sum(preds) < len(preds)
        top = max(records, key=lambda r: float(r[col["raw_score"]]))
        top[col["prediction"]] = "0"
        return records
    _rewrite_csv(_attack(plan, "mamamia-mst")["scores"], edit)


def _auroc_off_by_one_pair(plan):
    att = _attack(plan, "hybrid-mst")
    with open(att["scores"], newline="", encoding="utf-8") as fh:
        labels = [int(r["label"]) for r in csv.DictReader(fh)]
    pairs = sum(labels) * (len(labels) - sum(labels))
    _rewrite_json(att["eval"], lambda obj: obj.update(auroc=obj["auroc"] + 1.0 / pairs))


def _unknown_label(plan):
    def edit(header, records):
        records[0][0] = "not-a-label"
        return records
    _rewrite_csv(_cell(plan, "mst")["synth"], edit)


def _short_synth(plan):
    _rewrite_csv(_cell(plan, "privbayes")["synth"], _drop_first)


CLI_BREAKS = {
    "closes a cycle": _edit_structure("mst", _cycle),
    "differs from the generator's": _edit_structure("mst", _other_tree),
    "not placed before it": _edit_structure("privbayes", _parent_after_child),
    "weights total": _weights_off,
    "one per target record": _drop_score_row,
    "not a threshold": _flip_prediction,
    "pairwise recomputation": _auroc_off_by_one_pair,
    "outside the aux domain": _unknown_label,
    "rows, expected 1000": _short_synth,
}


@pytest.mark.parametrize("expected", sorted(CLI_BREAKS))
def test_cli_check_rejects(cli_run, tmp_path, expected):
    workload, _ = cli_run
    broken = str(tmp_path / "audit")
    shutil.copytree(workload.out_dir, broken)
    plan = json.loads(json.dumps(workload.plan).replace(workload.out_dir, broken))
    CLI_BREAKS[expected](plan)
    errors = checks.check_cli_outputs(plan, failed_cells=set())
    assert any(expected in e for e in errors), errors


def test_cli_counts_failed_commands(cli_run, tmp_path):
    workload, _ = cli_run
    copy = workloads.CliWorkload(TINY_CLI)
    copy.setup(SEED, str(tmp_path))
    cell = copy.plan["cells"][0]
    cell["commands"][0][cell["commands"][0].index("--data") + 1] = str(tmp_path / "missing.csv")
    outcome = copy.run()
    # generate fails, and every later command of the cell but shadow reads its outputs
    assert outcome.failed == len(cell["commands"]) - 1
    assert copy.failed_cells == {0}
    errors = copy.check(outcome)
    assert len(errors) == outcome.failed
    assert all(e.startswith("command exited") for e in errors), errors


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

EXACT = ("calls", "rows", "n", "unique_ratio")


def _traced_metrics(tmp_path, spec, seed):
    workload = workloads.ReplicaWorkload(spec)
    tracer = tracing.Tracer()
    workload.setup(seed, str(tmp_path), tracer.install)
    outcome = workload.run()
    assert outcome.failed == 0
    return tracer.metrics(0.0)


def test_traced_counts_repeat_exactly(tmp_path):
    spec = dataclasses.replace(TINY_REPLICA, replicas=1)
    first = _traced_metrics(tmp_path / "a", spec, SEED)
    second = _traced_metrics(tmp_path / "b", spec, SEED)
    assert set(first) == {name for name, _, _ in tracing.METRICS}
    exact = {k: v for k, v in first.items() if k.rsplit(".", 1)[1] in EXACT}
    assert exact == {k: second[k] for k in exact}
    assert first["marginals.counts.calls"] > 0
    assert 0 < first["marginals.counts.unique_ratio"] < 1
    assert first["sdg.privbayes_score.calls"] > 0


def test_count_keys_identify_datasets_by_serial():
    sm = workloads.import_synthmia()
    tracer = tracing.Tracer()
    tracer.install(sm)
    aux = sm.data.generate_households(200, n_attrs=3, seed=0)
    for k in range(20):
        # each subset is freed before the next, so CPython may hand its id on
        sm.marginals.counts(aux.subset(list(range(k, k + 50))), (0, 1))
    assert tracer.metrics(0.0)["marginals.counts.unique_ratio"] == 1.0
    sm.marginals.counts(aux, (0, 1))
    sm.marginals.counts(aux, (0, 1))
    assert tracer.metrics(0.0)["marginals.counts.unique_ratio"] == 21 / 22


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _, _ in tracing.METRICS]
    assert [(m["unit"], m["better"]) for m in bench["per_layer"]] == [(u, b) for _, u, b in tracing.METRICS]
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
