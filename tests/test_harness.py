import dataclasses
import functools
import hashlib
import json
import math
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synthmia import attack, cli, harness, marginals, recovery, sdg
from synthmia.data import SplitSpec, generate_households, make_snake_split, write_csv
from synthmia.errors import ConfigurationError, ResumeMismatch


def small_config(out_dir, **overrides):
    base = dict(
        out_dir=out_dir,
        replicas=1,
        epsilons=(math.inf,),
        methods=("mst",),
        attacks=("tamis-mst", "marginals-sigma"),
        split=SplitSpec(n_target_households=15, min_household_size=3, train_size=800),
        shadow_k=2,
        data={"kind": "generate", "n_rows": 5000, "n_attrs": 4, "max_cardinality": 3},
        seed=7,
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


class TestConfig:
    def test_attack_families(self):
        assert attack.lookup("tamis-mst")[:3] == ("mst", "structure", False)
        assert attack.lookup("tamis-pb*")[:3] == ("privbayes", "structure", True)
        assert attack.lookup("marginals-pi")[:3] == ("free", None, False)
        with pytest.raises(ConfigurationError):
            attack.lookup("nonsense")

    @pytest.mark.parametrize(
        "name",
        ["foo-mst", "tamis_mst", "*", "tamis-mst**", "mamamia-mst*", "mamamia-pb*", "marginals-pi*", "marginals-sigma*"],
    )
    def test_bad_attack_name_rejected_before_anything_is_written(self, tmp_path, capsys, name):
        out_dir = str(tmp_path / "exp")
        with pytest.raises(ConfigurationError):
            small_config(out_dir, attacks=("tamis-mst", name))
        obj = small_config(out_dir).to_json()
        obj["attacks"] = ["tamis-mst", name]
        cfg_path = str(tmp_path / "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(obj, fh)
        assert cli.main(["replicate", "--config", cfg_path]) == 1
        assert not os.path.exists(out_dir)
        # the name is checked before any input file is opened
        scores = str(tmp_path / "scores.csv")
        missing = str(tmp_path / "missing.csv")
        assert cli.main([
            "attack", "--attack", name, "--target", missing, "--synth", missing, "--aux", missing,
            "--structure", missing, "--weights", missing, "--out", scores,
        ]) == 1
        assert not os.path.exists(scores)
        errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["error"] for e in errors] == ["ConfigurationError", "ConfigurationError"]

    def test_split_seed_must_be_zero(self, tmp_path):
        """_run_cell replaces the split seed with one derived from seed, so no other value may pass unnoticed."""
        base = SplitSpec(n_target_households=15, min_household_size=3, train_size=800)
        assert small_config(str(tmp_path), split=base).split.seed == 0
        with pytest.raises(ConfigurationError, match="derives from seed"):
            small_config(str(tmp_path), split=dataclasses.replace(base, seed=3))

    @pytest.mark.parametrize("name, value", [
        ("epsilons", (1, 1.0)), ("epsilons", (1, 1.000001)), ("methods", ("mst", "mst")),
        ("attacks", ("tamis-mst", "marginals-sigma", "tamis-mst")),
    ])
    def test_repeated_grid_cell_rejected(self, tmp_path, name, value):
        """A repeated cell would write its rows twice, and summary.json would count one replica as two."""
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            small_config(str(tmp_path), **{name: value})

    @pytest.mark.parametrize("fraction", [0, 1, 0.001])
    def test_member_fraction_must_leave_members_and_non_members(self, tmp_path, fraction):
        """With no member (or no non-member) target household no activation can be calibrated."""
        split = SplitSpec(n_target_households=20, min_household_size=3, train_size=800,
                          member_fraction_of_households=fraction)
        with pytest.raises(ConfigurationError, match=r"^split\.member_fraction_of_households "):
            small_config(str(tmp_path), split=split)
        assert small_config(str(tmp_path), split=dataclasses.replace(split, member_fraction_of_households=0.05))

    def test_json_round_trip_with_infinite_epsilon(self, tmp_path):
        cfg = small_config(str(tmp_path), epsilons=(0.1, math.inf))
        back = harness.ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        assert harness.config_hash(back) == harness.config_hash(cfg)

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            small_config(str(tmp_path), replicas=0)
        with pytest.raises(ConfigurationError):
            small_config(str(tmp_path), epsilons=())
        with pytest.raises(ConfigurationError):
            small_config(str(tmp_path), attacks=("nonsense",))

    def test_epsilon_formatting(self):
        assert harness.format_epsilon(math.inf) == "inf"
        assert harness.parse_epsilon("inf") == math.inf
        assert harness.parse_epsilon("0.1") == 0.1

    def test_load_aux_passes_data_keys_through(self, tmp_path, monkeypatch):
        seen = {}

        @functools.wraps(generate_households)
        def fake(**kwargs):
            seen.update(kwargs)
            return "aux"

        monkeypatch.setattr(harness, "generate_households", fake)
        cfg = small_config(str(tmp_path), data={"kind": "generate", "n_attrs": 5, "resample_prob": 0.2})
        assert harness.load_aux(cfg) == "aux"
        assert seen == {"n_rows": 50000, "n_attrs": 5, "resample_prob": 0.2}

    @pytest.mark.parametrize(
        "data",
        [{"n_row": 300}, {"n_rows": 300.0}, {"n_rows": "300"}, {"n_attrs": True}, {"kind": "csv"},
         {"kind": "sql"}, {"max_cardinality": 1}, {"min_size": 4, "max_size": 3}, ["n_rows", 300]],
        ids=["unknown-key", "float-size", "string-size", "bool-size", "csv-without-path",
             "unknown-kind", "one-category", "min-above-max", "not-an-object"],
    )
    def test_load_aux_rejects_bad_data(self, tmp_path, data):
        with pytest.raises(ConfigurationError):
            harness.load_aux(small_config(str(tmp_path), data=data))


class TestRunReplica:
    def test_rows_cover_settings_and_metrics(self, tmp_path):
        cfg = small_config(str(tmp_path))
        rows = harness.run_replica(cfg, 0)
        settings = {r["setting"] for r in rows}
        assert settings == {"recovery", "aux-individuals", "target-individuals", "target-households"}
        metrics = {r["metric"] for r in rows if r["setting"] == "target-households"}
        assert metrics == {"auroc", "balanced_accuracy_simple", "balanced_accuracy_calibrated"}

    def test_noiseless_recovery_perfect(self, tmp_path):
        cfg = small_config(str(tmp_path))
        rows = harness.run_replica(cfg, 0)
        rec = [r for r in rows if r["setting"] == "recovery" and r["metric"] == "perfect_match"]
        assert rec and all(float(r["value"]) == 1.0 for r in rec)

    def test_starred_variants_skip_wrong_generator(self, tmp_path):
        cfg = small_config(str(tmp_path), attacks=("tamis-pb*", "marginals-pi"))
        rows = harness.run_replica(cfg, 0)
        # methods = (mst,): starred pb attack must be skipped silently
        assert {r["attack"] for r in rows if r["setting"] != "recovery"} == {"marginals-pi"}

    def test_cross_targeted_mode(self, tmp_path):
        cfg = small_config(
            str(tmp_path),
            methods=("privbayes",),
            attacks=("tamis-mst", "hybrid-pb"),
            cross_targeted=True,
            epsilons=(10.0,),
        )
        rows = harness.run_replica(cfg, 0)
        names = {r["attack"] for r in rows if r["setting"] != "recovery"}
        assert names == {"tamis-mst", "hybrid-pb"}

    def test_structure_recovered_once_per_cell(self, tmp_path, monkeypatch):
        calls = {"recover_tree": 0, "recover_bayesnet": 0}
        for fn_name in calls:
            original = getattr(recovery, fn_name)

            def counted(*args, _original=original, _name=fn_name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(recovery, fn_name, counted)
        cfg = small_config(
            str(tmp_path),
            methods=("mst", "privbayes"),
            epsilons=(1.0, math.inf),
            attacks=("tamis-mst", "hybrid-mst", "tamis-mst-avg", "tamis-pb", "hybrid-pb"),
        )
        rows = harness.run_replica(cfg, 0)
        assert calls == {"recover_tree": 2, "recover_bayesnet": 2}
        assert {r["attack"] for r in rows if r["setting"] == "recovery"} == {"recover-mst", "recover-privbayes"}

    def test_determinism(self, tmp_path):
        cfg = small_config(str(tmp_path))
        assert harness.run_replica(cfg, 0) == harness.run_replica(cfg, 0)
        assert harness.run_replica(cfg, 0) != harness.run_replica(cfg, 1)


class TestRunExperiment:
    def test_outputs_and_aggregation(self, tmp_path):
        cfg = small_config(str(tmp_path / "exp"), replicas=2)
        paths = harness.run_experiment(cfg)
        assert os.path.exists(os.path.join(cfg.out_dir, "summary.json"))
        rows = []
        for r in range(2):
            rows.extend(harness.read_rows(os.path.join(cfg.out_dir, f"replica_{r:04d}.csv"), harness._row_keys(cfg, r)))
        summary = json.load(open(os.path.join(cfg.out_dir, "summary.json")))
        # aggregates match recomputation from per-replica rows
        for key, cell in summary.items():
            vals = [float(r["value"]) for r in rows
                    if "/".join([r["method"], r["epsilon"], r["setting"], r["attack"], r["metric"]]) == key]
            assert cell["n"] == len(vals) == 2
            assert cell["mean"] == pytest.approx(np.mean(vals))
            assert cell["median"] == pytest.approx(np.median(vals))

    def test_resume_skips_existing_replicas(self, tmp_path):
        cfg = small_config(str(tmp_path / "exp"), replicas=1)
        harness.run_experiment(cfg)
        path = os.path.join(cfg.out_dir, "replica_0000.csv")
        stamp = os.path.getmtime(path)
        harness.run_experiment(cfg)
        assert os.path.getmtime(path) == stamp

    def test_write_cut_short_leaves_no_replica_file(self, tmp_path, monkeypatch):
        cfg = small_config(str(tmp_path / "exp"))
        path = os.path.join(cfg.out_dir, "replica_0000.csv")
        write_rows = harness.write_rows

        class Unwritable:
            def __float__(self):
                raise RuntimeError("cut short")

        def cut_short(rows, path):
            write_rows(rows[:5] + [dict(rows[5], value=Unwritable())] + rows[5:], path)

        monkeypatch.setattr(harness, "write_rows", cut_short)
        with pytest.raises(RuntimeError):
            harness.run_experiment(cfg)
        assert not os.path.exists(path)
        monkeypatch.setattr(harness, "write_rows", write_rows)
        harness.run_experiment(cfg)
        clean = small_config(str(tmp_path / "clean"))
        harness.run_experiment(clean)
        with open(path, "rb") as a, open(os.path.join(clean.out_dir, "replica_0000.csv"), "rb") as b:
            assert a.read() == b.read()

    def test_config_json_cut_short_is_not_left_behind(self, tmp_path, monkeypatch):
        cfg = small_config(str(tmp_path / "exp"))

        def cut_short(obj, fh, **kwargs):
            fh.write('{"hash": ')
            raise RuntimeError("cut short")

        monkeypatch.setattr(harness.json, "dump", cut_short)
        with pytest.raises(RuntimeError):
            harness.run_experiment(cfg)
        assert not os.path.exists(os.path.join(cfg.out_dir, "config.json"))

    def test_resume_rejects_config_change(self, tmp_path):
        out = str(tmp_path / "exp")
        harness.run_experiment(small_config(out))
        with pytest.raises(ResumeMismatch):
            harness.run_experiment(small_config(out, seed=8))


def grid_config(out_dir):
    """Two replicas of a two-method, two-epsilon grid: eight cells."""
    return small_config(
        out_dir, replicas=2, methods=("mst", "privbayes"), epsilons=(1.0, 1000.0),
        attacks=("tamis-mst", "mamamia-pb", "hybrid-pb*", "marginals-pi"),
    )


def _output_bytes(out_dir):
    names = ["replica_0000.csv", "replica_0001.csv", "summary.json"]
    assert sorted(os.listdir(out_dir)) == ["config.json", *names]
    out = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _cpus(monkeypatch, n):
    """Make run_experiment see ``n`` CPUs in its affinity mask."""
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(n)))


class TestWorkers:
    def test_pool_and_serial_runs_write_identical_files(self, tmp_path, monkeypatch):
        serial = grid_config(str(tmp_path / "serial"))
        _cpus(monkeypatch, 1)
        harness.run_experiment(serial)
        for cpus in (2, 3):  # three workers and the caller: more processes than a 2-CPU machine has
            pooled = grid_config(str(tmp_path / f"pooled{cpus}"))
            _cpus(monkeypatch, cpus)
            harness.run_experiment(pooled)
            assert _output_bytes(pooled.out_dir) == _output_bytes(serial.out_dir)
        rows = harness.read_rows(os.path.join(serial.out_dir, "replica_0001.csv"), harness._row_keys(serial, 1))
        assert [r["value"] for r in rows] == [f"{float(r['value']):.12g}" for r in harness.run_replica(serial, 1)]
        # the rows a resume accepts are exactly the rows a replica writes
        assert {tuple(r.values())[:5] for r in rows} == harness._row_keys(serial, 1)

    def test_no_affinity_mask_runs_serially(self, tmp_path, monkeypatch):
        clean = grid_config(str(tmp_path / "clean"))
        _cpus(monkeypatch, 1)
        harness.run_experiment(clean)
        monkeypatch.delattr(harness.os, "sched_getaffinity")  # as on platforms without one
        cfg = grid_config(str(tmp_path / "exp"))
        harness.run_experiment(cfg)
        assert _output_bytes(cfg.out_dir) == _output_bytes(clean.out_dir)

    def test_caller_runs_the_costliest_cell_and_the_pool_the_rest(self, tmp_path, monkeypatch):
        calls = []  # appended to in this process only
        run_cell = harness._run_cell

        def recorded(cfg, aux, *task):
            calls.append(task)
            return run_cell(cfg, aux, *task)

        monkeypatch.setattr(harness, "_run_cell", recorded)
        _cpus(monkeypatch, 1)
        harness.run_experiment(grid_config(str(tmp_path / "serial")))
        # one CPU: run_replica, cell by cell in grid order
        assert calls == [(r, m, e) for r in (0, 1) for m in (0, 1) for e in (0, 1)]
        calls.clear()
        _cpus(monkeypatch, 2)
        harness.run_experiment(grid_config(str(tmp_path / "pooled")))
        # PrivBayes (method 1) before MST, epsilon 1000 (index 1) before 1: the caller runs the first
        assert calls == [(0, 1, 1)]

    def test_workers_inherit_aux_counted(self, tmp_path, monkeypatch):
        """Every forked worker finds aux's distinct form built before the fork."""
        caller = os.getpid()
        run_cell = harness._run_cell

        def checked(cfg, aux, *task):
            cache = aux.__dict__.get(marginals._CACHE_ATTR, {})
            if os.getpid() != caller and "distinct" not in cache:
                raise ConfigurationError(f"a worker started with aux's cache holding {sorted(cache)}")
            return run_cell(cfg, aux, *task)

        monkeypatch.setattr(harness, "_run_cell", checked)
        _cpus(monkeypatch, 2)
        harness.run_experiment(grid_config(str(tmp_path / "exp")))

    def test_worker_error_reaches_the_caller_typed(self, tmp_path, monkeypatch):
        caller = os.getpid()
        run_cell = harness._run_cell

        def failing(cfg, aux, replica, *cell):
            if replica == 1 and os.getpid() != caller:
                raise ConfigurationError("raised in a worker")
            return run_cell(cfg, aux, replica, *cell)

        monkeypatch.setattr(harness, "_run_cell", failing)
        _cpus(monkeypatch, 2)
        cfg = grid_config(str(tmp_path / "exp"))
        with pytest.raises(ConfigurationError, match="raised in a worker"):
            harness.run_experiment(cfg)
        # replica 0 finished first and was written; the failing replica left no file, not even a .part
        assert sorted(os.listdir(cfg.out_dir)) == ["config.json", "replica_0000.csv"]
        monkeypatch.setattr(harness, "_run_cell", run_cell)
        harness.run_experiment(cfg)
        clean = grid_config(str(tmp_path / "clean"))
        _cpus(monkeypatch, 1)
        harness.run_experiment(clean)
        assert _output_bytes(cfg.out_dir) == _output_bytes(clean.out_dir)

    def test_a_worker_that_dies_fails_the_run(self, tmp_path, monkeypatch):
        caller = os.getpid()
        run_cell = harness._run_cell

        def dying(cfg, aux, replica, *cell):
            if replica == 1 and os.getpid() != caller:
                os._exit(3)  # as when the kernel kills a worker that runs out of memory
            return run_cell(cfg, aux, replica, *cell)

        def hung(signum, frame):
            raise TimeoutError("run_experiment still waiting on a dead worker")

        monkeypatch.setattr(harness, "_run_cell", dying)
        _cpus(monkeypatch, 2)
        cfg = grid_config(str(tmp_path / "exp"))
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                harness.run_experiment(cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert "replica_0001.csv" not in os.listdir(cfg.out_dir)


_JUNK = st.text(alphabet="xyz#-. ", max_size=3)  # never a number, with "" and "." among them
_SCORE_COLUMNS = ("raw_score", "prediction", "label")
_DATA_INTS = ("n_rows", "n_attrs", "max_cardinality", "min_size", "max_size", "seed")


@st.composite
def malformed_score_csvs(draw):
    """Score CSV text with a label column and one fault: a missing column, a non-number or a short row."""
    rows = draw(st.lists(st.tuples(st.floats(-5, 5), st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=6))
    cells = [[repr(score), str(pred), str(label)] for score, pred, label in rows]
    header = list(_SCORE_COLUMNS)
    fault = draw(st.sampled_from(["column", "cell", "short"]))
    r = draw(st.integers(0, len(cells) - 1))
    if fault == "column":
        c = draw(st.integers(0, 1))
        header[c] = draw(st.sampled_from(["score", "pred", "", "raw_scores"]))
    elif fault == "cell":
        c = draw(st.integers(0, 2))
        # a decimal is a valid score but not a valid prediction or label; "nan" parses but is no score
        cells[r][c] = draw(_JUNK | st.just("nan") if c == 0 else _JUNK | st.sampled_from(["1.5", "1e3"]))
    else:
        cells[r] = cells[r][: draw(st.integers(1, 2))]
    return "\n".join(",".join(row) for row in [header, *cells]) + "\n"


@st.composite
def malformed_data_objects(draw):
    """A replicate config's data object with one fault, found before any row is generated."""
    data = {"kind": "generate", "n_rows": 300, "n_attrs": 3, "max_cardinality": 3}
    fault = draw(st.sampled_from(["not-object", "unknown-key", "not-integer", "kind", "csv", "range"]))
    if fault == "not-object":
        return draw(st.lists(st.integers()) | st.text() | st.integers() | st.none())
    if fault == "unknown-key":
        data[draw(st.sampled_from(["n_row", "rows", "attrs", "cardinality", ""]))] = 300
    elif fault == "not-integer":
        bad = st.floats(allow_nan=False) | st.text(max_size=3) | st.booleans() | st.none() | st.lists(st.integers())
        data[draw(st.sampled_from(_DATA_INTS))] = draw(bad)
    elif fault == "kind":
        data["kind"] = draw(st.text(max_size=5).filter(lambda k: k not in ("csv", "generate")))
    elif fault == "csv":
        data = {"kind": "csv", **draw(st.sampled_from([{}, {"path": 3}, {"path": "a.csv", "n_rows": 3}]))}
    else:
        data.update(draw(st.sampled_from([
            {"n_rows": 0}, {"n_attrs": -1}, {"max_cardinality": 1}, {"min_size": 5, "max_size": 4}, {"max_size": 0},
        ])))
    return data


_BAD_FIELDS = {
    "out_dir": [1, None, ["exp"]],
    "replicas": ["2", 0, -1, 1.5, True, None],
    "epsilons": [[1, "x"], [], [0], [-1], ["nan"], [True], [None], "1", 1, None, [1, 1.0], [1, 1.000001]],
    "methods": ["privbayes", ["nope"], [1], 5, ["mst", "mst"]],
    "attacks": [[1], ["nope"], [["tamis-mst"]], 5, ["tamis-mst", "tamis-mst"]],
    "cross_targeted": [1, "true", None],
    "shadow_k": ["5", 0, 2.0, False, None],
    "delta": ["a", -0.1, 1.0, True, None],
    "theta": ["a", 0, -1, True],
    "n_synth": [-3, 0, "10", 1.5, True],
    "seed": ["1", 1.5, True, None],
    "threshold": ["a", [0.5], True, None, float("nan"), float("inf"), float("-inf")],
    "split.n_target_households": ["15", 0, 1.5, None],
    "split.min_household_size": ["3", 0, True],
    "split.train_size": ["800", -1, 800.0],
    "split.member_fraction_of_households": ["0.5", -0.1, 1.5, None, 0, 1, 0.001],
    "split.seed": ["0", 0.5, False, 1, -3],
}


@st.composite
def malformed_config_fields(draw):
    """(field, value): a replicate config field, a split field as "split.<field>", and a value it rejects."""
    name = draw(st.sampled_from(sorted(_BAD_FIELDS)))
    return name, draw(st.sampled_from(_BAD_FIELDS[name]))


def _set_field(obj, name, value):
    *outer, key = name.split(".")
    for part in outer:
        obj = obj[part]
    obj[key] = value


_NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3(", b"\x80", b"\xe2\x82"])
_NOT_JSON = st.sampled_from([b"", b"{", b'{"method": "mst",', b"method: mst", b"\xff{}", b"nul"])
_NOT_OBJECT = st.lists(st.integers(), max_size=2) | st.text(max_size=3) | st.integers() | st.none()
_NOT_INDEX = st.sampled_from([-1, 1.5, "1", True, None, [0]])


@st.composite
def malformed_data_csvs(draw):
    """("--data", None, CSV bytes, error): one ragged row, non-UTF-8 bytes or non-integer reserved cell."""
    header = ["a", "b", "__household__", "__member__"]
    n = draw(st.integers(1, 5))
    cells = [[draw(st.sampled_from("xyz")), draw(st.sampled_from("pq")), str(r // 2), str(r % 2)] for r in range(n)]
    fault = draw(st.sampled_from(["ragged", "bytes", "reserved"]))
    r = draw(st.integers(0, n - 1))
    if fault == "ragged":
        cells[r] = cells[r][: draw(st.integers(1, 3))] if draw(st.booleans()) else cells[r] + ["x"]
    elif fault == "reserved":
        cells[r][draw(st.integers(2, 3))] = draw(_JUNK | st.sampled_from(["1.5", "1e3", "0x1", "2.0"]))
    text = "\n".join(",".join(row) for row in [header, *cells]).encode() + b"\n"
    if fault == "bytes":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(_NOT_UTF8) + text[at:]
    return "--data", None, text, "ParseError"


@st.composite
def malformed_structures(draw):
    """("--structure", attack, file bytes, error) for three attributes, with one fault."""
    tree = draw(st.booleans())
    if tree:
        attack_name, field = "tamis-mst", "edges"
        obj = {"method": "mst", "edges": draw(st.permutations([[0, 1], [1, 2]]))}
    else:
        attack_name, field = "tamis-pb", "order"
        obj = {"method": "privbayes", "order": [[0, []], [1, [0]], [2, [0, 1]]]}
    items = obj[field]
    r = draw(st.integers(0, len(items) - 1))
    fault = draw(st.sampled_from(
        ["not-json", "not-object", "method", "field", "item", "index", "other-method", "outside", "not-a-density"]
    ))
    error = "ConfigurationError" if fault in ("other-method", "outside", "not-a-density") else "ParseError"
    if fault == "not-json":
        return "--structure", attack_name, draw(_NOT_JSON), error
    if fault == "not-object":
        obj = draw(_NOT_OBJECT)
    elif fault == "method":
        obj["method"] = draw(st.sampled_from(["", "tree", None, 1]))
    elif fault == "field":
        obj[field] = draw(st.sampled_from([None, "0-1", {"0": 1}, 0]))
    elif fault == "item":  # an edge that is not a pair, an entry that is not [node, parents]
        items[r] = draw(st.sampled_from([[0], [0, 1, 2], "0-1", {}] if tree else [[0], [0, [], 1], [0, 0], {}]))
    elif fault == "index":
        if tree or draw(st.booleans()):
            items[r][0] = draw(_NOT_INDEX)
        else:
            items[r][1] = [draw(_NOT_INDEX)]
    elif fault == "other-method":
        obj = {"method": "privbayes", "order": [[0, []]]} if tree else {"method": "mst", "edges": []}
    elif fault == "outside":
        items[r][1 if tree else 0] = draw(st.integers(3, 9))
    elif tree:  # a cycle, a self-loop or a missing edge
        edit = draw(st.sampled_from(["cycle", "loop", "drop"]))
        if edit == "cycle":
            items.append([0, 2])
        elif edit == "loop":
            items[r] = [items[r][0]] * 2
        else:
            items.pop(r)
    else:  # a parent placed after its child, a node placed twice, a node missing
        edit = draw(st.sampled_from(["late", "twice", "drop"]))
        if edit == "late":
            items[0][1] = [draw(st.sampled_from([1, 2]))]
        elif edit == "twice":
            items[2][0] = draw(st.sampled_from([0, 1]))
        else:
            items.pop(r)
    return "--structure", attack_name, json.dumps(obj).encode(), error


@st.composite
def malformed_weights(draw):
    """("--weights", attack, file bytes, error) for three attributes, with one fault."""
    tree = draw(st.booleans())
    if tree:
        attack_name, obj = "mamamia-mst", {"method": "mst", "K": 2, "weights": {"0-1": 2, "1-2": 1}}
        bad_names, outside = ["0_1", "a-b", "0-1-2", "", "-1-2", "0|1"], ["0-3", "1-1", "5-9"]
    else:
        attack_name, obj = "mamamia-pb", {"method": "privbayes", "K": 2, "weights": {"0|": 2, "1|0": 2}}
        bad_names, outside = ["0", "a|", "0|a", "0|1,", "|0", "0-1"], ["3|", "0|0", "2|0,0", "1|7"]
    key = draw(st.sampled_from(sorted(obj["weights"])))
    fault = draw(st.sampled_from(
        ["not-json", "not-object", "missing", "K", "count", "key", "other-method", "outside", "no-weight"]
    ))
    error = "ConfigurationError" if fault in ("other-method", "outside", "no-weight") else "ParseError"
    if fault == "not-json":
        return "--weights", attack_name, draw(_NOT_JSON), error
    if fault == "not-object":
        obj = draw(_NOT_OBJECT)
    elif fault == "missing":
        del obj[draw(st.sampled_from(["method", "K", "weights"]))]
    elif fault == "K":
        obj["K"] = draw(_NOT_INDEX)
    elif fault == "count":
        obj["weights"][key] = draw(_NOT_INDEX)
    elif fault in ("key", "outside"):
        obj["weights"][draw(st.sampled_from(bad_names if fault == "key" else outside))] = obj["weights"].pop(key)
    elif fault == "other-method":
        other = ("privbayes", "0|") if tree else ("mst", "0-1")
        obj = {"method": other[0], "K": 1, "weights": {other[1]: 1}}
    else:
        obj["weights"] = {k: 0 for k in obj["weights"]} if draw(st.booleans()) else {}
    return "--weights", attack_name, json.dumps(obj).encode(), error


class TestMalformedInput:
    """Bad CLI input ends in exit code 1 and one JSON error line, never a traceback."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(malformed_score_csvs().map(lambda t: ("evaluate", t)),
                     malformed_data_objects().map(lambda d: ("replicate", ("data", d))),
                     malformed_config_fields().map(lambda f: ("replicate", f))))
    def test_one_json_error_line(self, tmp_path, capsys, case):
        command, payload = case
        if command == "evaluate":
            path = tmp_path / "scores.csv"
            path.write_text(payload)
            argv, error = ["evaluate", "--scores", str(path)], "ParseError"
        else:
            obj = small_config(str(tmp_path / "exp")).to_json()
            _set_field(obj, *payload)
            path = tmp_path / "config.json"
            path.write_text(json.dumps(obj))
            argv, error = ["replicate", "--config", str(path)], "ConfigurationError"
        capsys.readouterr()
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize(
        "name, value",
        [(name, value) for name in sorted(_BAD_FIELDS) for value in _BAD_FIELDS[name]],
        ids=[f"{name}={value!r}" for name in sorted(_BAD_FIELDS) for value in _BAD_FIELDS[name]],
    )
    def test_every_bad_field_is_one_json_error_line(self, tmp_path, capsys, name, value):
        """Each (field, value) the Hypothesis test above samples from, run once: exit 1 before anything is written."""
        obj = small_config(str(tmp_path / "exp")).to_json()
        _set_field(obj, name, value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli.main(["replicate", "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigurationError"
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "record_id,label\n0,1\n",
            "raw_score,prediction,label\nx,1,1\n",
            "raw_score,prediction,label\n1,1,1\nnan,1,0\n0,0,0\n",  # NaN would rank above every score
        ],
    )
    def test_evaluate_reproduced_cases(self, tmp_path, capsys, text):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        assert cli.main(["evaluate", "--scores", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ParseError"

    def test_evaluate_prediction_other_than_0_and_1(self, tmp_path, capsys):
        path = tmp_path / "scores.csv"
        path.write_text("raw_score,prediction,label\n4,2,1\n3,2,1\n1,0,0\n2,1,0\n")
        assert cli.main(["evaluate", "--scores", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigurationError"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(malformed_data_csvs(), malformed_structures(), malformed_weights()))
    def test_bad_input_file(self, tmp_path, capsys, case):
        flag, attack_name, contents, error = case
        path = tmp_path / "input"
        path.write_bytes(contents)
        out = tmp_path / "out"
        if flag == "--data":
            argv = ["generate", "--data", str(path), "--out", str(out)]
        else:
            aux = tmp_path / "aux.csv"  # three attributes, read as target, synth and aux
            if not aux.exists():
                write_csv(generate_households(300, n_attrs=3, max_cardinality=3, seed=0), str(aux))
            argv = ["attack", "--attack", attack_name, "--target", str(aux), "--synth", str(aux), "--aux", str(aux),
                    flag, str(path), "--out", str(out)]
        capsys.readouterr()
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, contents, error",
        [
            ("generate", b"a,b\n\xff,1\n", "ParseError"),
            ("generate", b"a,b,__household__,__household__\nx,p,1,1\ny,q,2,2\n", "ParseError"),
            ("evaluate", b"raw_score,prediction,label\n5,1,1\n\xff,0,0\n", "ParseError"),
            ("evaluate", b"raw_score,prediction,label\n5,1,1\n1,0,0\n3,1,2\n", "ConfigurationError"),
            ("generate", b"a\n" + b"x" * 200_000 + b"\n", "ParseError"),
            ("evaluate", b"raw_score,prediction,label\n5,1," + b"1" * 200_000 + b"\n", "ParseError"),
        ],
        ids=["data-not-utf8", "reserved-column-twice", "scores-not-utf8", "label-not-binary",
             "data-field-over-limit", "scores-field-over-limit"],
    )
    def test_reproduced_file_cases(self, tmp_path, capsys, command, contents, error):
        path = tmp_path / "input.csv"
        path.write_bytes(contents)
        flag = "--data" if command == "generate" else "--scores"
        assert cli.main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [["--out", "exp"], ["--seed", "3"]], ids=["out", "seed"])
    @pytest.mark.parametrize("config", [[1, 2], "exp", 3, None], ids=["array", "string", "number", "null"])
    def test_replicate_config_not_an_object(self, tmp_path, capsys, monkeypatch, config, override):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert cli.main(["replicate", "--config", "config.json", *override]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigurationError"
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("contents", [b'{"hash": "ab', b"[1, 2]", b"\xff"], ids=["truncated", "array", "not-utf8"])
    def test_resume_with_broken_config_json(self, tmp_path, capsys, contents):
        meta = tmp_path / "exp" / "config.json"
        meta.parent.mkdir()
        meta.write_bytes(contents)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(small_config(str(tmp_path / "exp")).to_json()))
        assert cli.main(["replicate", "--config", str(config)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ParseError" and error["message"].startswith(str(meta))
        assert os.listdir(meta.parent) == ["config.json"]

    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",abc"] + lines[4:], 4),
            (lambda lines: [",".join(f for k, f in enumerate(l.split(",")) if k != 2) for l in lines], 1),
            (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], 3),
        ],
        ids=["value-not-a-number", "no-epsilon-column", "short-row"],
    )
    def test_resume_with_malformed_replica_csv(self, tmp_path, capsys, edit, line):
        cfg = small_config(str(tmp_path / "exp"), replicas=2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg.to_json()))
        assert cli.main(["replicate", "--config", str(config)]) == 0
        replica = tmp_path / "exp" / "replica_0001.csv"
        replica.write_text("\n".join(edit(replica.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert cli.main(["replicate", "--config", str(config)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ParseError" and error["message"].startswith(f"{replica}: line {line}: ")

    @pytest.mark.parametrize(
        "column, cell",
        [(2, "abc"), (2, "1"), (4, "tamis-pb"), (1, "privbayes"), (0, "0"), (3, "households")],
        ids=["epsilon-not-a-number", "epsilon-not-configured", "attack-not-run", "method-not-run",
             "other-replica", "unknown-setting"],
    )
    def test_resume_with_replica_row_of_another_cell(self, tmp_path, capsys, column, cell):
        cfg = small_config(str(tmp_path / "exp"), replicas=2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg.to_json()))
        assert cli.main(["replicate", "--config", str(config)]) == 0
        summary = tmp_path / "exp" / "summary.json"
        summary.unlink()
        replica = tmp_path / "exp" / "replica_0001.csv"
        lines = replica.read_text().splitlines()
        cells = lines[7].split(",")  # line 8: a tamis-mst row of replica 1's (mst, inf) cell
        assert cells[:5] == ["1", "mst", "inf", "aux-individuals", "tamis-mst"]
        cells[column] = cell
        replica.write_text("\n".join([*lines[:7], ",".join(cells), *lines[8:]]) + "\n")
        capsys.readouterr()
        assert cli.main(["replicate", "--config", str(config)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ParseError" and error["message"].startswith(f"{replica}: line 8: ")
        assert not summary.exists()

    def test_negative_sample_size(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_csv(generate_households(300, n_attrs=3, max_cardinality=3, seed=0), str(data))
        out = tmp_path / "gen"
        assert cli.main(["generate", "--data", str(data), "--n-synth", "-2", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert json.loads(lines[0]) == {"error": "ConfigurationError", "message": "sample size must be >= 0, got -2"}
        assert len(lines) == 1 and not out.exists()


class TestStarredAttacks:
    """In a cell, a starred structure attack scores with the fitted model's structure, a plain one with the recovered."""

    def _check(self, tmp_path, monkeypatch, method, name, candidates):
        fitted, scored = [], []
        fit, fn = sdg.fit, getattr(attack, name.replace("-", "_"))

        def fit_recorded(train, method, dp, seed):
            fitted.append(fit(train, method, dp, seed))
            return fitted[-1]

        def wrong(synth, family, dp, seed):  # a recovery that misses the fitted structure
            return next(s for s in (sdg.Structure(family, keys) for keys in candidates) if s != fitted[-1].structure)

        def recorded(target, structure, synth, aux):
            scored.append((structure, fn(target, structure, synth, aux)))
            return scored[-1][1]

        monkeypatch.setattr(sdg, "fit", fit_recorded)
        monkeypatch.setattr(recovery, "recover", wrong)
        monkeypatch.setattr(attack, name.replace("-", "_"), recorded)
        cfg = small_config(str(tmp_path), methods=(method,), attacks=(name, name + "*"))
        rows = harness._run_cell(cfg, harness.load_aux(cfg), 0, 0, 0)
        # attacks run in configured order: the plain one first
        (plain, plain_logs), (starred, starred_logs) = scored
        assert plain == wrong(None, method, None, None) != fitted[-1].structure
        assert starred == fitted[-1].structure
        assert not np.array_equal(starred_logs, plain_logs)
        assert [r["value"] for r in rows if r["metric"] == "perfect_match"] == [0]
        assert {r["attack"] for r in rows if r["setting"] != "recovery"} == {name, name + "*"}

    @pytest.mark.parametrize("name", ["tamis-mst", "tamis-mst-avg", "hybrid-mst"])
    def test_mst(self, tmp_path, monkeypatch, name):
        candidates = [((0, 1), (0, 2), (0, 3)), ((0, 1), (1, 2), (2, 3))]
        self._check(tmp_path, monkeypatch, "mst", name, candidates)

    @pytest.mark.parametrize("name", ["tamis-pb", "hybrid-pb"])
    def test_privbayes(self, tmp_path, monkeypatch, name):
        candidates = [((0, ()), (1, (0,)), (2, (1,)), (3, (2,))), ((3, ()), (2, (3,)), (1, (2,)), (0, (1,)))]
        self._check(tmp_path, monkeypatch, "privbayes", name, candidates)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestGoldenBytes:
    """SHA-256 of outputs recorded from a known-good commit.

    A change that alters these outputs on purpose updates the hashes and says
    so; any other change must leave them as they are.
    """

    REPLICATE = {
        "replica_0000.csv": "769443efa64ac7967a0d78c341e2528edd0141506895a8f0fdb8591c8403490d",
        "summary.json": "bf80f4dd8ea39bd6ca4081d4cd25efe780c398aa7f6cd064a84f06045343e63a",
    }
    GENERATE = {
        "mst": {
            "synth.csv": "e470fdee01afe2f9ad74dbb51504e4bfa1cbca3048ca494a839cc858aeab0cf0",
            "model.json": "c88d229349888ec90609da541c9fea0ceb8b636b1d832e99caed81aa0220923b",
        },
        "privbayes": {
            "synth.csv": "b6b3b56c10ea1d9c9b4364a5ddeb49c74cd3e9c23f4d66fad1d46abd20b0d4c5",
            "model.json": "f16586d9b4e3c16ee40ae2c143c9d05fabf52ecd050ea056008b63af33c66ce5",
        },
    }
    RECOVER = {
        "mst": "cdc84fd4fbc37826d845fd820db79e65d72b8a8e7d87919770e3294eff1b1697",
        "privbayes": "092c1c96161b0718acc6a9a59057b2b268a194d21229b168b69d827f17e0a7f4",
    }
    SHADOW = {
        "mst": "d9b08ae742ab67466808d5158a26c38c8d2d844a2d5d7b6b92cb82c6d34eca54",
        "privbayes": "9b77895ece265727c795eb148c44fd658c4aee52f439c2a7a7387c8a7884249b",
    }
    SHADOW_WIDE_MST = "c5e01486956a1a495709269736355e40eb6f5b17e71a7789a1c89398588b5c7b"
    ATTACK = {
        "tamis-mst": "4d1f06ee99dd129e10c8c78d7f462f5aea2dae7ce446dc3a95f41923173eef25",
        "tamis-pb": "326ec918675e5d51e94ee1503b068e519756be00d8103a6e0e2f6920415acd29",
        "mamamia-pb": "67595d1b883be05e35fbb40be0af4d01b4ff8e24ba24af912c3b2f9f3a7585c2",
        "hybrid-pb": "a27c20e3bd3f347af87abb4f35e10be081916940d831c84f256559254821240f",
        "mamamia-mst": "552e9d3a74d0c39f54d9d0b8f03d50c0fc7bb384425330a7170ddc7159c4d23e",
        "hybrid-mst": "531dffb086c3855a19f398d427d1e8c78df0a023132adc45f2dfe0f4b545c59e",
        "tamis-mst-avg": "7190ba9566b6d9560a47408707e92145ff1c89e1b9630545d48c3ee63026b53d",
        "marginals-sigma": "14f1f6aef43158c475057fd1a6cbae39169ab2b9e839990ad0efac7f87618750",
        "marginals-pi": "3959b962e40b0367592e4f0f2b600923618f4817cffaea33c51bafab149633d2",
    }
    WIDE_CARDINALITIES_MST = {
        "synth.csv": "3e95f47625fec3d8ec057773c7e0edc4b3d3783535982362e3862d4de163372b",
        "model.json": "97ef13545f04fab0fe684b5b765495ec655096e4d3f20e29f404c8f56b9cae4f",
        "tamis-mst": "a111284bd1f42a84107c83df9003c0ff2946ba5be4a3fb6973b95c302ff20999",
    }

    def test_run_experiment(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 1)
        cfg = small_config(
            str(tmp_path / "exp"), methods=("mst", "privbayes"), epsilons=(1.0, 1000.0), attacks=harness.ALL_ATTACKS,
            data={"kind": "generate", "n_rows": 2000, "n_attrs": 5, "max_cardinality": 4},
        )
        harness.run_experiment(cfg)
        assert {name: _sha256(os.path.join(cfg.out_dir, name)) for name in self.REPLICATE} == self.REPLICATE

    @pytest.mark.parametrize("method", ["mst", "privbayes"])
    def test_generate(self, tmp_path, method):
        data = str(tmp_path / "train.csv")
        write_csv(generate_households(2000, n_attrs=5, max_cardinality=4, seed=3), data)
        gen = tmp_path / "gen"
        assert cli.main([
            "generate", "--data", data, "--method", method, "--epsilon", "10", "--delta", "1e-9",
            "--n-synth", "1000", "--seed", "4", "--out", str(gen),
        ]) == 0
        assert {name: _sha256(gen / name) for name in self.GENERATE[method]} == self.GENERATE[method]

    @pytest.mark.parametrize("method", ["mst", "privbayes"])
    def test_recover(self, tmp_path, method):
        synth = str(tmp_path / "synth.csv")
        write_csv(generate_households(2000, n_attrs=5, max_cardinality=4, seed=3), synth)
        out = tmp_path / "structure.json"
        assert cli.main([
            "recover", "--synth", synth, "--method", method, "--epsilon", "10", "--delta", "1e-9",
            "--seed", "5", "--out", str(out),
        ]) == 0
        assert _sha256(out) == self.RECOVER[method]

    @pytest.mark.parametrize("method", ["mst", "privbayes"])
    def test_shadow(self, tmp_path, method):
        aux = str(tmp_path / "aux.csv")
        write_csv(generate_households(2000, n_attrs=5, max_cardinality=4, seed=3), aux)
        out = tmp_path / "weights.json"
        assert cli.main([
            "shadow", "--aux", aux, "--method", method, "--epsilon", "10", "--delta", "1e-9",
            "--k", "4", "--subset-size", "500", "--seed", "6", "--out", str(out),
        ]) == 0
        assert _sha256(out) == self.SHADOW[method]

    def test_shadow_wide(self, tmp_path):
        """Tree shadow weights over 16 attributes of cardinality 2 to 6: pairs of many table shapes."""
        aux = generate_households(3000, n_attrs=16, max_cardinality=6, seed=3)
        assert len(set(aux.domain.cardinalities)) >= 4
        path = str(tmp_path / "aux.csv")
        write_csv(aux, path)
        out = tmp_path / "weights.json"
        assert cli.main([
            "shadow", "--aux", path, "--method", "mst", "--epsilon", "10", "--delta", "1e-9",
            "--k", "4", "--subset-size", "1000", "--seed", "6", "--out", str(out),
        ]) == 0
        assert _sha256(out) == self.SHADOW_WIDE_MST

    def test_generate_and_attack_wide_cardinalities(self, tmp_path):
        """A tree over cardinalities up to 12: ``generate --method mst`` and ``tamis-mst`` scores on its synth.

        Its edge tables have up to 8 columns and more than 8, on both sides of the width at which NumPy's
        row sums change order, so the tree's IPF is pinned on both.
        """
        aux = generate_households(3000, n_attrs=8, max_cardinality=12, seed=8)
        cards = aux.domain.cardinalities
        assert max(cards) == 12
        train, target, _ = make_snake_split(aux, SplitSpec(n_target_households=10, min_household_size=3,
                                                           train_size=1000, seed=1))
        paths = {}
        for part, ds in (("aux", aux), ("train", train), ("target", target)):
            paths[part] = str(tmp_path / f"{part}.csv")
            write_csv(ds, paths[part])
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--data", paths["train"], "--method", "mst", "--epsilon", "10",
                         "--delta", "1e-9", "--n-synth", "1000", "--seed", "4", "--out", str(gen)]) == 0
        with open(gen / "structure.json", encoding="utf-8") as fh:
            widths = {cards[j] for _, j in json.load(fh)["edges"]}
        assert min(widths) <= 8 < max(widths)
        out = tmp_path / "scores.csv"
        assert cli.main(["attack", "--attack", "tamis-mst", "--target", paths["target"], "--synth",
                         str(gen / "synth.csv"), "--aux", paths["aux"], "--structure", str(gen / "structure.json"),
                         "--out", str(out)]) == 0
        found = {name: _sha256(gen / name) for name in ("synth.csv", "model.json")}
        found["tamis-mst"] = _sha256(out)
        assert found == self.WIDE_CARDINALITIES_MST

    @pytest.mark.parametrize("name", sorted(ATTACK))
    def test_attack(self, tmp_path, name):
        """Scores of an attack on a generator's synth (a tree's, for a structure-free attack)."""
        family, needs, _, _ = attack.lookup(name)
        method = sdg.METHOD_MST if family == "free" else family
        aux = generate_households(2000, n_attrs=5, max_cardinality=4, seed=3)
        train, target, _ = make_snake_split(aux, SplitSpec(n_target_households=10, min_household_size=3,
                                                           train_size=500, seed=1))
        paths = {}
        for part, ds in (("aux", aux), ("train", train), ("target", target)):
            paths[part] = str(tmp_path / f"{part}.csv")
            write_csv(ds, paths[part])
        gen = tmp_path / "gen"
        dp = ["--method", method, "--epsilon", "10", "--delta", "1e-9"]
        assert cli.main(["generate", "--data", paths["train"], *dp, "--n-synth", "1000", "--seed", "4",
                         "--out", str(gen)]) == 0
        given = str(gen / "structure.json")
        if needs == "weights":
            given = str(tmp_path / "weights.json")
            assert cli.main(["shadow", "--aux", paths["aux"], *dp, "--k", "4", "--subset-size", "500",
                             "--seed", "6", "--out", given]) == 0
        out = tmp_path / "scores.csv"
        assert cli.main([
            "attack", "--attack", name, "--target", paths["target"], "--synth", str(gen / "synth.csv"),
            "--aux", paths["aux"], *([f"--{needs}", given] if needs else []), "--out", str(out),
        ]) == 0
        assert _sha256(out) == self.ATTACK[name]


class TestHouseholdLabels:
    def test_labels_follow_membership(self):
        hh = np.array([3, 3, 5, 5, 9])
        labels = np.array([1, 1, 0, 0, 1])
        out = harness._household_labels(hh, labels)
        assert out.tolist() == [1, 0, 1]


class TestCli:
    def _prepare(self, tmp_path):
        aux = generate_households(4000, n_attrs=4, max_cardinality=3, seed=2)
        spec = SplitSpec(n_target_households=15, min_household_size=3, train_size=800, seed=1)
        train, target, _ = make_snake_split(aux, spec)
        paths = {}
        for name, ds in (("aux", aux), ("train", train), ("target", target)):
            paths[name] = str(tmp_path / f"{name}.csv")
            write_csv(ds, paths[name])
        return paths

    def test_parser_is_built_once_and_reused(self, capsys):
        """One parser serves every call: each usage error and each command's defaults come out as on the first call."""
        assert cli.build_parser() is cli.build_parser()
        usage = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["shadow", "--aux", "a.csv"])
            assert exc.value.code == 2
            usage.append(capsys.readouterr().err)
        assert usage[0] == usage[1] and "--subset-size" in usage[0]
        argv = ["recover", "--synth", "x.csv", "--out", "y.json"]
        first = cli.build_parser().parse_args(argv + ["--method", "privbayes", "--seed", "3"])
        again = cli.build_parser().parse_args(argv)
        assert (first.method, first.seed, again.method, again.seed) == ("privbayes", 3, "mst", 0)
        assert again.fn is cli.cmd_recover

    def test_full_pipeline(self, tmp_path, capsys):
        paths = self._prepare(tmp_path)
        gen = str(tmp_path / "gen")
        assert cli.main([
            "generate", "--data", paths["train"], "--method", "mst",
            "--epsilon", "100", "--delta", "1e-9", "--n-synth", "800",
            "--out", gen, "--seed", "3",
        ]) == 0
        structure = str(tmp_path / "structure.json")
        assert cli.main([
            "recover", "--synth", os.path.join(gen, "synth.csv"),
            "--method", "mst", "--out", structure,
        ]) == 0
        weights = str(tmp_path / "weights.json")
        assert cli.main([
            "shadow", "--aux", paths["aux"], "--method", "mst", "--epsilon", "100",
            "--delta", "1e-9", "--k", "2", "--subset-size", "800", "--out", weights,
        ]) == 0
        scores = str(tmp_path / "scores.csv")
        assert cli.main([
            "attack", "--attack", "tamis-mst", "--target", paths["target"],
            "--synth", os.path.join(gen, "synth.csv"), "--aux", paths["aux"],
            "--structure", structure, "--out", scores,
        ]) == 0
        assert cli.main(["evaluate", "--scores", scores]) == 0
        out = capsys.readouterr().out
        assert '"auroc"' in out

    def test_shadow_without_delta_uses_the_generate_default(self, tmp_path):
        """shadow replays the generator's parameters, so its --delta default is generate's 1e-9."""
        paths = self._prepare(tmp_path)
        written = []
        for extra in ([], ["--delta", "1e-9"]):
            out = tmp_path / f"weights{len(written)}.json"
            assert cli.main([
                "shadow", "--aux", paths["aux"], "--method", "mst", "--epsilon", "1",
                "--k", "2", "--subset-size", "800", "--out", str(out), *extra,
            ]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_mamamia_via_weights(self, tmp_path, capsys):
        paths = self._prepare(tmp_path)
        gen = str(tmp_path / "gen")
        cli.main(["generate", "--data", paths["train"], "--epsilon", "inf",
                  "--n-synth", "800", "--out", gen])
        weights = str(tmp_path / "w.json")
        cli.main(["shadow", "--aux", paths["aux"], "--epsilon", "inf",
                  "--k", "2", "--subset-size", "800", "--out", weights])
        scores = str(tmp_path / "s.csv")
        assert cli.main([
            "attack", "--attack", "mamamia-mst", "--target", paths["target"],
            "--synth", os.path.join(gen, "synth.csv"), "--aux", paths["aux"],
            "--weights", weights, "--prior", "0.5", "--out", scores,
        ]) == 0

    def test_error_is_machine_readable(self, tmp_path, capsys):
        paths = self._prepare(tmp_path)
        code = cli.main([
            "attack", "--attack", "tamis-mst", "--target", paths["target"],
            "--synth", paths["aux"], "--aux", paths["aux"],
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"

    @pytest.mark.parametrize(
        "attack_name, flag, text, error",
        [
            ("tamis-mst", "--structure", '{"method": "privbayes", "order": [[0, []], [1, [0]]]}', "ConfigurationError"),
            ("hybrid-pb", "--structure", '{"method": "mst", "edges": [[0, 1]]}', "ConfigurationError"),
            ("mamamia-mst", "--weights", '{"method": "privbayes", "K": 1, "weights": {"0|": 1}}', "ConfigurationError"),
            ("tamis-mst", "--structure", "{}", "ParseError"),
            ("mamamia-pb", "--weights", "{}", "ParseError"),
            ("tamis-mst", "--structure", "edges: 0-1", "ParseError"),
        ],
        ids=["pb-structure-mst-attack", "mst-structure-pb-attack", "pb-weights-mst-attack",
             "empty-structure", "empty-weights", "structure-not-json"],
    )
    def test_bad_input_file_rejected_before_csvs_are_read(self, tmp_path, capsys, attack_name, flag, text, error):
        path = tmp_path / "input.json"
        path.write_text(text)
        missing = str(tmp_path / "missing.csv")
        assert cli.main([
            "attack", "--attack", attack_name, "--target", missing, "--synth", missing, "--aux", missing,
            flag, str(path), "--out", str(tmp_path / "scores.csv"),
        ]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error  # an OSError would mean a CSV was opened

    @pytest.mark.parametrize("prior", [[], ["--prior", "0.5"]], ids=["simple", "calibrated"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold(self, tmp_path, capsys, threshold, prior):
        paths = self._prepare(tmp_path)
        out = tmp_path / "scores.csv"
        assert cli.main([
            "attack", "--attack", "marginals-sigma", "--target", paths["target"], "--synth", paths["aux"],
            "--aux", paths["aux"], f"--threshold={threshold}", *prior, "--out", str(out),
        ]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigurationError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["generate", "--data", "empty.csv", "--out", "gen"], ["recover", "--synth", "empty.csv", "--out", "s.json"]]
    )
    def test_header_only_privbayes_input(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.csv").write_text("a,b,c\n")
        assert cli.main([*command, "--method", "privbayes"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "EstimationError"

    @pytest.mark.parametrize("epsilon", ["inf", "1"])
    def test_header_only_mst_input(self, tmp_path, capsys, monkeypatch, epsilon):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.csv").write_text("a,b,c\n")
        argv = ["generate", "--data", "empty.csv", "--out", "gen", "--method", "mst", "--epsilon", epsilon]
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "EstimationError"

    @pytest.mark.parametrize("name", sorted(attack.ATTACKS))
    def test_header_only_synth(self, tmp_path, capsys, name):
        paths = self._prepare(tmp_path)  # 4 attributes
        inputs = {
            ("mst", "structure"): {"method": "mst", "edges": [[0, 1], [1, 2], [2, 3]]},
            ("privbayes", "structure"): {"method": "privbayes", "order": [[0, []], [1, [0]], [2, [1]], [3, [2]]]},
            ("mst", "weights"): {"method": "mst", "K": 1, "weights": {"0-1": 1}},
            ("privbayes", "weights"): {"method": "privbayes", "K": 1, "weights": {"0|": 1, "1|0": 1}},
        }
        family, needs = attack.ATTACKS[name]
        extra = []
        if needs is not None:
            (tmp_path / "input.json").write_text(json.dumps(inputs[(family, needs)]))
            extra = [f"--{needs}", str(tmp_path / "input.json")]
        with open(paths["train"], encoding="utf-8") as fh:
            (tmp_path / "empty.csv").write_text(fh.readline())
        scores = tmp_path / "scores.csv"
        assert cli.main([
            "attack", "--attack", name, "--target", paths["target"], "--synth", str(tmp_path / "empty.csv"),
            "--aux", paths["aux"], *extra, "--out", str(scores),
        ]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "EstimationError"
        assert not scores.exists()

    def test_replicate_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("replicas: 1")
        assert cli.main(["replicate", "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ParseError"

    @pytest.mark.parametrize(
        "attack_name, text",
        [
            ("tamis-mst", '{"method": "mst", "edges": [[0, 1], [1, 2], [0, 2]]}'),
            ("tamis-mst", '{"method": "mst", "edges": [[0, 1], [1, 2]]}'),
            ("hybrid-mst", '{"method": "mst", "edges": [[0, 1], [1, 2], [2, 9]]}'),
            ("tamis-pb", '{"method": "privbayes", "order": [[0, [1]], [1, [0]]]}'),
            ("hybrid-pb", '{"method": "privbayes", "order": [[0, []], [1, [0]], [2, [1]], [0, [2]]]}'),
            ("tamis-pb", '{"method": "privbayes", "order": [[0, []], [1, [0]], [2, [1]]]}'),
        ],
        ids=["tree-cycle", "tree-too-few-edges", "tree-outside-domain",
             "network-cycle", "network-node-twice", "network-misses-a-node"],
    )
    def test_structure_that_is_not_a_density(self, tmp_path, capsys, attack_name, text):
        paths = self._prepare(tmp_path)  # 4 attributes
        structure = tmp_path / "structure.json"
        structure.write_text(text)
        scores = tmp_path / "scores.csv"
        assert cli.main([
            "attack", "--attack", attack_name, "--target", paths["target"], "--synth", paths["train"],
            "--aux", paths["aux"], "--structure", str(structure), "--out", str(scores),
        ]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigurationError"
        assert not scores.exists()

    @pytest.mark.parametrize("column", ["__household__", "__member__"])
    def test_non_integer_reserved_cell(self, tmp_path, capsys, column):
        data = tmp_path / "train.csv"
        data.write_text(f"a,b,{column}\nx,y,1\ny,x,1.5\nx,x,2\n")
        assert cli.main(["generate", "--data", str(data), "--out", str(tmp_path / "gen")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ParseError"
        assert "row 3" in err["message"] and column in err["message"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj.update(replica=2),
            lambda obj: obj["split"].update(train_fraction=0.5),
            lambda obj: obj.pop("out_dir"),
            lambda obj: obj.update(split=[15, 3, 800]),
            lambda obj: obj.update(replicas="2"),
            lambda obj: obj.update(epsilons=[1, "x"]),
            lambda obj: obj.update(shadow_k="5"),
            lambda obj: obj.update(threshold="a"),
            lambda obj: obj.update(n_synth=-3),
        ],
        ids=["unknown-key", "unknown-split-key", "missing-out-dir", "split-not-object",
             "replicas-text", "epsilon-not-a-number", "shadow-k-text", "threshold-text", "n-synth-negative"],
    )
    def test_replicate_config_with_bad_keys(self, tmp_path, capsys, edit):
        obj = small_config(str(tmp_path / "exp")).to_json()
        edit(obj)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["replicate", "--config", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigurationError"
        assert not (tmp_path / "exp").exists()

    def test_replicate_subcommand(self, tmp_path, capsys):
        cfg = small_config(str(tmp_path / "exp"))
        cfg_path = str(tmp_path / "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg.to_json(), fh)
        assert cli.main(["replicate", "--config", cfg_path]) == 0
        assert os.path.exists(os.path.join(cfg.out_dir, "summary.json"))

    def test_replicate_options_override_the_config(self, tmp_path, capsys):
        obj = small_config(str(tmp_path / "unused")).to_json()
        del obj["out_dir"]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(obj))
        out = tmp_path / "exp"
        assert cli.main(["replicate", "--config", str(cfg_path), "--out", str(out), "--seed", "3"]) == 0
        with open(out / "config.json", encoding="utf-8") as fh:
            written = json.load(fh)["config"]
        assert (written["out_dir"], written["seed"]) == (str(out), 3)
        assert (out / "summary.json").exists() and not (tmp_path / "unused").exists()
