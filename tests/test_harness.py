import functools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synthmia import attack, cli, harness, recovery, sdg
from synthmia.data import SplitSpec, generate_households, make_snake_split, write_csv
from synthmia.dp import DpParams
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
            rows.extend(harness.read_rows(os.path.join(cfg.out_dir, f"replica_{r:04d}.csv")))
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
        run_replica = harness.run_replica

        class Unwritable:
            def __float__(self):
                raise RuntimeError("cut short")

        def cut_short(*args):
            rows = run_replica(*args)
            return rows[:5] + [dict(rows[5], value=Unwritable())] + rows[5:]

        monkeypatch.setattr(harness, "run_replica", cut_short)
        with pytest.raises(RuntimeError):
            harness.run_experiment(cfg)
        assert not os.path.exists(path)
        monkeypatch.setattr(harness, "run_replica", run_replica)
        harness.run_experiment(cfg)
        clean = small_config(str(tmp_path / "clean"))
        harness.run_experiment(clean)
        with open(path, "rb") as a, open(os.path.join(clean.out_dir, "replica_0000.csv"), "rb") as b:
            assert a.read() == b.read()

    def test_resume_rejects_config_change(self, tmp_path):
        out = str(tmp_path / "exp")
        harness.run_experiment(small_config(out))
        with pytest.raises(ResumeMismatch):
            harness.run_experiment(small_config(out, seed=8))


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
        # a decimal is a valid score but not a valid prediction or label
        cells[r][c] = draw(_JUNK if c == 0 else _JUNK | st.sampled_from(["1.5", "1e3"]))
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


class TestMalformedInput:
    """Bad CLI input ends in exit code 1 and one JSON error line, never a traceback."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(malformed_score_csvs().map(lambda t: ("evaluate", t)),
                     malformed_data_objects().map(lambda d: ("replicate", d))))
    def test_one_json_error_line(self, tmp_path, capsys, case):
        command, payload = case
        if command == "evaluate":
            path = tmp_path / "scores.csv"
            path.write_text(payload)
            argv, error = ["evaluate", "--scores", str(path)], "ParseError"
        else:
            obj = small_config(str(tmp_path / "exp")).to_json()
            obj["data"] = payload
            path = tmp_path / "config.json"
            path.write_text(json.dumps(obj))
            argv, error = ["replicate", "--config", str(path)], "ConfigurationError"
        capsys.readouterr()
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("text", ["record_id,label\n0,1\n", "raw_score,prediction,label\nx,1,1\n"])
    def test_evaluate_reproduced_cases(self, tmp_path, capsys, text):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        assert cli.main(["evaluate", "--scores", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ParseError"


class TestStarredAttacks:
    """A starred structure attack scores with the generator's true structure."""

    def _context(self, method, candidates):
        aux = generate_households(3000, n_attrs=4, max_cardinality=3, seed=5)
        synth = aux.subset(np.arange(800))
        dp = DpParams(math.inf, seed=0)
        ctx = harness._AttackContext(synth, aux, 800, dp, 11, None, 2)
        recovered = ctx.structure(method)
        ctx.true_structure = next(s for s in (sdg.Structure(method, keys) for keys in candidates) if s != recovered)
        return ctx, recovered

    @pytest.mark.parametrize("name", ["tamis-mst", "tamis-mst-avg", "hybrid-mst"])
    def test_mst(self, name):
        ctx, recovered = self._context("mst", [((0, 1), (0, 2), (0, 3)), ((0, 1), (1, 2), (2, 3))])
        self._check(name, ctx, recovered)

    @pytest.mark.parametrize("name", ["tamis-pb", "hybrid-pb"])
    def test_privbayes(self, name):
        ctx, recovered = self._context(
            "privbayes",
            [((0, ()), (1, (0,)), (2, (1,)), (3, (2,))), ((3, ()), (2, (3,)), (1, (2,)), (0, (1,)))],
        )
        self._check(name, ctx, recovered)

    def _check(self, name, ctx, recovered):
        fn = getattr(attack, name.replace("-", "_"))
        target = ctx.aux.subset(np.arange(50))
        starred = harness.score_attack(name + "*", target, ctx)
        plain = harness.score_attack(name, target, ctx)
        want_star = fn(target, ctx.true_structure, ctx.synth, ctx.aux)
        want_plain = fn(target, recovered, ctx.synth, ctx.aux)
        assert np.array_equal(starred.log_scores, want_star.log_scores)
        assert np.array_equal(plain.log_scores, want_plain.log_scores)
        assert not np.array_equal(starred.log_scores, plain.log_scores)

    def test_star_needs_matching_generator(self):
        ctx, _ = self._context("mst", [((0, 1), (0, 2), (0, 3)), ((0, 1), (1, 2), (2, 3))])
        with pytest.raises(ConfigurationError):
            harness.score_attack("tamis-pb*", ctx.aux.subset(np.arange(5)), ctx)


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
        ],
        ids=["unknown-key", "unknown-split-key", "missing-out-dir", "split-not-object"],
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
