"""The benchmark's workloads: inputs, the timed operation and its checks.

Each workload has three steps. ``setup`` imports synthmia from the
checkout's sources and prepares the inputs, ``run`` is the timed operation,
and ``check`` tests what the operation wrote. The population of each
workload is fixed (data seed 0); ``seed`` drives everything drawn after it:
the household split, generator noise, sampling and shadow subsets. The
drawn cardinalities set how many PrivBayes candidates exist, so a
seed-dependent population would swing the work itself between seeds
(43.8k to 58.2k ``privbayes_score`` calls per replica over population seeds
0 to 3).
"""

import contextlib
import dataclasses
import importlib
import io
import os
import shutil
import sys
import traceback

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Settings that are the same on every workload: the population's seed, the
# smallest target household, and the CLI's methods, attack prior and DP delta.
DATA_SEED = 0
MIN_HOUSEHOLD_SIZE = 5
CLI_METHODS = ("mst", "privbayes")
PRIOR = 0.5
DELTA = 1e-9

ALL_ATTACKS = (
    "tamis-mst", "tamis-mst-avg", "mamamia-mst", "hybrid-mst",
    "tamis-pb", "tamis-pb*", "mamamia-pb", "hybrid-pb", "hybrid-pb*",
    "marginals-sigma", "marginals-pi",
)


def import_synthmia():
    """Import synthmia from the checkout's sources, dropping any earlier import."""
    if not os.path.isfile(os.path.join(SRC, "synthmia", "__init__.py")):
        raise FileNotFoundError(f"no synthmia sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "synthmia" or m.startswith("synthmia.")]:
        del sys.modules[name]
    return importlib.import_module("synthmia")


@dataclasses.dataclass
class Outcome:
    attempted: int
    failed: int


# ---------------------------------------------------------------------------
# replica-paper, grid-mst-wide: harness.run_experiment into an empty directory
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ReplicaSpec:
    n_rows: int
    n_attrs: int
    max_cardinality: int
    train_size: int
    n_target_households: int
    epsilons: tuple
    methods: tuple
    attacks: tuple
    shadow_k: int
    replicas: int
    power_attack: str  # its aux-individuals AUROC must rise with epsilon


REPLICA_PAPER = ReplicaSpec(
    n_rows=50000, n_attrs=8, max_cardinality=8, train_size=10000, n_target_households=100,
    epsilons=("0.1", "1", "10", "100", "1000"), methods=("mst", "privbayes"),
    attacks=ALL_ATTACKS, shadow_k=50, replicas=1, power_attack="tamis-pb",
)

GRID_MST_WIDE = ReplicaSpec(
    n_rows=20000, n_attrs=16, max_cardinality=6, train_size=4000, n_target_households=60,
    epsilons=("1", "100", "1000"), methods=("mst",),
    attacks=("tamis-mst", "tamis-mst-avg", "mamamia-mst", "hybrid-mst", "marginals-sigma", "marginals-pi"),
    shadow_k=20, replicas=4, power_attack="tamis-mst",
)


class ReplicaWorkload:
    # set-ups per operation: set-up is a ~50 ms import, too short for the
    # median of a few to be steady
    setup_repeats = 15

    def __init__(self, spec):
        self.spec = spec

    def setup(self, seed, workdir, after_import=None):
        sm = import_synthmia()
        if after_import is not None:
            after_import(sm)
        s = self.spec
        self.out_dir = os.path.join(workdir, "results")
        self.config = {
            "out_dir": self.out_dir,
            "replicas": s.replicas,
            "epsilons": list(s.epsilons),
            "methods": list(s.methods),
            "attacks": list(s.attacks),
            "split": {"n_target_households": s.n_target_households,
                      "min_household_size": MIN_HOUSEHOLD_SIZE,
                      "train_size": s.train_size, "seed": 0},
            "shadow_k": s.shadow_k,
            "data": {"kind": "generate", "n_rows": s.n_rows, "n_attrs": s.n_attrs,
                     "max_cardinality": s.max_cardinality, "seed": DATA_SEED},
            "seed": seed,
        }
        self.cfg = sm.harness.ExperimentConfig.from_json(self.config)
        self.harness = sm.harness
        self.reset()

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def operations(self):
        s = self.spec
        return s.replicas * len(s.methods) * len(s.epsilons)

    def run(self):
        try:
            self.harness.run_experiment(self.cfg)
        except Exception:
            traceback.print_exc()
            return Outcome(self.operations(), self.operations())
        return Outcome(self.operations(), 0)

    def check(self, outcome):
        if outcome.failed:
            return [f"run_experiment raised: {outcome.failed} of {outcome.attempted} operations failed"]
        return checks.check_replica_outputs(self.out_dir, self.config, self.spec.power_attack)


# ---------------------------------------------------------------------------
# cli-audit: the attacker's file-based audit through synthmia.cli.main
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CliSpec:
    n_rows: int = 50000
    n_attrs: int = 8
    max_cardinality: int = 8
    train_size: int = 10000
    n_target_households: int = 100
    epsilons: tuple = ("1", "100")
    shadow_k: int = 10
    n_synth: int = 10000


CLI_AUDIT = CliSpec()


def _cli_cell(spec, method, eps, inputs, out, seed):
    """Commands and output paths of one (method, epsilon) cell of the audit."""
    short = "mst" if method == "mst" else "pb"
    cell_dir = os.path.join(out, f"{method}-{eps}")
    gen = os.path.join(cell_dir, "gen")
    structure = os.path.join(cell_dir, "structure.json")
    weights = os.path.join(cell_dir, "weights.json")
    dp = ["--epsilon", eps, "--delta", repr(DELTA)]
    commands = [
        ["generate", "--data", inputs["train"], "--method", method, "--n-synth", str(spec.n_synth),
         "--out", gen, *dp, "--seed", str(seed)],
        ["recover", "--synth", os.path.join(gen, "synth.csv"), "--method", method, "--out", structure,
         *dp, "--seed", str(seed + 1)],
        ["shadow", "--aux", inputs["aux"], "--method", method, "--k", str(spec.shadow_k),
         "--subset-size", str(spec.train_size), "--out", weights, *dp, "--seed", str(seed + 2)],
    ]
    attacks = []
    for name, extra in (
        (f"tamis-{short}", ["--structure", structure]),
        (f"hybrid-{short}", ["--structure", structure]),
        (f"mamamia-{short}", ["--weights", weights, "--prior", repr(PRIOR)]),
        ("marginals-sigma", []),
    ):
        scores = os.path.join(cell_dir, f"scores-{name}.csv")
        evaluation = os.path.join(cell_dir, f"eval-{name}.json")
        commands.append(["attack", "--attack", name, "--target", inputs["target"],
                         "--synth", os.path.join(gen, "synth.csv"), "--aux", inputs["aux"],
                         *extra, "--out", scores])
        commands.append(["evaluate", "--scores", scores, "--out", evaluation])
        attacks.append({"name": name, "scores": scores, "eval": evaluation})
    return {
        "method": method,
        "epsilon": eps,
        "dir": cell_dir,
        "synth": os.path.join(gen, "synth.csv"),
        "generator_structure": os.path.join(gen, "structure.json"),
        "structure": structure,
        "weights": weights,
        "attacks": attacks,
        "commands": commands,
    }


class CliWorkload:
    setup_repeats = 3

    def __init__(self, spec):
        self.spec = spec

    def setup(self, seed, workdir, after_import=None):
        sm = import_synthmia()
        if after_import is not None:
            after_import(sm)
        s = self.spec
        inputs_dir = os.path.join(workdir, "inputs")
        shutil.rmtree(inputs_dir, ignore_errors=True)
        os.makedirs(inputs_dir)
        aux = sm.data.generate_households(s.n_rows, n_attrs=s.n_attrs, max_cardinality=s.max_cardinality,
                                          seed=DATA_SEED)
        split = sm.data.SplitSpec(s.n_target_households, MIN_HOUSEHOLD_SIZE, s.train_size, seed=seed)
        train, target, _ = sm.data.make_snake_split(aux, split)
        inputs = {name: os.path.join(inputs_dir, f"{name}.csv") for name in ("aux", "train", "target")}
        sm.data.write_csv(aux, inputs["aux"])
        sm.data.write_csv(train, inputs["train"])
        sm.data.write_csv(target, inputs["target"])

        self.out_dir = os.path.join(workdir, "audit")
        cells = []
        for m_idx, method in enumerate(CLI_METHODS):
            for e_idx, eps in enumerate(s.epsilons):
                cell_seed = seed * 1000 + 10 * (m_idx * len(s.epsilons) + e_idx)
                cells.append(_cli_cell(s, method, eps, inputs, self.out_dir, cell_seed))
        self.plan = {**inputs, "n_synth": s.n_synth, "shadow_k": s.shadow_k, "cells": cells}
        self.main = sm.cli.main
        self.reset()

    def reset(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        for cell in self.plan["cells"]:
            os.makedirs(cell["dir"])

    def operations(self):
        return sum(len(cell["commands"]) for cell in self.plan["cells"])

    def run(self):
        self.failed_cells = set()
        self.failed_commands = []
        with contextlib.redirect_stdout(io.StringIO()):
            for idx, cell in enumerate(self.plan["cells"]):
                for argv in cell["commands"]:
                    try:
                        code = self.main(argv)
                    except Exception:
                        traceback.print_exc()
                        code = -1
                    if code != 0:
                        self.failed_commands.append(f"command exited {code}: synthmia {' '.join(argv)}")
                        self.failed_cells.add(idx)
        return Outcome(self.operations(), len(self.failed_commands))

    def check(self, outcome):
        # a failed command fails the run; the checks of its cell are skipped,
        # since its outputs are missing or stale
        return self.failed_commands + checks.check_cli_outputs(self.plan, self.failed_cells)


WORKLOADS = {
    "replica-paper": lambda: ReplicaWorkload(REPLICA_PAPER),
    "grid-mst-wide": lambda: ReplicaWorkload(GRID_MST_WIDE),
    "cli-audit": lambda: CliWorkload(CLI_AUDIT),
}
