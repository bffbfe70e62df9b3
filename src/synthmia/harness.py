"""Experiment orchestration: replicas x epsilon grid x attacks x settings.

Each replica draws a household split, fits the configured generators at each
epsilon, samples synthetic data, recovers structure, builds shadow weights,
scores every configured attack in three settings (auxiliary individuals,
target individuals, target households) and evaluates both activations.
Everything is deterministic given the master seed.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import attack as attack_mod
from . import evaluation, recovery, sdg
from .data import SplitSpec, generate_households, load_csv, snake_split_indices
from .dp import DpParams, derive_seed
from .errors import ConfigurationError, ResumeMismatch

ALL_ATTACKS = (
    "tamis-mst", "tamis-mst-avg", "mamamia-mst", "hybrid-mst",
    "tamis-pb", "tamis-pb*", "mamamia-pb", "hybrid-pb", "hybrid-pb*",
    "marginals-sigma", "marginals-pi",
)


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: str
    replicas: int = 1
    epsilons: tuple = (0.1, 1.0, 10.0, 100.0, 1000.0)
    methods: tuple = (sdg.METHOD_MST, sdg.METHOD_PRIVBAYES)
    attacks: tuple = ALL_ATTACKS
    cross_targeted: bool = False
    split: SplitSpec = field(
        default_factory=lambda: SplitSpec(n_target_households=100, min_household_size=5, train_size=10000)
    )
    shadow_k: int = 50
    delta: float = 1e-9
    theta: float = None
    n_synth: int = None
    data: dict = field(default_factory=lambda: {"kind": "generate", "n_rows": 50000})
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        if self.replicas < 1:
            raise ConfigurationError("need at least one replica")
        if not self.epsilons:
            raise ConfigurationError("epsilon grid must be non-empty")
        for name in self.attacks:
            attack_mod.lookup(name)
        for method in self.methods:
            if method not in (sdg.METHOD_MST, sdg.METHOD_PRIVBAYES):
                raise ConfigurationError(f"unknown method {method!r}")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "attacks", tuple(self.attacks))

    def to_json(self):
        obj = dataclasses.asdict(self)
        obj["epsilons"] = [format_epsilon(e) for e in self.epsilons]
        obj["methods"] = list(self.methods)
        obj["attacks"] = list(self.attacks)
        obj["split"] = dataclasses.asdict(self.split)
        return obj

    @classmethod
    def from_json(cls, obj):
        obj = dict(obj)
        if "split" in obj:
            obj["split"] = SplitSpec(**obj["split"])
        if "epsilons" in obj:
            obj["epsilons"] = tuple(parse_epsilon(e) for e in obj["epsilons"])
        for key in ("methods", "attacks"):
            if key in obj:
                obj[key] = tuple(obj[key])
        return cls(**obj)


def format_epsilon(eps):
    return "inf" if math.isinf(eps) else f"{eps:g}"


def parse_epsilon(value):
    if isinstance(value, str) and value.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(value)


def config_hash(cfg):
    payload = json.dumps(cfg.to_json(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def load_aux(cfg):
    """Materialize the auxiliary dataset described by the data config."""
    data = cfg.data
    kind = data.get("kind", "generate")
    if kind == "csv":
        return load_csv(data["path"])
    if kind == "generate":
        return generate_households(
            n_rows=int(data.get("n_rows", 50000)),
            n_attrs=int(data.get("n_attrs", 8)),
            max_cardinality=int(data.get("max_cardinality", 8)),
            min_size=int(data.get("min_size", 1)),
            max_size=int(data.get("max_size", 10)),
            resample_prob=float(data.get("resample_prob", 0.15)),
            seed=int(data.get("seed", 0)),
        )
    raise ConfigurationError(f"unknown data kind {kind!r}")


class _AttackContext:
    """Lazily-computed attacker inputs shared across attacks in one cell."""

    def __init__(self, synth, aux, train_size, dp, seed, true_structure, shadow_k):
        self.synth = synth
        self.aux = aux
        self.train_size = train_size
        self.dp = dp
        self.seed = seed
        self.true_structure = true_structure
        self.shadow_k = shadow_k
        self._cache = {}

    def structure(self, method):
        """The structure of a ``method`` generator recovered from synth."""
        key = f"structure-{method}"
        if key not in self._cache:
            dp = self.dp.with_seed(derive_seed(self.seed, 1))
            self._cache[key] = recovery.recover(self.synth, method, dp)
        return self._cache[key]

    def weights(self, method):
        key = f"weights-{method}"
        if key not in self._cache:
            cfg = recovery.ShadowConfig(
                K=self.shadow_k,
                subset_size=min(self.train_size, len(self.aux)),
                dp=self.dp,
                seed=derive_seed(self.seed, 2),
            )
            self._cache[key] = recovery.shadow_weights(self.aux, cfg, method)
        return self._cache[key]


def score_attack(name, target, ctx):
    """Score one attack by name against a record set."""
    family, needs, starred, fn = attack_mod.lookup(name)
    if starred and ctx.true_structure.method != family:
        raise ConfigurationError(f"{name!r} needs the true structure of a {family} generator")
    if needs == "structure":
        inputs = (ctx.true_structure if starred else ctx.structure(family),)
    elif needs == "weights":
        inputs = (ctx.weights(family),)
    else:
        inputs = ()
    return fn(target, *inputs, ctx.synth, ctx.aux)


def _setting_metrics(score_vector, labels, prior, threshold):
    """AUROC plus balanced accuracy under both activation regimes."""
    raw = score_vector.log_scores
    auc = evaluation.auroc(raw, labels)
    _, preds_simple = attack_mod.activate_simple(score_vector, threshold)
    _, preds_cal = attack_mod.activate_calibrated(score_vector, prior, threshold)
    return {
        "auroc": auc,
        "balanced_accuracy_simple": evaluation.balanced_accuracy(preds_simple, labels),
        "balanced_accuracy_calibrated": evaluation.balanced_accuracy(preds_cal, labels),
    }


def _attacks_for(cfg, method):
    names = []
    for name in cfg.attacks:
        family, _, starred, _ = attack_mod.lookup(name)
        if starred and family != method:
            continue  # true-structure variants only apply to their own generator
        if cfg.cross_targeted or family in ("free", method):
            names.append(name)
    return names


def run_replica(cfg, replica_index, aux=None):
    """Run one replica; returns a list of metric-row dicts."""
    if aux is None:
        aux = load_aux(cfg)
    rseed = derive_seed(cfg.seed, replica_index)
    split = replace(cfg.split, seed=derive_seed(rseed, 0))
    train_idx, target_idx, target_labels = snake_split_indices(aux, split)
    train = aux.subset(train_idx)
    target = aux.subset(target_idx)
    target_households = aux.household_id[target_idx]
    aux_labels = np.zeros(len(aux), dtype=np.int64)
    aux_labels[train_idx] = 1
    n_synth = cfg.n_synth if cfg.n_synth is not None else split.train_size

    rows = []

    def emit(method, eps, setting, name, metrics):
        for metric, value in metrics.items():
            rows.append(
                {
                    "replica": replica_index,
                    "method": method,
                    "epsilon": format_epsilon(eps),
                    "setting": setting,
                    "attack": name,
                    "metric": metric,
                    "value": value,
                }
            )

    for m_idx, method in enumerate(cfg.methods):
        for e_idx, eps in enumerate(cfg.epsilons):
            stage = derive_seed(rseed, 1 + m_idx * len(cfg.epsilons) + e_idx)
            delta = cfg.delta if (method == sdg.METHOD_MST and math.isfinite(eps)) else 0.0
            dp = DpParams(eps, delta=delta, theta=cfg.theta, seed=derive_seed(stage, 0))
            model = sdg.fit(train, sdg.GeneratorConfig(method, dp))
            synth = sdg.sample(model, n_synth, derive_seed(stage, 1))
            ctx = _AttackContext(
                synth, aux, split.train_size, dp, derive_seed(stage, 3), model.structure, cfg.shadow_k,
            )
            # the structure the attacks score with is the one whose recovery is reported
            rec = evaluation.recovery_metrics(model.structure, ctx.structure(method))
            emit(method, eps, "recovery", f"recover-{method}", rec.to_json())
            for name in _attacks_for(cfg, method):
                sv_aux = score_attack(name, aux, ctx)
                sv_target = score_attack(name, target, ctx)
                sv_house = attack_mod.aggregate_households(sv_target, target_households)
                house_labels = _household_labels(target_households, target_labels)

                prior_aux = float(aux_labels.mean())
                prior_tgt = float(target_labels.mean())
                emit(method, eps, "aux-individuals", name,
                     _setting_metrics(sv_aux, aux_labels, prior_aux, cfg.threshold))
                emit(method, eps, "target-individuals", name,
                     _setting_metrics(sv_target, target_labels, prior_tgt, cfg.threshold))
                emit(method, eps, "target-households", name,
                     _setting_metrics(sv_house, house_labels, 0.5, cfg.threshold))
    return rows


def _household_labels(household_id, labels):
    """One label per household (members of a household share a label)."""
    ids, inverse = np.unique(np.asarray(household_id, dtype=np.int64), return_inverse=True)
    out = np.zeros(ids.size, dtype=np.int64)
    np.maximum.at(out, inverse, np.asarray(labels, dtype=np.int64))
    return out


CSV_COLUMNS = ("replica", "method", "epsilon", "setting", "attack", "metric", "value")


def _replica_path(out_dir, replica_index):
    return os.path.join(out_dir, f"replica_{replica_index:04d}.csv")


def write_rows(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row["replica"], row["method"], row["epsilon"], row["setting"],
                row["attack"], row["metric"], f"{float(row['value']):.12g}",
            ])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_experiment(cfg):
    """Run all replicas, resumably; returns the list of written files."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    digest = config_hash(cfg)
    meta_path = os.path.join(cfg.out_dir, "config.json")
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta.get("hash") != digest:
            raise ResumeMismatch(f"{cfg.out_dir} holds results for a different configuration")
    else:
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump({"hash": digest, "config": cfg.to_json()}, fh, indent=2, sort_keys=True)

    aux = load_aux(cfg)
    paths = [meta_path]
    all_rows = []
    for r in range(cfg.replicas):
        path = _replica_path(cfg.out_dir, r)
        if not os.path.exists(path):
            write_rows(run_replica(cfg, r, aux), path)
        paths.append(path)
        all_rows.extend(read_rows(path))

    summary = aggregate(all_rows)
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    paths.append(summary_path)
    return paths


def aggregate(rows):
    """Mean / stdv / median per (method, epsilon, setting, attack, metric)."""
    groups = {}
    for row in rows:
        key = (row["method"], row["epsilon"], row["setting"], row["attack"], row["metric"])
        groups.setdefault(key, []).append(float(row["value"]))
    out = {}
    for key, values in sorted(groups.items()):
        arr = np.array(values)
        name = "/".join(key)
        out[name] = {
            "mean": float(arr.mean()),
            "stdv": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            "median": float(np.median(arr)),
            "n": int(arr.size),
        }
    return out
