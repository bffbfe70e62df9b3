"""Experiment orchestration: replicas x epsilon grid x attacks x settings.

Each replica draws a household split, fits the configured generators at each
epsilon, samples synthetic data, recovers structure, builds shadow weights,
scores every configured attack in three settings (auxiliary individuals,
target individuals, target households) and evaluates both activations.
Everything is deterministic given the master seed.
"""

import contextlib
import csv
import dataclasses
import hashlib
import inspect
import itertools
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
        obj = dict(_fields_of(cls, obj, "replicate config"))
        if "split" in obj:
            obj["split"] = SplitSpec(**_fields_of(SplitSpec, obj["split"], "split"))
        if "epsilons" in obj:
            obj["epsilons"] = tuple(parse_epsilon(e) for e in obj["epsilons"])
        for key in ("methods", "attacks"):
            if key in obj:
                obj[key] = tuple(obj[key])
        return cls(**obj)


def _fields_of(cls, obj, what):
    """obj, checked to be keyword arguments of dataclass cls; ConfigurationError if not."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(obj) - {f.name for f in fields})
    if unknown:
        raise ConfigurationError(f"{what}: unknown keys {unknown}")
    missing = [
        f.name for f in fields
        if f.name not in obj and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigurationError(f"{what}: missing keys {missing}")
    return obj


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
    """Materialize the auxiliary dataset described by the data config.

    ``{"kind": "csv", "path": file}`` reads a CSV; ``{"kind": "generate", ...}``
    passes its other keys to ``generate_households`` (50,000 rows unless
    ``n_rows`` says otherwise).
    """
    data = cfg.data
    if not isinstance(data, dict):
        raise ConfigurationError("data must be a JSON object")
    args = {k: v for k, v in data.items() if k != "kind"}
    kind = data.get("kind", "generate")
    if kind == "csv":
        if set(args) != {"path"} or not isinstance(args["path"], str):
            raise ConfigurationError('csv data is {"kind": "csv", "path": file}')
        return load_csv(args["path"])
    if kind != "generate":
        raise ConfigurationError(f"unknown data kind {kind!r}")
    params = inspect.signature(generate_households).parameters
    unknown = sorted(set(args) - set(params))
    if unknown:
        raise ConfigurationError(f"data: unknown keys {unknown}")
    for name, value in args.items():
        number = name == "resample_prob"
        if isinstance(value, bool) or not isinstance(value, (int, float) if number else int):
            raise ConfigurationError(f"data: {name} {value!r} is not {'a number' if number else 'an integer'}")
    return generate_households(**{"n_rows": 50000, **args})


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
    cells = itertools.product(range(len(cfg.methods)), range(len(cfg.epsilons)))
    return [row for cell in cells for row in _run_cell(cfg, aux, replica_index, *cell)]


def _run_cell(cfg, aux, replica_index, m_idx, e_idx):
    """Metric rows of one (method, epsilon) cell of a replica; cells share nothing but ``derive_seed``."""
    method, eps = cfg.methods[m_idx], cfg.epsilons[e_idx]
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

    def emit(setting, name, metrics):
        cell = (replica_index, method, format_epsilon(eps), setting, name)
        rows.extend(dict(zip(CSV_COLUMNS, (*cell, metric, value))) for metric, value in metrics.items())

    stage = derive_seed(rseed, 1 + m_idx * len(cfg.epsilons) + e_idx)
    dp = DpParams(eps, delta=cfg.delta, theta=cfg.theta, seed=derive_seed(stage, 0))
    model = sdg.fit(train, sdg.GeneratorConfig(method, dp))
    synth = sdg.sample(model, n_synth, derive_seed(stage, 1))
    ctx = _AttackContext(synth, aux, split.train_size, dp, derive_seed(stage, 3), model.structure, cfg.shadow_k)
    # the structure the attacks score with is the one whose recovery is reported
    rec = evaluation.recovery_metrics(model.structure, ctx.structure(method))
    emit("recovery", f"recover-{method}", rec.to_json())
    house_labels = _household_labels(target_households, target_labels)
    prior_aux, prior_tgt = float(aux_labels.mean()), float(target_labels.mean())
    for name in _attacks_for(cfg, method):
        sv_aux = score_attack(name, aux, ctx)
        sv_target = score_attack(name, target, ctx)
        sv_house = attack_mod.aggregate_households(sv_target, target_households)
        emit("aux-individuals", name, _setting_metrics(sv_aux, aux_labels, prior_aux, cfg.threshold))
        emit("target-individuals", name, _setting_metrics(sv_target, target_labels, prior_tgt, cfg.threshold))
        emit("target-households", name, _setting_metrics(sv_house, house_labels, 0.5, cfg.threshold))
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
    """Write metric rows to a temporary file beside ``path``, then move it there.

    ``run_experiment`` treats an existing replica file as done, so a run cut
    short while writing must leave no file at ``path``.
    """
    part = path + ".part"
    with open(part, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row["replica"], row["method"], row["epsilon"], row["setting"],
                row["attack"], row["metric"], f"{float(row['value']):.12g}",
            ])
    os.replace(part, path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_experiment(cfg):
    """Run all replicas, resumably, on every CPU of the affinity mask; returns the list of written files."""
    aux = load_aux(cfg)  # a bad data config fails before anything is written
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

    pending = [r for r in range(cfg.replicas) if not os.path.exists(_replica_path(cfg.out_dir, r))]
    with _replica_rows(cfg, aux, pending) as replicas:
        for r, rows in replicas:
            write_rows(rows, _replica_path(cfg.out_dir, r))

    paths = [meta_path, *(_replica_path(cfg.out_dir, r) for r in range(cfg.replicas))]
    summary = aggregate([row for path in paths[1:] for row in read_rows(path)])
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    paths.append(summary_path)
    return paths


@contextlib.contextmanager
def _replica_rows(cfg, aux, pending):
    """(replica, ``run_replica`` rows) of each pending replica, in order, each once its last cell returns.

    With one CPU in the affinity mask (or no mask to read) every replica runs through ``run_replica``
    here. Otherwise a fork pool of one process per CPU takes the (replica, method, epsilon) cells one
    at a time, costliest first (PrivBayes, then larger epsilon), while this process runs the first,
    so that a profiler here still records one whole cell.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    cells = list(itertools.product(range(len(cfg.methods)), range(len(cfg.epsilons))))
    order = sorted(cells, key=lambda c: (cfg.methods[c[0]] != sdg.METHOD_PRIVBAYES, -cfg.epsilons[c[1]]))
    tasks = [(r, *cell) for r in pending for cell in order]
    if min(cpus, len(tasks)) <= 1:
        yield ((r, run_replica(cfg, r, aux)) for r in pending)
        return
    import multiprocessing  # runs that never fan out do not pay for the import
    from concurrent.futures import ProcessPoolExecutor  # unlike Pool, fails rather than hangs if a worker dies
    global _worker_inputs
    _worker_inputs = (cfg, aux)  # fork: the workers inherit cfg and aux instead of unpickling them
    with ProcessPoolExecutor(min(cpus, len(tasks) - 1), multiprocessing.get_context("fork")) as pool:
        rest = pool.map(_worker_cell, tasks[1:])
        try:
            yield _gather(cells, tasks, itertools.chain([_run_cell(cfg, aux, *tasks[0])], rest))
        except BaseException:
            pool.shutdown(cancel_futures=True)  # wait for no queued cell of a failed run
            raise
        finally:
            _worker_inputs = None


def _gather(cells, tasks, results):
    done = {}
    for (r, *cell), rows in zip(tasks, results):
        done[tuple(cell)] = rows
        if len(done) == len(cells):
            yield r, [row for c in cells for row in done.pop(c)]


_worker_inputs = None  # (cfg, aux) while a pool runs


def _worker_cell(task):
    return _run_cell(*_worker_inputs, *task)


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
