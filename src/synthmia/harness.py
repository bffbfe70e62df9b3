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
import functools
import hashlib
import inspect
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import attack as attack_mod
from . import evaluation, marginals, recovery, sdg
from .data import SplitSpec, generate_households, load_csv, snake_split_indices
from .dp import DpParams, derive_seed
from .errors import ConfigurationError, ParseError, ResumeMismatch

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
    methods: tuple = sdg.METHODS
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
        for name, (ok, must) in _FIELD_CHECKS.items():
            value = functools.reduce(getattr, name.split("."), self)
            if not ok(value):
                raise ConfigurationError(f"{name} {value!r} is not {must}")
        for name in self.attacks:
            attack_mod.lookup(name)
        fraction, n = self.split.member_fraction_of_households, self.split.n_target_households
        if not 0 < int(fraction * n) < n:  # snake_split_indices' member count; a prior needs both labels
            raise ConfigurationError(f"split.member_fraction_of_households {fraction!r} leaves no member "
                                     f"or no non-member among {n} target households")
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
        if isinstance(obj.get("epsilons"), list):
            obj["epsilons"] = [parse_epsilon(e) for e in obj["epsilons"]]
        return cls(**obj)


def _is(kind, test=lambda v: True):
    """A check that a value is a ``kind``, not a bool, and passes ``test``."""
    return lambda v: isinstance(v, kind) and not isinstance(v, bool) and test(v)


_INT, _NUMBER = _is(numbers.Integral), _is(numbers.Real)
_COUNT = (_is(numbers.Integral, lambda v: v >= 1), "an integer >= 1")
# config field (a split field as "split.<field>") -> (test, what it must be)
_FIELD_CHECKS = {
    "out_dir": (_is(str), "a path"),
    "replicas": _COUNT,
    # a repeated epsilon, method or attack would write its grid cells' rows twice
    "epsilons": (_is((list, tuple), lambda v: len(v) > 0 and all(_NUMBER(e) and e > 0 for e in v)
                     and len({format_epsilon(e) for e in v}) == len(v)),
                 "a list of positive numbers, no two alike as written (6 significant digits)"),
    "methods": (_is((list, tuple), lambda v: all(m in sdg.METHODS for m in v) and len(set(v)) == len(v)),
                f"a list of distinct methods out of {list(sdg.METHODS)}"),
    "attacks": (_is((list, tuple), lambda v: all(isinstance(a, str) for a in v) and len(set(v)) == len(v)),
                "a list of distinct attack names"),
    "cross_targeted": (lambda v: isinstance(v, bool), "true or false"),
    "shadow_k": _COUNT,
    "delta": (_is(numbers.Real, lambda v: 0 <= v < 1), "a number in [0, 1)"),
    "theta": (lambda v: v is None or _NUMBER(v) and v > 0, "null or a positive number"),
    "n_synth": (lambda v: v is None or _INT(v) and v >= 1, "null or an integer >= 1"),
    "seed": (_INT, "an integer"),
    "threshold": (_is(numbers.Real, lambda v: -math.inf < v < math.inf), "a finite number"),
    "split.n_target_households": _COUNT,
    "split.min_household_size": _COUNT,
    "split.train_size": _COUNT,
    "split.member_fraction_of_households": (_is(numbers.Real, lambda v: 0 <= v <= 1), "a number in [0, 1]"),
    "split.seed": (_is(numbers.Integral, lambda v: v == 0), "0: each replica's split seed derives from seed"),
}


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
    """An epsilon from its text form ("0.1", "inf"); any other value is returned as it is."""
    if not isinstance(value, str):
        return value
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(f"epsilon {value!r} is not a number") from None


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


_SETTINGS = ("aux-individuals", "target-individuals", "target-households")  # each attack is scored in all three


def _recovery_row(method):
    """The (setting, attack) of the one row that reports a ``method`` cell's structure recovery."""
    return "recovery", f"recover-{method}"


def _setting_metrics(log_scores, labels, prior, threshold):
    """AUROC plus balanced accuracy under both activation regimes."""
    _, preds_simple = attack_mod.activate_simple(log_scores, threshold)
    _, preds_cal = attack_mod.activate_calibrated(log_scores, prior, threshold)
    return {
        "auroc": evaluation.auroc(log_scores, labels),
        "balanced_accuracy_simple": evaluation.balanced_accuracy(preds_simple, labels),
        "balanced_accuracy_calibrated": evaluation.balanced_accuracy(preds_cal, labels),
    }


def _attacks_for(cfg, method):
    """(name, ``attack.lookup(name)``) of each configured attack that runs in a ``method`` cell."""
    out = []
    for name in cfg.attacks:
        entry = family, _, starred, _ = attack_mod.lookup(name)
        if starred and family != method:
            continue  # true-structure variants only apply to their own generator
        if cfg.cross_targeted or family in ("free", method):
            out.append((name, entry))
    return out


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
    target_households = aux.household_id[target_idx]
    aux_labels = np.zeros(len(aux), dtype=np.int64)
    aux_labels[train_idx] = 1
    n_synth = cfg.n_synth if cfg.n_synth is not None else split.train_size

    rows = []

    def emit(setting, name, metrics):
        cell = (replica_index, method, format_epsilon(eps), setting, name)
        rows.extend(dict(zip(CSV_COLUMNS, (*cell, metric, value))) for metric, value in metrics.items())

    stage = derive_seed(rseed, 1 + m_idx * len(cfg.epsilons) + e_idx)
    dp = DpParams(eps, delta=cfg.delta, theta=cfg.theta)
    model = sdg.fit(train, method, dp, derive_seed(stage, 0))
    synth = sdg.sample(model, n_synth, derive_seed(stage, 1))
    attacker = derive_seed(stage, 3)

    # each attacker input is computed once per family, and only when an attack takes it
    @functools.cache
    def structure(family):
        return recovery.recover(synth, family, dp, derive_seed(attacker, 1))

    @functools.cache
    def weights(family):
        subset_size = min(split.train_size, len(aux))
        return recovery.shadow_weights(aux, family, dp, derive_seed(attacker, 2), cfg.shadow_k, subset_size)

    # the structure the attacks score with is the one whose recovery is reported
    emit(*_recovery_row(method), evaluation.recovery_metrics(model.structure, structure(method)))
    house_labels = _household_labels(target_households, target_labels)
    prior_aux, prior_tgt = float(aux_labels.mean()), float(target_labels.mean())
    inputs = {"structure": structure, "weights": weights}
    for name, (family, needs, starred, fn) in _attacks_for(cfg, method):
        given = () if needs is None else (model.structure if starred else inputs[needs](family),)
        # a record's score depends on the record alone, so the targets' scores are a slice of aux's
        aux_logs = attack_mod.score_records(fn, aux, *given, synth, aux)
        target_logs = aux_logs[target_idx]
        house_logs = attack_mod.aggregate_households(target_logs, target_households)
        scored = ((aux_logs, aux_labels, prior_aux), (target_logs, target_labels, prior_tgt),
                  (house_logs, house_labels, 0.5))
        for setting, (logs, labels, prior) in zip(_SETTINGS, scored):
            emit(setting, name, _setting_metrics(logs, labels, prior, cfg.threshold))
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


@contextlib.contextmanager
def _replacing(path, newline=None):
    """A text file opened beside ``path``, moved there once the block ends: a cut run leaves no file at ``path``."""
    part = path + ".part"
    with open(part, "w", newline=newline, encoding="utf-8") as fh:
        yield fh
    os.replace(part, path)


def write_rows(rows, path):
    """Write metric rows to ``path`` through ``_replacing``."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([
                row["replica"], row["method"], row["epsilon"], row["setting"],
                row["attack"], row["metric"], f"{float(row['value']):.12g}",
            ])


def _row_keys(cfg, replica_index):
    """The (replica, method, epsilon, setting, attack) cells of the rows ``run_replica`` returns for ``cfg``."""
    keys = set()
    for method in cfg.methods:
        pairs = [(setting, name) for name, _ in _attacks_for(cfg, method) for setting in _SETTINGS]
        pairs.append(_recovery_row(method))
        keys.update((str(replica_index), method, format_epsilon(eps), *pair) for eps in cfg.epsilons for pair in pairs)
    return keys


def read_rows(path, keys):
    """The metric rows ``write_rows`` wrote to ``path``; ParseError, naming the file and line, for other content.

    A row's first five cells must be one of ``keys``, the replica's ``_row_keys``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(CSV_COLUMNS):
                raise ValueError(f"the header is not {','.join(CSV_COLUMNS)}")
            rows = []
            for record in reader:
                if len(record) != len(CSV_COLUMNS):
                    raise ValueError(f"{len(record)} fields, not {len(CSV_COLUMNS)}")
                float(record[-1])  # ValueError unless the value is a number
                if tuple(record[:-2]) not in keys:
                    raise ValueError(f"{','.join(record[:-2])} is not a row this configuration writes")
                rows.append(dict(zip(CSV_COLUMNS, record)))
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def read_json(path):
    """The JSON value in ``path``; ParseError, naming the file, if it holds none."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not JSON ({exc})") from None


def run_experiment(cfg):
    """Run all replicas, resumably, on every CPU of the affinity mask; returns the list of written files."""
    aux = load_aux(cfg)  # a bad data config fails before anything is written
    os.makedirs(cfg.out_dir, exist_ok=True)
    digest = config_hash(cfg)
    meta_path = os.path.join(cfg.out_dir, "config.json")
    if os.path.exists(meta_path):
        meta = read_json(meta_path)
        if not isinstance(meta, dict):
            raise ParseError(f"{meta_path}: not a JSON object")
        if meta.get("hash") != digest:
            raise ResumeMismatch(f"{cfg.out_dir} holds results for a different configuration")
    else:
        with _replacing(meta_path) as fh:
            json.dump({"hash": digest, "config": cfg.to_json()}, fh, indent=2, sort_keys=True)

    pending = [r for r in range(cfg.replicas) if not os.path.exists(_replica_path(cfg.out_dir, r))]
    with _replica_rows(cfg, aux, pending) as replicas:
        for r, rows in replicas:
            write_rows(rows, _replica_path(cfg.out_dir, r))

    paths = [meta_path, *(_replica_path(cfg.out_dir, r) for r in range(cfg.replicas))]
    summary = aggregate([row for r, path in enumerate(paths[1:]) for row in read_rows(path, _row_keys(cfg, r))])
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    with _replacing(summary_path) as fh:
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
    marginals.distinct(aux)  # computed once here, for every worker to inherit
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
