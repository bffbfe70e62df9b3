"""Traced runs: spans around the public functions of each synthmia module.

The tracer wraps functions from outside the program. A function imported by
name into another module (``from .data import load_csv`` in cli and
harness) is replaced there too, because every loaded synthmia module is
searched for the original object. Spans are kept in memory and written out
once the traced operation has ended.

Self time is a span's duration minus the durations of its direct child
spans; the program is single-threaded, so children never overlap.
"""

import itertools
import json
import time

SERIAL_ATTR = "_perfbench_serial"


def _len_result(args, kwargs, result):
    return len(result)


def _len_first(args, kwargs, result):
    return len(args[0])


# (module, function, span name, work counted per call)
TARGETS = [
    ("data", "load_csv", "data.load_csv", _len_result),
    ("data", "write_csv", "data.write_csv", _len_first),
    ("data", "generate_households", "data.generate_households", None),
    ("data", "snake_split_indices", "data.snake_split_indices", None),
    ("marginals", "counts", "marginals.counts", _len_first),
    ("dp", "exponential_mechanism", "dp.exponential_mechanism", None),
    ("sdg", "fit_mst", "sdg.fit_mst", None),
    ("sdg", "fit_privbayes", "sdg.fit_privbayes", None),
    ("sdg", "sample", "sdg.sample", None),
    ("sdg", "mst_edge_score", "sdg.mst_edge_score", None),
    ("sdg", "privbayes_score", "sdg.privbayes_score", None),
    ("recovery", "recover_tree", "recovery.recover_tree", None),
    ("recovery", "recover_bayesnet", "recovery.recover_bayesnet", None),
    ("recovery", "shadow_weights", "recovery.shadow_weights", None),
    ("attack", "activate_simple", "attack.activate", None),
    ("attack", "activate_calibrated", "attack.activate", None),
    ("attack", "aggregate_households", "attack.aggregate_households", None),
    ("evaluation", "auroc", "evaluation.auroc", _len_first),
    ("evaluation", "balanced_accuracy", "evaluation.balanced_accuracy", None),
    ("harness", "run_replica", "harness.run_replica", None),
    ("harness", "write_rows", "harness.write_rows", None),
    ("harness", "read_rows", "harness.read_rows", None),
    ("harness", "aggregate", "harness.aggregate", None),
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_recover", "cli.recover", None),
    ("cli", "cmd_shadow", "cli.shadow", None),
    ("cli", "cmd_attack", "cli.attack", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
]
ATTACK_FUNCTIONS = (
    "tamis_mst", "tamis_pb", "mamamia_mst", "mamamia_pb", "hybrid_mst", "hybrid_pb",
    "tamis_mst_avg", "marginals_sigma", "marginals_pi",
)
TARGETS += [("attack", fn, f"attack.{fn}", _len_first) for fn in ATTACK_FUNCTIONS]

# per-layer metrics: (name, unit, better)
METRICS = [
    ("data.load_csv.self_s", "s", "lower"),
    ("data.load_csv.rows", "rows", "lower"),
    ("data.write_csv.self_s", "s", "lower"),
    ("data.write_csv.rows", "rows", "lower"),
    ("data.generate_households.self_s", "s", "lower"),
    ("data.snake_split_indices.self_s", "s", "lower"),
    ("data.subset.self_s", "s", "lower"),
    ("marginals.counts.calls", "count", "lower"),
    ("marginals.counts.self_s", "s", "lower"),
    ("marginals.counts.rows", "rows", "lower"),
    ("marginals.counts.unique_ratio", "ratio", "higher"),
    ("dp.exponential_mechanism.calls", "count", "lower"),
    ("dp.exponential_mechanism.self_s", "s", "lower"),
    ("sdg.fit_mst.self_s", "s", "lower"),
    ("sdg.fit_privbayes.self_s", "s", "lower"),
    ("sdg.sample.self_s", "s", "lower"),
    ("sdg.mst_edge_score.calls", "count", "lower"),
    ("sdg.mst_edge_score.self_s", "s", "lower"),
    ("sdg.privbayes_score.calls", "count", "lower"),
    ("sdg.privbayes_score.self_s", "s", "lower"),
    ("recovery.recover_tree.self_s", "s", "lower"),
    ("recovery.recover_bayesnet.self_s", "s", "lower"),
    ("recovery.shadow_weights.self_s", "s", "lower"),
    ("attack.score.self_s", "s", "lower"),
    ("attack.score.rows", "rows", "lower"),
    *[(f"attack.{fn}.self_s", "s", "lower") for fn in ATTACK_FUNCTIONS],
    ("attack.activate.self_s", "s", "lower"),
    ("attack.aggregate_households.self_s", "s", "lower"),
    ("evaluation.auroc.calls", "count", "lower"),
    ("evaluation.auroc.n", "count", "lower"),
    ("evaluation.auroc.self_s", "s", "lower"),
    ("evaluation.balanced_accuracy.self_s", "s", "lower"),
    ("harness.run_replica.self_s", "s", "lower"),
    ("harness.write_rows.self_s", "s", "lower"),
    ("harness.read_rows.self_s", "s", "lower"),
    ("harness.aggregate.self_s", "s", "lower"),
    ("cli.generate.self_s", "s", "lower"),
    ("cli.recover.self_s", "s", "lower"),
    ("cli.shadow.self_s", "s", "lower"),
    ("cli.attack.self_s", "s", "lower"),
    ("cli.evaluate.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.amount = []  # (span index, work) per call of a function that counts work
        self.count_keys = []  # (dataset serial, attrs) per marginals.counts call
        self._stack = []
        self._serials = itertools.count()

    def install(self, sm):
        """Wrap the TARGETS functions of a freshly imported synthmia package."""
        modules = [m for m in vars(sm).values() if getattr(m, "__name__", "").startswith("synthmia.")]
        for mod_name, fn_name, span, amount in TARGETS:
            original = getattr(getattr(sm, mod_name), fn_name)
            wrapped = self._wrap(span, original, amount)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        dataset = sm.data.Dataset
        dataset.subset = self._wrap("data.subset", dataset.subset, None)

    def _serial(self, ds):
        # Dataset is frozen; a serial on the object, unlike id(), is never
        # reused by a later dataset after a shadow subset is freed
        serial = ds.__dict__.get(SERIAL_ATTR)
        if serial is None:
            serial = next(self._serials)
            object.__setattr__(ds, SERIAL_ATTR, serial)
        return serial

    def _wrap(self, span, fn, amount):
        stack = self._stack
        keyed = span == "marginals.counts"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(span)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            if keyed:
                self.count_keys.append((self._serial(args[0]), tuple(args[1])))
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if amount is not None:
                self.amount.append((idx, amount(args, kwargs, result)))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, overhead_s):
        """Per-layer metrics as {name: value}, every name in METRICS."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s, calls, work = {}, {}, {}
        for i in range(n):
            name = self.name[i]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
        for idx, value in self.amount:
            work[self.name[idx]] = work.get(self.name[idx], 0) + value
        attack_spans = [f"attack.{fn}" for fn in ATTACK_FUNCTIONS]
        self_s["attack.score"] = sum(self_s.get(s, 0.0) for s in attack_spans)
        work["attack.score"] = sum(work.get(s, 0) for s in attack_spans)
        n_counts = len(self.count_keys)
        derived = {
            "unique_ratio": {"marginals.counts": len(set(self.count_keys)) / n_counts if n_counts else 0.0},
            "self_s": self_s,
            "calls": calls,
            "rows": work,
            "n": work,
        }
        out = {}
        for name, _, _ in METRICS:
            if name == "trace.overhead_s":
                out[name] = overhead_s
                continue
            span, quantity = name.rsplit(".", 1)
            out[name] = derived[quantity].get(span, 0)
        return out

    def write(self, path):
        """Write every span (name, parent index, start, end) as JSON columns."""
        names = sorted(set(self.name))
        code = {name: i for i, name in enumerate(names)}
        obj = {
            "names": names,
            "name": [code[name] for name in self.name],
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
