"""Benchmark command for synthmia.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports synthmia from its ``src``
directory. With ``--trace 0`` it repeats the workload's operation until
``--seconds`` of operation time have passed, sets the workload up several
times before each repetition, checks the outputs of every repetition and
reports the end-to-end metrics: the median wall and CPU time of one
operation and the median set-up time, each measured against a reference
compile timed alongside (see REFERENCE_SECONDS), and the peak resident
memory over set-up and the first operation.
With ``--trace 1`` it runs the operation once untraced and once traced, and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; details go to standard error. Outputs are written under
``.perfbench_out/`` in the checkout.
"""

import os
import sys

# one process, no worker threads: keep numerical libraries single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# no run leaves bytecode caches in the checkout
sys.dont_write_bytecode = True

import argparse
import gc
import json
import resource
import signal
import statistics
import time

import checks
import tracing
import workloads

OUT = os.path.join(workloads.ROOT, ".perfbench_out")

# The machine alternates between a fast and a slow state, each lasting
# seconds to minutes; in the slow one a set-up (mostly compiling synthmia's
# sources) takes about half as long again, and an operation up to 40% longer.
# Compiling a fixed text, the benchmark's own modules, slows by about the same
# share. So each set-up is timed right after that reference compile, and the
# reference is timed every SAMPLE_INTERVAL seconds during an operation; the
# end-to-end times are reported as ratios to the reference in units of
# REFERENCE_SECONDS, the reference's time in the fast state of a 2-vCPU
# 2.1 GHz VM, that is, as seconds in that state.
REFERENCE_SECONDS = 0.0090
SAMPLE_INTERVAL = 0.5


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


REFERENCE_SOURCE = "\n".join(read_text(module.__file__) for module in (checks, tracing, workloads))


def cpu_seconds():
    """User + system CPU time of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb():
    """High-water mark of this process's resident memory."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message):
    print(message, file=sys.stderr, flush=True)


def reference_seconds():
    t0 = time.perf_counter()
    compile(REFERENCE_SOURCE, "<reference>", "exec")
    return time.perf_counter() - t0


def timed_setup(workload, seed, workdir, after_import=None):
    """One set-up: (its seconds, seconds of the reference compile just before it)."""
    # each set-up re-imports synthmia; collecting the previous copy keeps it
    # out of the timing and out of peak_rss_mb
    gc.collect()
    ref = reference_seconds()
    # During set-up Python looks for bytecode in an empty directory, so it
    # ignores any __pycache__ under src/ (the tests write one) and compiles
    # synthmia as in a fresh checkout.
    sys.pycache_prefix = os.path.join(OUT, "no-pycache")
    t0 = time.perf_counter()
    try:
        workload.setup(seed, workdir, after_import)
    finally:
        sys.pycache_prefix = None
    return time.perf_counter() - t0, ref


def timed_run(workload):
    """One repetition of the operation: (outcome, wall s, cpu s, reference s).

    A timer signal times the reference compile every SAMPLE_INTERVAL seconds
    of the operation; it is timed once more after the operation, and the
    median of these samples is returned. The samples' own time is taken out
    of the wall and CPU times.
    """
    workload.reset()
    gc.collect()
    refs = []
    signal.signal(signal.SIGALRM, lambda signum, frame: refs.append(reference_seconds()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        outcome = workload.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sampling = sum(refs)
    wall, cpu = time.perf_counter() - t0 - sampling, cpu_seconds() - c0 - sampling
    refs.append(reference_seconds())
    return outcome, wall, cpu, statistics.median(refs)


def measure(name, seed, seconds):
    workdir = os.path.join(OUT, name)
    workload = workloads.WORKLOADS[name]()
    setups, walls, cpus, refs, errors = [], [], [], [], []
    attempted = failed = 0
    while not walls or sum(walls) < seconds:
        # set-ups spread over the whole run, as operations are
        setups += [timed_setup(workload, seed, workdir) for _ in range(workload.setup_repeats)]
        outcome, wall, cpu, ref = timed_run(workload)
        if not walls:
            # before any check runs, so the checks' own memory is not counted
            peak_mb = peak_rss_mb()
        walls.append(wall)
        cpus.append(cpu)
        refs.append(ref)
        attempted += outcome.attempted
        failed += outcome.failed
        errors += workload.check(outcome)
        log(f"{name}: operation {len(walls)}: wall {wall:.3f} s, cpu {cpu:.3f} s, reference {ref:.4f} s, "
            f"failed {outcome.failed}/{outcome.attempted}")
    log(f"{name}: raw medians: wall {statistics.median(walls):.3f} s, cpu {statistics.median(cpus):.3f} s, "
        f"set-up {statistics.median(s for s, _ in setups):.4f} s, "
        f"set-up reference {statistics.median(r for _, r in setups):.4f} s")
    metrics = {
        "wall_s": (REFERENCE_SECONDS * statistics.median(w / r for w, r in zip(walls, refs)), "s"),
        "cpu_s": (REFERENCE_SECONDS * statistics.median(c / r for c, r in zip(cpus, refs)), "s"),
        "setup_s": (REFERENCE_SECONDS * statistics.median(s / r for s, r in setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return errors, attempted, failed, metrics


def measure_traced(name, seed):
    workdir = os.path.join(OUT, name)
    workload = workloads.WORKLOADS[name]()
    timed_setup(workload, seed, workdir)
    outcome, untraced_wall, _, _ = timed_run(workload)
    errors = workload.check(outcome)
    attempted, failed = outcome.attempted, outcome.failed

    tracer = tracing.Tracer()
    timed_setup(workload, seed, workdir, tracer.install)
    outcome, traced_wall, _, _ = timed_run(workload)
    errors += workload.check(outcome)
    attempted += outcome.attempted
    failed += outcome.failed
    log(f"{name}: untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s, {len(tracer.name)} spans")
    trace_path = os.path.join(workdir, f"trace-seed{seed}.json")
    tracer.write(trace_path)
    log(f"{name}: spans written to {trace_path}")
    units = {metric: unit for metric, unit, _ in tracing.METRICS}
    values = tracer.metrics(traced_wall - untraced_wall)
    metrics = {metric: (value, units[metric]) for metric, value in values.items()}
    return errors, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "synthmia", "__init__.py")):
        log(f"error: no synthmia sources under {workloads.SRC}")
        return 2
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    # load synthmia's dependencies (numpy, ...) once, untimed
    workloads.import_synthmia()
    if args.trace:
        errors, attempted, failed, metrics = measure_traced(args.workload, args.seed)
    else:
        errors, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds)
    for error in errors:
        log(f"check failed: {error}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
