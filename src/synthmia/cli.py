"""Command-line interface.

Subcommands mirror the pipeline stages: generate, recover, shadow, attack,
evaluate, replicate. Errors print machine-readable JSON on stderr and exit
nonzero.
"""

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import attack as attack_mod
from . import evaluation, harness, recovery, sdg
from .data import MEMBER_COLUMN, load_csv, write_csv
from .dp import DpParams, derive_seed
from .errors import ConfigurationError, ParseError, SynthmiaError


def _dp_from_args(args):
    return DpParams(epsilon=harness.parse_epsilon(args.epsilon), delta=args.delta, theta=args.theta)


def _write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def cmd_generate(args):
    train = load_csv(args.data)
    model = sdg.fit(train, args.method, _dp_from_args(args), args.seed)
    synth = sdg.sample(model, args.n_synth, derive_seed(args.seed, 1))
    os.makedirs(args.out, exist_ok=True)
    write_csv(synth, os.path.join(args.out, "synth.csv"))
    sdg.model_to_file(model, os.path.join(args.out, "model.json"))
    _write_json(model.structure.to_json(), os.path.join(args.out, "structure.json"))
    print(json.dumps({"synth": os.path.join(args.out, "synth.csv"), "rows": len(synth)}))


def cmd_recover(args):
    synth = load_csv(args.synth)
    structure = recovery.recover(synth, args.method, _dp_from_args(args), args.seed)
    _write_json(structure.to_json(), args.out)
    print(json.dumps({"structure": args.out}))


def cmd_shadow(args):
    aux = load_csv(args.aux)
    weights = recovery.shadow_weights(aux, args.method, _dp_from_args(args), args.seed, args.k, args.subset_size)
    _write_json(weights.to_json(), args.out)
    print(json.dumps({"weights": args.out, "total": weights.total()}))


def cmd_attack(args):
    attack_mod.check_activation(args.threshold, args.prior)  # before any file is read
    family, needs, _, fn = attack_mod.lookup(args.attack)
    inputs = ()
    if needs is not None:
        path = getattr(args, needs)  # --structure or --weights
        if not path:
            raise ConfigurationError(f"{args.attack} needs --{needs}")
        parse = sdg.Structure.from_json if needs == "structure" else recovery.ShadowWeights.from_json
        inputs = (parse(harness.read_json(path)),)
        if inputs[0].method != family:
            raise ConfigurationError(f"{args.attack} attacks {family} generators; {path} is {inputs[0].method}")
    # aux is the population superset, so its inferred domain covers the others
    aux = load_csv(args.aux)
    if needs == "structure":
        inputs[0].validate(len(aux.domain))
    target = load_csv(args.target, schema=aux.domain)
    synth = load_csv(args.synth, schema=aux.domain)
    log_scores = attack_mod.score_records(fn, target, *inputs, synth, aux)

    if args.prior is not None:
        probs, preds = attack_mod.activate_calibrated(log_scores, args.prior, args.threshold)
    else:
        probs, preds = attack_mod.activate_simple(log_scores, args.threshold)
    scores = np.exp(log_scores)

    header = ["record_id", "household_id", "raw_score", "probability", "prediction"]
    cols = [
        range(len(scores)),
        target.household_id.tolist() if target.household_id is not None else [-1] * len(scores),
        [f"{v:.12g}" for v in scores.tolist()],
        [f"{v:.12g}" for v in probs.tolist()],
        preds.tolist(),
    ]
    if target.membership_label is not None:
        header.append("label")
        cols.append(target.membership_label.tolist())
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))
    print(json.dumps({"scores": args.out, "records": len(scores)}))


def cmd_evaluate(args):
    with open(args.scores, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            records = [record for record in reader if record]  # blank lines are skipped
        except UnicodeDecodeError:
            raise ParseError(f"{args.scores}: not UTF-8 text") from None
        except csv.Error as exc:
            raise ParseError(f"{args.scores}: line {reader.line_num}: {exc}") from None
    if not records:
        raise ConfigurationError(f"{args.scores}: no score rows")
    if "label" not in header:
        raise ConfigurationError(f"{args.scores}: has no 'label' column ({MEMBER_COLUMN} missing upstream)")
    at = {name: c for c, name in enumerate(header)}  # a repeated name reads its last column
    columns = list(zip(*records))  # as many columns as the shortest row has cells; longer rows are accepted
    try:
        score, pred, label = (columns[at[name]] for name in ("raw_score", "prediction", "label"))
        scores = np.fromiter(map(float, score), np.float64, len(records))
        if np.isnan(scores).any():
            raise ValueError("nan")  # it would rank above every score
        preds = np.fromiter(map(int, pred), np.int64, len(records))
        labels = np.fromiter(map(int, label), np.int64, len(records))
    except (KeyError, IndexError, ValueError, OverflowError):
        # a missing column, a short row or a cell that is not a number
        raise ParseError(f"{args.scores}: needs numeric raw_score and integer prediction and label cells") from None
    out = {
        "auroc": evaluation.auroc(scores, labels),
        "balanced_accuracy": evaluation.balanced_accuracy(preds, labels),
        "n": len(records),
    }
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_replicate(args):
    obj = harness.read_json(args.config)
    if isinstance(obj, dict):  # from_json rejects any other value
        if args.out:
            obj["out_dir"] = args.out
        if args.seed is not None:
            obj["seed"] = args.seed
    cfg = harness.ExperimentConfig.from_json(obj)
    paths = harness.run_experiment(cfg)
    print(json.dumps({"files": paths}))


def _add_dp_args(p):
    p.add_argument("--method", choices=sdg.METHODS, default=sdg.METHOD_MST)
    p.add_argument("--epsilon", default="inf", help="privacy budget; 'inf' disables noise")
    p.add_argument("--delta", type=float, default=1e-9)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)


@functools.cache  # for callers that run main many times in one process; parsing leaves it as it was
def build_parser():
    parser = argparse.ArgumentParser(prog="synthmia", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="fit a generator and sample synthetic data")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--n-synth", type=int, default=10000)
    p.add_argument("--out", required=True, help="output directory")
    _add_dp_args(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("recover", help="estimate structure from synthetic data")
    p.add_argument("--synth", required=True)
    p.add_argument("--out", required=True)
    _add_dp_args(p)
    p.set_defaults(fn=cmd_recover)

    p = sub.add_parser("shadow", help="accumulate selection weights over shadow runs")
    p.add_argument("--aux", required=True)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--subset-size", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_dp_args(p)
    p.set_defaults(fn=cmd_shadow)

    p = sub.add_parser("attack", help="score records against synthetic data")
    p.add_argument("--attack", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--aux", required=True)
    p.add_argument("--structure", help="structure JSON from 'recover' or 'generate'")
    p.add_argument("--weights", help="shadow weights JSON from 'shadow'")
    p.add_argument("--prior", type=float, default=None, help="use calibrated activation with this prior")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("evaluate", help="metrics from a labeled scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("replicate", help="run the full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override output directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_replicate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except SynthmiaError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
