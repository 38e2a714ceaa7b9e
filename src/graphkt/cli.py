"""Command-line entry point.

Subcommands wire the modules together: `synth` generates a corpus, `build-graphs`
mines relation graphs, `train` fits a model on one fold (or cross-validates),
`eval` scores a checkpoint, `trace` exports per-KC mastery curves and
`gradcheck` verifies analytic gradients against finite differences.

Every run writes a manifest.json (argv, parsed arguments, seed, format
versions) into its output directory; `train`'s also holds the resolved
`TrainConfig`, so results are reproducible from the manifest alone. The
default output root comes from GRAPHKT_OUT (falling back to the current
directory).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import engine as E
from .data import (ColumnSchema, ingest_csv, make_folds, preprocess)
from .graphs import (GRAPH_VERSION, GraphBuildConfig, KcRelationGraphs,
                     build_graphs, export_graphs, import_graphs,
                     load_labeled_graphs)
from .model import BatchCache, GrktModel, HyperParams, trace_rows
from .synth import SynthConfig, generate, write_csv, write_ground_truth
from .train import TrainConfig, cross_validate, evaluate, train_fold

FORMAT_VERSIONS = {"graphs": GRAPH_VERSION,
                   "checkpoint": E.ParameterStore.VERSION, "manifest": 1}


class CliError(RuntimeError):
    pass


def _out_dir(args) -> Path:
    """Create the output directory; called after every input check passed."""
    root = os.environ.get("GRAPHKT_OUT", ".")
    out = Path(args.out) if args.out else Path(root) / args.command
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, extra=None) -> None:
    doc = {
        "manifest_version": FORMAT_VERSIONS["manifest"],
        "command": args.command,
        "argv": sys.argv[1:],
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k != "command"},
        "format_versions": FORMAT_VERSIONS,
        "timestamp": int(time.time()),
    }
    if extra:
        doc.update(extra)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, default=str)


def _load_data(args, seq_len, min_len):
    ds = ingest_csv(args.data, ColumnSchema(
        student=args.col_student, question=args.col_question,
        kcs=args.col_kcs, correct=args.col_correct,
        timestamp=args.col_timestamp, kc_delimiter=args.kc_delimiter,
        timestamp_is_order=args.timestamp_is_order))
    return preprocess(ds, seq_len=seq_len, min_len=min_len)


def _add_data_flags(p):
    """--data and the CSV schema: what every reader of a log takes."""
    p.add_argument("--data", required=True, help="response log CSV")
    p.add_argument("--col-student", default="student_id")
    p.add_argument("--col-question", default="question_id")
    p.add_argument("--col-kcs", default="kc_ids")
    p.add_argument("--col-correct", default="correct")
    p.add_argument("--col-timestamp", default="timestamp")
    p.add_argument("--kc-delimiter", default=";")
    p.add_argument("--timestamp-is-order", action="store_true",
                   help="treat the timestamp column as an ordering rank")


def _add_preprocess_flags(p):
    """How `preprocess` cuts the log; eval and trace read it from the
    checkpoint."""
    p.add_argument("--seq-len", type=int, default=100)
    p.add_argument("--min-len", type=int, default=10)


def _add_hyper_flags(p):
    p.add_argument("--config", help="key = value file with TrainConfig fields")
    p.add_argument("--d-e", type=int)
    p.add_argument("--d-k", type=int)
    p.add_argument("--d-h", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--no-lf", action="store_true",
                   help="disable the learning/forgetting stage")
    p.add_argument("--no-sim", action="store_true",
                   help="drop the similarity relation")
    p.add_argument("--no-pre", action="store_true",
                   help="drop the prerequisite relation")
    p.add_argument("--use-full-graphs", action="store_true",
                   help="mine graphs from the whole dataset, not the fold")


def _parse_config_file(path) -> dict[str, tuple[int, str]]:
    """`key = value` lines as {key: (line number, raw value)}.

    A key that `train` does not read fails with the file and line.
    """
    out = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _HYPER_FIELDS and key not in _TRAIN_FIELDS:
            raise CliError(f"{path}:{line_no}: unknown key {key!r}")
        out[key] = (line_no, value)
    return out


# the options `train` reads from flags or a --config file: HyperParams
# fields, and TrainConfig fields keyed by their flag's name
_HYPER_FIELDS = ("d_e", "d_k", "d_h", "layers", "lr", "l2", "eta", "seed",
                 "batch_size", "patience")
_TRAIN_FIELDS = {"max_epochs": "max_epochs", "no_lf": "disable_stage3",
                 "no_sim": "drop_similarity", "no_pre": "drop_prerequisite",
                 "use_full_graphs": "use_full_graphs",
                 "min_cooccurrence": "min_cooccurrence"}
_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _convert(raw: str, default):
    """Read a config value as the type of its default; ValueError if it fails."""
    if isinstance(default, bool):
        if raw.lower() not in _BOOLEANS:
            raise ValueError(raw)
        return _BOOLEANS[raw.lower()]
    return type(default)(raw)


def _train_config(args) -> TrainConfig:
    """CLI flags over --config values over the dataclass defaults.

    A file value that does not convert, or that its dataclass rejects, fails
    with the file and line.
    """
    file_cfg = _parse_config_file(args.config) if args.config else {}

    def pick(cls, key, name):
        arg = getattr(args, key, None)
        if arg is not None and arg is not False:
            return arg
        default = getattr(cls(), name)
        if key not in file_cfg:
            return default
        line_no, raw = file_cfg[key]
        where = f"{args.config}:{line_no}"
        try:
            value = _convert(raw, default)
        except ValueError:
            raise CliError(f"{where}: {key} = {raw!r} is not a valid "
                           f"{type(default).__name__}") from None
        try:
            cls(**{name: value})
        except ValueError as exc:
            raise CliError(f"{where}: {exc}") from None
        return value

    hp = HyperParams(**{key: pick(HyperParams, key, key)
                        for key in _HYPER_FIELDS})
    return TrainConfig(hp=hp, **{name: pick(TrainConfig, key, name)
                                 for key, name in _TRAIN_FIELDS.items()})


def _load_checkpoint(args):
    """The model, its run, and --data preprocessed as the run preprocessed it.

    The model must cover the data's ids.
    """
    model, run = GrktModel.load(args.checkpoint)
    ds = _load_data(args, run["seq_len"], run["min_len"])
    if (model.n_kcs, model.n_questions) != (ds.n_kcs, ds.n_questions):
        raise CliError(f"{args.checkpoint}: the model covers {model.n_kcs} "
                       f"KCs and {model.n_questions} questions, the data has "
                       f"{ds.n_kcs} KCs and {ds.n_questions} questions")
    return model, run, ds


# -- subcommands ---------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        n_kcs=args.kcs, n_questions=args.questions, n_students=args.students,
        seq_len_min=args.seq_len_min, seq_len_max=args.seq_len_max,
        pre_density=args.pre_density, sim_density=args.sim_density,
        transfer=args.transfer, noise_smoothing=args.noise_smoothing,
        mastery_noise=args.mastery_noise, seed=args.seed,
    )
    out = _out_dir(args)
    result = generate(cfg)
    write_csv(result, out / "data.csv")
    write_ground_truth(result, out / "truth.json")
    export_graphs(result.graphs, out / "planted_graphs.txt")
    _write_manifest(out, args)
    print(f"wrote {out / 'data.csv'} "
          f"({len(result.dataset.sequences)} students)")
    return 0


def cmd_build_graphs(args) -> int:
    ds = _load_data(args, args.seq_len, args.min_len)
    if args.labels:
        graphs = load_labeled_graphs(args.labels,
                                     min_confidence=args.min_confidence,
                                     n_kcs=ds.n_kcs)
        out = _out_dir(args)
    else:
        mining = GraphBuildConfig(eta=args.eta,
                                  min_cooccurrence=args.min_cooccurrence)
        out = _out_dir(args)
        graphs = build_graphs(ds, mining)
    export_graphs(graphs, out / "graphs.txt")
    _write_manifest(out, args, {"sparsity": graphs.sparsity()})
    sp = graphs.sparsity()
    print(f"wrote {out / 'graphs.txt'} "
          f"(sparsity P={sp['P']:.4f} R={sp['R']:.4f})")
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(args)  # a bad config fails before any work
    ds = _load_data(args, args.seq_len, args.min_len)
    graphs = import_graphs(args.graphs) if args.graphs else None
    if graphs is not None and graphs.n_kcs != ds.n_kcs:
        raise CliError(f"graph file covers {graphs.n_kcs} KCs, "
                       f"dataset has {ds.n_kcs}")
    # cross-validation splits the same folds; making them checks --k for both
    folds = make_folds(ds, k=args.k, val_frac=args.val_frac, seed=cfg.hp.seed)
    if args.fold not in {"all", *map(str, range(len(folds)))}:
        raise CliError(f"--fold {args.fold}: valid folds are "
                       f"0..{len(folds) - 1} or 'all'")
    fold = None if args.fold == "all" else folds[int(args.fold)]
    out = _out_dir(args)

    if fold is None:
        report = cross_validate(ds, cfg, k=args.k, graphs=graphs,
                                val_frac=args.val_frac)
        with open(out / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        _write_manifest(out, args, {"train_config": asdict(cfg)})
        for key, value in report.mean.items():
            print(f"{key}: {value:.4f} +/- {report.std[key]:.4f}")
        return 0

    model, report = train_fold(ds, fold, cfg, graphs=graphs)
    model.save(out / "checkpoint.npz", disable_stage3=cfg.disable_stage3,
               seq_len=args.seq_len, min_len=args.min_len, k=args.k,
               val_frac=args.val_frac, fold=fold.fold)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    _write_manifest(out, args, {"train_config": asdict(cfg)})
    for key, value in report.test_metrics.items():
        print(f"test {key}: {value:.4f}")
    return 0


def cmd_eval(args) -> int:
    model, run, ds = _load_checkpoint(args)
    cfg = TrainConfig(hp=model.hp, disable_stage3=run["disable_stage3"])
    if args.fold == "all":
        indices = range(len(ds.sequences))
    else:  # the fold train held out, split as train split it
        indices = make_folds(ds, k=run["k"], val_frac=run["val_frac"],
                             seed=model.hp.seed)[run["fold"]].test
    out = _out_dir(args)
    report = evaluate(model, ds, indices, cfg)
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    _write_manifest(out, args)
    for key, value in report.to_dict().items():
        print(f"{key}: {value:.4f}")
    return 0


def cmd_trace(args) -> int:
    model, run, ds = _load_checkpoint(args)

    if args.student is not None:
        if args.student not in ds.students.to_dense:
            raise CliError(f"unknown student id {args.student!r}")
        sid = ds.students.to_dense[args.student]
        indices = [i for i, s in enumerate(ds.sequences) if s.student == sid]
    else:
        if not 0 <= args.seq < len(ds.sequences):
            raise CliError(f"--seq {args.seq}: valid sequence indices are "
                           f"0..{len(ds.sequences) - 1}")
        indices = [args.seq]
    out = _out_dir(args)

    rows = []
    with E.no_grad():
        _, cache = model.begin("eval")
        for idx in indices:
            res = model.forward_sequence(ds.sequences[idx], cache,
                                         seq_index=idx, emit_trace=True,
                                         disable_stage3=run["disable_stage3"])
            rows.extend(trace_rows(res.trace))

    with open(out / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "student", "seq_index", "step", "timestamp", "kc",
            "mastery_pre", "mastery_post", "predicted", "correct"])
        writer.writeheader()
        writer.writerows(rows)
    with open(out / "trace.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
    _write_manifest(out, args)
    print(f"wrote {out / 'trace.csv'} ({len(rows)} rows)")
    return 0


def cmd_gradcheck(args) -> int:
    if args.coords < 1:
        raise CliError(f"--coords {args.coords}: must be at least 1")
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed or 0)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=args.seed or 0)
    n_kcs, n_questions = 6, 5
    graphs = KcRelationGraphs(
        n_kcs, {(0, 1): 0.9, (2, 3): 0.8}, {(1, 2): 0.7, (4, 5): 0.9})
    model = GrktModel(hp, n_questions, n_kcs, graphs)
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.normal(0.0, 0.4, size=arr.shape)

    from .data import Response, ResponseSequence
    from .train import bce_loss_node
    seqs = []
    ts = 0
    for s in range(2):
        responses = []
        for t in range(5):
            q = int(rng.integers(n_questions))
            kcs = tuple(sorted(rng.choice(n_kcs, size=int(rng.integers(1, 3)),
                                          replace=False).tolist()))
            ts += int(rng.integers(30, 3000))
            responses.append(Response(q, kcs, int(rng.integers(2)), ts))
        seqs.append(ResponseSequence(s, responses, 5))

    def build_loss(bound):
        cache = BatchCache(model, bound, "train")
        preds = []
        for seq in seqs:
            preds.extend(model.forward_sequence(seq, cache).preds)
        return bce_loss_node(preds)

    report = E.grad_check(model.store, build_loss,
                          np.random.default_rng(args.seed or 0),
                          n_coords=args.coords, h=1e-5,
                          tolerance=args.tolerance)
    print(report.summary())
    with open(out / "gradcheck.json", "w", encoding="utf-8") as fh:
        json.dump({"passed": report.passed, "checked": report.n_checked,
                   "skipped": report.n_skipped,
                   "max_rel_err": report.max_rel_err,
                   "groups": report.group_errors}, fh, indent=2)
    _write_manifest(out, args)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphkt",
        description="Graph-based knowledge tracing: train, evaluate and "
                    "export mastery traces.")
    # no subcommand takes abbreviations, so an option it lacks is refused
    # rather than read as one it has (--k as --kc-delimiter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus",
                       allow_abbrev=False)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--students", type=int, default=100)
    p.add_argument("--questions", type=int, default=200)
    p.add_argument("--kcs", type=int, default=50)
    p.add_argument("--seq-len-min", type=int, default=20)
    p.add_argument("--seq-len-max", type=int, default=40)
    p.add_argument("--pre-density", type=float, default=0.04)
    p.add_argument("--sim-density", type=float, default=0.04)
    p.add_argument("--transfer", type=float, default=0.5)
    p.add_argument("--noise-smoothing", type=int, default=0)
    p.add_argument("--mastery-noise", type=float, default=0.7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graphs", help="mine or load relation graphs",
                       allow_abbrev=False)
    _add_data_flags(p)
    _add_preprocess_flags(p)
    p.add_argument("--out")
    p.add_argument("--eta", type=float, default=0.6)
    p.add_argument("--min-cooccurrence", type=int, default=10)
    p.add_argument("--labels", help="expert-labeled relation CSV")
    p.add_argument("--min-confidence", type=float, default=5.0)
    p.set_defaults(func=cmd_build_graphs)

    p = sub.add_parser("train", help="train on one fold or cross-validate",
                       allow_abbrev=False)
    _add_data_flags(p)
    _add_preprocess_flags(p)
    _add_hyper_flags(p)
    p.add_argument("--out")
    p.add_argument("--graphs", help="pre-built graph file (default: mine)")
    p.add_argument("--seed", type=int)
    p.add_argument("--fold", default="0", help="fold index or 'all'")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    # eval and trace take the model, its relation graphs, its ablations and
    # its data split from the checkpoint
    p = sub.add_parser("eval", help="evaluate a checkpoint", allow_abbrev=False)
    _add_data_flags(p)
    p.add_argument("--out")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--fold", choices=("test", "all"), default="all",
                   help="the fold train held out, or every sequence")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("trace", help="export per-KC mastery curves",
                       allow_abbrev=False)
    _add_data_flags(p)
    p.add_argument("--out")
    p.add_argument("--checkpoint", required=True)
    who = p.add_mutually_exclusive_group(required=True)
    who.add_argument("--student", help="original student id")
    who.add_argument("--seq", type=int, help="sequence index")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences",
                       allow_abbrev=False)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
