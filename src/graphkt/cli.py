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
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import engine as E
from .data import ColumnSchema, Response, ingest_csv, make_folds, preprocess
from .graphs import (GRAPH_VERSION, GraphBuildConfig, KcRelationGraphs,
                     build_graphs, export_graphs, import_graphs,
                     load_labeled_graphs)
from .model import BatchCache, GrktModel, HyperParams
from .synth import SynthConfig, generate, write_csv, write_ground_truth
from .train import (TrainConfig, bce_loss_node, cross_validate, evaluate,
                    lockstep, train_fold)

FORMAT_VERSIONS = {"graphs": GRAPH_VERSION,
                   "checkpoint": E.ParameterStore.VERSION, "manifest": 1}
TRACE_FIELDS = ("student", "seq_index", "step", "timestamp", "kc",
                "mastery_pre", "mastery_post", "predicted", "correct")


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


def _default(fn, name: str):
    """The default of `fn`'s parameter `name`, so a flag that feeds it
    states no default of its own."""
    return inspect.signature(fn).parameters[name].default


def _add_preprocess_flags(p):
    """How `preprocess` cuts the log; eval and trace read it from the
    checkpoint."""
    for name in ("seq_len", "min_len"):
        p.add_argument("--" + name.replace("_", "-"), type=int,
                       default=_default(preprocess, name))


# train's settings: every HyperParams field but dtype and every TrainConfig
# field but hp, each both a flag and a --config key named as its field,
# except the ablations, which keep the paper's names
_PAPER_NAMES = {"disable_stage3": "no_lf", "drop_similarity": "no_sim",
                "drop_prerequisite": "no_pre"}
_SETTINGS = {_PAPER_NAMES.get(f.name, f.name): (cls, f)
             for cls, skip in ((HyperParams, "dtype"), (TrainConfig, "hp"))
             for f in fields(cls) if f.name != skip}


def _add_settings_flags(p):
    """One flag per setting; None when absent, so that the --config file and
    then the dataclass default apply."""
    p.add_argument("--config", help="key = value file of train's settings")
    for key, (cls, f) in _SETTINGS.items():
        kind = {"action": "store_true"} if isinstance(f.default, bool) \
            else {"type": type(f.default)}
        p.add_argument("--" + key.replace("_", "-"), default=None,
                       help=f"{cls.__name__}.{f.name}, default {f.default}",
                       **kind)


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
        if key not in _SETTINGS:
            raise CliError(f"{path}:{line_no}: unknown key {key!r}")
        out[key] = (line_no, value)
    return out


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
    chosen: dict[type, dict] = {HyperParams: {}, TrainConfig: {}}
    for key, (cls, f) in _SETTINGS.items():
        value = getattr(args, key)
        if value is None and key in file_cfg:
            line_no, raw = file_cfg[key]
            where = f"{args.config}:{line_no}"
            try:
                value = _convert(raw, f.default)
            except ValueError:
                raise CliError(f"{where}: {key} = {raw!r} is not a valid "
                               f"{type(f.default).__name__}") from None
            try:
                cls(**{f.name: value})
            except ValueError as exc:
                raise CliError(f"{where}: {exc}") from None
        if value is not None:
            chosen[cls][f.name] = value
    return TrainConfig(hp=HyperParams(**chosen[HyperParams]),
                       **chosen[TrainConfig])


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


# the SynthConfig fields synth takes, each a flag named as its field
# without the n_ prefix
_SYNTH_FIELDS = ("seed", "n_students", "n_questions", "n_kcs", "seq_len_min",
                 "seq_len_max", "pre_density", "sim_density", "transfer",
                 "noise_smoothing", "mastery_noise")


def cmd_synth(args) -> int:
    cfg = SynthConfig(**{name: getattr(args, name.removeprefix("n_"))
                         for name in _SYNTH_FIELDS})
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
        if not indices:
            raise CliError(f"student {args.student!r} has fewer responses "
                           f"than the checkpoint's min_len "
                           f"({run['min_len']}): no sequence to trace")
    else:
        if not 0 <= args.seq < len(ds.sequences):
            raise CliError(f"--seq {args.seq}: valid sequence indices are "
                           f"0..{len(ds.sequences) - 1}")
        indices = [args.seq]
    out = _out_dir(args)

    # every selected sequence in one lockstep pass; one row per (step, KC)
    pre, post, scores = lockstep(model, ds, indices, run["disable_stage3"],
                                 "pre", "post", "scores")
    responses = [(ds.sequences[i].student, i, t, r.timestamp, r.correct)
                 for i in indices for t, r in enumerate(ds.sequences[i].real())]
    rows = [dict(zip(TRACE_FIELDS, (*head, kc, p, q, score, correct)))
            for (*head, correct), score, ps, qs in zip(
                responses, scores.tolist(), pre.tolist(), post.tolist())
            for kc, (p, q) in enumerate(zip(ps, qs))]

    with open(out / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRACE_FIELDS)
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
    if not 0 < args.tolerance < np.inf:
        raise CliError(f"--tolerance {args.tolerance}: must lie in (0, inf)")
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=args.seed)
    n_kcs, n_questions = 6, 5
    graphs = KcRelationGraphs(
        n_kcs, {(0, 1): 0.9, (2, 3): 0.8}, {(1, 2): 0.7, (4, 5): 0.9})
    model = GrktModel(hp, n_questions, n_kcs, graphs)
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.normal(0.0, 0.4, size=arr.shape)

    seqs = []
    ts = 0
    for length in (5, 3):  # uneven, so a memory block leaves the stack
        responses = []
        for _ in range(length):
            q = int(rng.integers(n_questions))
            kcs = tuple(rng.choice(n_kcs, size=int(rng.integers(1, 3)),
                                   replace=False).tolist())
            ts += int(rng.integers(30, 3000))
            responses.append(Response(q, kcs, int(rng.integers(2)), ts))
        seqs.append(responses)

    def build_loss(bound):
        # one lockstep batch loss, as train_fold builds it
        steps = model.steps(seqs, BatchCache(model, bound, "train"))
        return bce_loss_node([(step.a_hat,
                               np.array([r.correct for r in step.responses]))
                              for step in steps])

    report = E.grad_check(model.store, build_loss,
                          np.random.default_rng(args.seed),
                          n_coords=args.coords, h=1e-5,
                          tolerance=args.tolerance)
    print(report.summary())
    with open(out / "gradcheck.json", "w", encoding="utf-8") as fh:
        json.dump({"passed": report.passed, "checked": report.n_checked,
                   "atol_only": report.n_atol_only,
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
    defaults = SynthConfig()
    for name in _SYNTH_FIELDS:
        default = getattr(defaults, name)
        p.add_argument("--" + name.removeprefix("n_").replace("_", "-"),
                       type=type(default), default=default)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-graphs", help="mine or load relation graphs",
                       allow_abbrev=False)
    _add_data_flags(p)
    _add_preprocess_flags(p)
    p.add_argument("--out")
    p.add_argument("--eta", type=float, default=HyperParams.eta)
    p.add_argument("--min-cooccurrence", type=int,
                   default=GraphBuildConfig.min_cooccurrence)
    p.add_argument("--labels", help="expert-labeled relation CSV")
    p.add_argument("--min-confidence", type=float,
                   default=_default(load_labeled_graphs, "min_confidence"))
    p.set_defaults(func=cmd_build_graphs)

    p = sub.add_parser("train", help="train on one fold or cross-validate",
                       allow_abbrev=False)
    _add_data_flags(p)
    _add_preprocess_flags(p)
    _add_settings_flags(p)
    p.add_argument("--out")
    p.add_argument("--graphs", help="pre-built graph file (default: mine)")
    p.add_argument("--fold", default="0", help="fold index or 'all'")
    p.add_argument("--k", type=int, default=_default(make_folds, "k"))
    p.add_argument("--val-frac", type=float,
                   default=_default(make_folds, "val_frac"))
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
