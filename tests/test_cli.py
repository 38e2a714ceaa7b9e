"""End-to-end command-line pipeline on a small synthetic corpus."""

import csv
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from graphkt import engine as E
from graphkt import metrics
from graphkt.cli import CliError, _train_config, build_parser, run
from graphkt.data import ingest_csv, make_folds, preprocess
from graphkt.graphs import (GRAPH_VERSION, GraphBuildConfig, KcRelationGraphs,
                            build_graphs, format_graphs, import_graphs)
from graphkt.model import GrktModel, HyperParams
from graphkt.train import TrainConfig
from tests.oracles import trace_alone, trace_rows
from tests.test_engine import REJECTED_CHECKPOINTS


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_flag_rejected():
    assert run(["synth", "--bogus-flag", "1"]) == 2


def test_unknown_command_rejected():
    assert run(["explode"]) == 2


# an abbreviation of an option each subcommand has
@pytest.mark.parametrize("argv", [
    ["synth", "--stud", "3"],
    ["build-graphs", "--data", "log.csv", "--min-co", "3"],
    ["train", "--data", "log.csv", "--lay", "3"],
    ["eval", "--data", "log.csv", "--checkpoint", "ck.npz", "--col-stud", "s"],
    ["trace", "--data", "log.csv", "--checkpoint", "ck.npz", "--se", "0"],
    ["gradcheck", "--coord", "3"],
], ids=lambda argv: argv[0])
def test_abbreviated_flags_are_refused(tmp_path, argv):
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_missing_required_flag_is_usage_error():
    assert run(["train"]) == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> build-graphs -> train -> eval, shared by the tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    synth_dir, graph_dir = root / "synth", root / "graphs"
    train_dir, eval_dir = root / "train", root / "eval"

    assert run(["synth", "--out", str(synth_dir), "--students", "30",
                "--kcs", "8", "--questions", "12", "--seq-len-min", "8",
                "--seq-len-max", "12", "--seed", "3"]) == 0
    data = str(synth_dir / "data.csv")

    assert run(["build-graphs", "--data", data, "--seq-len", "12",
                "--min-len", "4", "--eta", "0.55", "--min-cooccurrence", "3",
                "--out", str(graph_dir)]) == 0

    assert run(["train", "--data", data, "--seq-len", "12", "--min-len", "4",
                "--graphs", str(graph_dir / "graphs.txt"),
                "--out", str(train_dir), "--seed", "1", "--fold", "0",
                "--k", "3", "--val-frac", "0.2", "--d-e", "3", "--d-k", "3",
                "--d-h", "4", "--layers", "1", "--max-epochs", "2",
                "--patience", "1"]) == 0

    assert run(["eval", "--data", data,
                "--checkpoint", str(train_dir / "checkpoint.npz"),
                "--out", str(eval_dir)]) == 0
    return root


def test_pipeline_outputs_exist(pipeline):
    assert (pipeline / "synth" / "data.csv").exists()
    assert (pipeline / "synth" / "truth.json").exists()
    assert (pipeline / "graphs" / "graphs.txt").exists()
    assert (pipeline / "train" / "checkpoint.npz").exists()
    report = json.loads((pipeline / "train" / "report.json").read_text())
    assert "test_metrics" in report and report["test_metrics"]["consistency"] == 1.0
    metrics = json.loads((pipeline / "eval" / "metrics.json").read_text())
    assert set(metrics) == {"auc", "acc", "consistency", "gaucm", "repetition"}


def test_every_run_writes_manifest(pipeline):
    for sub in ("synth", "graphs", "train", "eval"):
        manifest = json.loads((pipeline / sub / "manifest.json").read_text())
        assert manifest["format_versions"] == {
            "graphs": GRAPH_VERSION, "checkpoint": E.ParameterStore.VERSION,
            "manifest": manifest["manifest_version"]}
        assert manifest["format_versions"]["checkpoint"] == 4
        assert "argv" in manifest and "config" in manifest


def test_eval_does_not_mutate_checkpoint(pipeline, tmp_path):
    ck = pipeline / "train" / "checkpoint.npz"
    digest_before = hashlib.sha256(ck.read_bytes()).hexdigest()
    assert run(["eval", "--data", str(pipeline / "synth" / "data.csv"),
                "--checkpoint", str(ck), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256(ck.read_bytes()).hexdigest() == digest_before


def test_trace_exports_mastery_curves(pipeline, tmp_path):
    data = str(pipeline / "synth" / "data.csv")
    out = tmp_path / "trace"
    assert run(["trace", "--data", data,
                "--checkpoint", str(pipeline / "train" / "checkpoint.npz"),
                "--seq", "0", "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["student", "seq_index", "step", "timestamp", "kc",
                      "mastery_pre", "mastery_post", "predicted", "correct"]
    assert len(lines) > 8  # one row per (step, kc)
    rows = json.loads((out / "trace.json").read_text())
    assert len(rows) == len(lines) - 1


def test_trace_by_student_id(pipeline, tmp_path):
    data = str(pipeline / "synth" / "data.csv")
    out = tmp_path / "trace2"
    assert run(["trace", "--data", data,
                "--checkpoint", str(pipeline / "train" / "checkpoint.npz"),
                "--student", "s00003", "--out", str(out)]) == 0
    rows = json.loads((out / "trace.json").read_text())
    assert rows and {r["student"] for r in rows} == {3}


def test_trace_unknown_student_fails(pipeline, tmp_path):
    data = str(pipeline / "synth" / "data.csv")
    assert run(["trace", "--data", data,
                "--checkpoint", str(pipeline / "train" / "checkpoint.npz"),
                "--student", "nobody", "--out", str(tmp_path / "x")]) == 1


def test_trace_needs_exactly_one_of_student_and_seq(pipeline, tmp_path):
    common = ["trace", "--data", str(pipeline / "synth" / "data.csv"),
              "--checkpoint", str(pipeline / "train" / "checkpoint.npz"),
              "--out", str(tmp_path)]
    assert run(common) == 2
    assert run(common + ["--seq", "0", "--student", "s00003"]) == 2


def test_trace_seq_out_of_range_fails(pipeline, tmp_path, capsys):
    data = str(pipeline / "synth" / "data.csv")
    n = len(preprocess(ingest_csv(data), seq_len=12, min_len=4).sequences)
    assert run(["trace", "--data", data,
                "--checkpoint", str(pipeline / "train" / "checkpoint.npz"),
                "--seq", "999", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: --seq 999: valid sequence indices are 0..{n - 1}\n")


@pytest.mark.parametrize("command,fold", [("eval", "9"), ("eval", "0"),
                                          ("train", "9"), ("train", "x")])
def test_fold_out_of_range_fails(pipeline, tmp_path, capsys, command, fold):
    common = [command, "--data", str(pipeline / "synth" / "data.csv"),
              "--fold", fold, "--out", str(tmp_path / "out")]
    if command == "eval":  # the checkpoint names its test fold
        common += ["--checkpoint", str(pipeline / "train" / "checkpoint.npz")]
        assert run(common) == 2
        assert f"invalid choice: '{fold}'" in capsys.readouterr().err
    else:
        common += ["--seq-len", "12", "--min-len", "4",
                   "--graphs", str(pipeline / "graphs" / "graphs.txt")]
        assert run(common) == 1
        assert capsys.readouterr().err == (f"error: --fold {fold}: valid "
                                           f"folds are 0..4 or 'all'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag", [
    ("eval", ["--seq-len", "12"]), ("eval", ["--min-len", "4"]),
    ("eval", ["--k", "3"]), ("eval", ["--val-frac", "0.2"]),
    ("trace", ["--seq-len", "12"]), ("trace", ["--min-len", "4"])])
def test_eval_and_trace_take_the_split_from_the_checkpoint(pipeline, tmp_path,
                                                           command, flag):
    argv = [command, "--data", str(pipeline / "synth" / "data.csv"),
            "--checkpoint", str(pipeline / "train" / "checkpoint.npz"),
            "--out", str(tmp_path / "out"), *flag]
    if command == "trace":
        argv += ["--seq", "0"]
    assert run(argv) == 2
    assert not (tmp_path / "out").exists()


# one failing run per subcommand that reads inputs; "{data}", "{graphs}",
# "{checkpoint}" and "{missing}" name files of the shared pipeline,
# "{bad_graphs}", "{bad_labels}" and "{bad_config}" malformed input files,
# "{one_sequence}" a log of the pipeline's questions that preprocesses to one
# sequence
FAILED_RUNS = {
    "synth-density": ["synth", "--pre-density", "2"],
    "build-graphs-missing-data": ["build-graphs", "--data", "{missing}"],
    "build-graphs-eta": ["build-graphs", "--data", "{data}", "--eta", "2"],
    "train-fold": ["train", "--data", "{data}", "--graphs", "{graphs}",
                   "--fold", "9"],
    "train-seq-len": ["train", "--data", "{data}", "--graphs", "{graphs}",
                      "--seq-len", "0"],
    "train-all-k": ["train", "--data", "{data}", "--graphs", "{graphs}",
                    "--fold", "all", "--k", "1"],
    "train-missing-graphs": ["train", "--data", "{data}",
                             "--graphs", "{missing}"],
    "train-malformed-graphs": ["train", "--data", "{data}",
                               "--graphs", "{bad_graphs}"],
    "build-graphs-malformed-labels": ["build-graphs", "--data", "{data}",
                                      "--labels", "{bad_labels}"],
    "eval-missing-data": ["eval", "--data", "{missing}",
                          "--checkpoint", "{checkpoint}"],
    "eval-missing-checkpoint": ["eval", "--data", "{data}",
                                "--checkpoint", "{missing}"],
    "eval-fewer-sequences-than-k": ["eval", "--data", "{one_sequence}",
                                    "--checkpoint", "{checkpoint}",
                                    "--fold", "test"],
    "trace-seq": ["trace", "--data", "{data}",
                  "--checkpoint", "{checkpoint}", "--seq", "999"],
    "gradcheck-no-coords": ["gradcheck", "--coords", "0"],
    "gradcheck-nan-tolerance": ["gradcheck", "--tolerance", "nan"],
    "gradcheck-negative-tolerance": ["gradcheck", "--tolerance", "-1"],
    "train-val-frac-one": ["train", "--data", "{data}", "--graphs", "{graphs}",
                           "--val-frac", "1.0"],
    "train-val-frac-negative": ["train", "--data", "{data}",
                                "--graphs", "{graphs}", "--val-frac", "-0.5"],
    "train-no-epochs": ["train", "--data", "{data}", "--graphs", "{graphs}",
                        "--max-epochs", "0"],
    "train-eta": ["train", "--data", "{data}", "--eta", "1.5"],
    "train-config-min-cooccurrence": ["train", "--data", "{data}",
                                      "--config", "{bad_config}"],
}


def one_sequence_log(data, tmp_path):
    """Every question of `data` once, by one student: one sequence of 12."""
    lines = data.read_text().splitlines()
    header = lines[0].split(",")
    q, s, t = (header.index(c) for c in ("question_id", "student_id",
                                         "timestamp"))
    first = {}
    for line in lines[1:]:
        first.setdefault(line.split(",")[q], line.split(","))
    rows = []
    for i, fields in enumerate(first.values()):
        fields[s], fields[t] = "s0", str(i)
        rows.append(",".join(fields))
    assert len(rows) == 12
    path = tmp_path / "one_sequence.csv"
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    return path


@pytest.mark.parametrize("flags,field", [
    (["--seed", "-1"], "seed"),
    (["--kcs", "0"], "n_kcs"),
    (["--questions", "0"], "n_questions"),
    (["--students", "0"], "n_students"),
    (["--seq-len-min", "0"], "seq_len_min"),
    (["--seq-len-min", "12", "--seq-len-max", "8"], "seq_len_min"),
    (["--kcs", "1"], "kcs_per_question_max"),  # the default is 2
    (["--transfer", "-2"], "transfer"),
    (["--mastery-noise", "-1"], "mastery_noise"),
    (["--noise-smoothing", "-3"], "noise_smoothing"),
], ids=["seed", "kcs", "questions", "students", "seq-len-min",
        "seq-len-order", "kcs-per-question", "transfer", "mastery-noise",
        "noise-smoothing"])
def test_synth_rejects_sizes_it_cannot_generate(tmp_path, capsys, flags,
                                                field):
    out = tmp_path / "out"
    assert run(["synth", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(FAILED_RUNS))
def test_failed_run_creates_no_output_directory(pipeline, tmp_path, case):
    files = {"data": pipeline / "synth" / "data.csv",
             "graphs": pipeline / "graphs" / "graphs.txt",
             "checkpoint": pipeline / "train" / "checkpoint.npz",
             "missing": tmp_path / "missing.csv",
             "bad_graphs": tmp_path / "bad_graphs.txt",
             "bad_labels": tmp_path / "bad_labels.csv",
             "bad_config": tmp_path / "bad.cfg"}
    files["bad_graphs"].write_text("graphkt-graphs 1 eta=0.6\n")  # no n_kcs=
    files["bad_labels"].write_text("src,dst,kind,confidence\n0,x,similar,7\n")
    files["bad_config"].write_text("min_cooccurrence = 0\n")
    files["one_sequence"] = one_sequence_log(files["data"], tmp_path)
    argv = [a.format(**files) for a in FAILED_RUNS[case]]
    if argv[0] in ("build-graphs", "train"):  # a case's own lengths win
        argv[1:1] = ["--seq-len", "12", "--min-len", "4"]
    out = tmp_path / "runs" / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert not (tmp_path / "runs").exists()


def test_gradcheck_command(tmp_path):
    assert run(["gradcheck", "--out", str(tmp_path), "--coords", "25",
                "--seed", "0"]) == 0
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert doc["passed"] and doc["checked"] == 25


def test_config_file_with_cli_override(pipeline, tmp_path):
    data = str(pipeline / "synth" / "data.csv")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("d_e = 3\nd_k = 3\nd_h = 4\nlayers = 1\n"
                   "max_epochs = 1\npatience = 1\nlr = 5e-3\n")
    out = tmp_path / "run"
    assert run(["train", "--data", data, "--seq-len", "12", "--min-len", "4",
                "--graphs", str(pipeline / "graphs" / "graphs.txt"),
                "--config", str(cfg), "--out", str(out), "--fold", "0",
                "--k", "3", "--val-frac", "0.2", "--max-epochs", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["train_losses"]) <= 2  # CLI --max-epochs wins
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["config"] == str(cfg)


def test_checkpoint_holds_the_graph_file_text(pipeline):
    ck = pipeline / "train" / "checkpoint.npz"
    with np.load(ck) as archive:
        header = json.loads(archive[E._HEADER].item())
    graph_file = pipeline / "graphs" / "graphs.txt"
    assert header["graphs"].encode() == graph_file.read_bytes()


def test_train_manifest_records_the_resolved_config(pipeline, tmp_path):
    data = pipeline / "synth" / "data.csv"
    cfg = tmp_path / "train.cfg"
    cfg.write_text("d_e = 6\nmax_epochs = 1\nmin_cooccurrence = 2\n"
                   "d_k = 3\nd_h = 4\nlayers = 1\n")
    out = tmp_path / "run"
    assert run(["train", "--data", str(data), "--seq-len", "12",
                "--min-len", "4", "--config", str(cfg), "--out", str(out),
                "--fold", "0", "--k", "3", "--val-frac", "0.2",
                "--patience", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    resolved = manifest["train_config"]
    assert (resolved["hp"]["d_e"], resolved["max_epochs"],
            resolved["min_cooccurrence"]) == (6, 1, 2)
    assert resolved["hp"]["patience"] == 3  # the flag
    assert resolved["hp"]["lr"] == HyperParams().lr  # the default
    # the run used them: one epoch of a d_e = 6 model on graphs mined at 2
    report = json.loads((out / "report.json").read_text())
    assert len(report["train_losses"]) == 1
    model, split = GrktModel.load(out / "checkpoint.npz")
    assert model.hp.d_e == 6
    ds = preprocess(ingest_csv(data), seq_len=12, min_len=4)
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[split["fold"]]
    mined = [format_graphs(build_graphs(
        ds, GraphBuildConfig(eta=0.6, min_cooccurrence=min_co),
        sequence_indices=[*fold.train, *fold.val])) for min_co in (2, 10)]
    assert format_graphs(model.graphs) == mined[0] != mined[1]


def test_train_without_hyper_flags_resolves_to_defaults():
    args = build_parser().parse_args(["train", "--data", "log.csv"])
    assert _train_config(args) == TrainConfig()


def _config_args(tmp_path, text):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(text)
    return cfg, build_parser().parse_args(["train", "--data", "log.csv",
                                           "--config", str(cfg)])


@pytest.mark.parametrize("text,line,key", [
    ("d_e = 3\nd_ee = 3\n", 2, "d_ee"),
    ("# widths\nd_k = 4\n\ndtype = float32\n", 4, "dtype"),
])
def test_config_file_rejects_unknown_keys(tmp_path, text, line, key):
    cfg, args = _config_args(tmp_path, text)
    with pytest.raises(CliError) as exc:
        _train_config(args)
    assert str(exc.value) == f"{cfg}:{line}: unknown key {key!r}"


@pytest.mark.parametrize("text,line,key", [
    ("d_e = 3.5\n", 1, "d_e"),
    ("d_k = 4\nlr = fast\n", 2, "lr"),
    ("no_lf = maybe\n", 1, "no_lf"),
])
def test_config_file_rejects_values_that_do_not_convert(tmp_path, capsys,
                                                        text, line, key):
    cfg, args = _config_args(tmp_path, text)
    with pytest.raises(CliError, match=f"^{cfg}:{line}: {key} = "):
        _train_config(args)
    assert run(["train", "--data", "log.csv", "--config", str(cfg)]) == 1
    assert f"error: {cfg}:{line}: {key} = " in capsys.readouterr().err


@pytest.mark.parametrize("text,line,message", [
    ("d_k = 4\nd_e = -1\n", 2, "d_e must be positive"),
    ("lr = 0\n", 1, "lr must be positive and l2 non-negative"),
    ("lr = nan\n", 1, "lr must be finite, got nan"),
    ("d_e = 6\nl2 = inf\n", 2, "l2 must be finite, got inf"),
    ("d_e = 6\nmin_cooccurrence = 0\n", 2,
     "min_cooccurrence must be at least 1"),
    ("max_epochs = 0\n", 1, "max_epochs must be at least 1"),
    ("eta = 1.5\n", 1, "eta must lie in (0, 1), got 1.5"),
    ("d_e = 6\nseed = -2\n", 2, "seed must be non-negative, got -2"),
])
def test_config_file_rejects_values_that_fail_validation(tmp_path, capsys,
                                                         text, line, message):
    cfg, args = _config_args(tmp_path, text)
    with pytest.raises(CliError) as exc:
        _train_config(args)
    assert str(exc.value) == f"{cfg}:{line}: {message}"
    assert run(["train", "--data", "log.csv", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
    # the same value from a flag names no file
    assert run(["train", "--data", "log.csv", "--d-e", "-1"]) == 1
    assert capsys.readouterr().err == "error: d_e must be positive\n"


def test_negative_seed_flag_names_the_setting(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["train", "--data", "log.csv", "--seed", "-1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err \
        == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_config_file_values_convert_to_field_types(tmp_path):
    _, args = _config_args(tmp_path, "d-e = 3\nlr = 5e-3\nno_lf = yes\n"
                                     "no_sim = false\n")
    cfg = _train_config(args)
    assert (cfg.hp.d_e, cfg.hp.lr, cfg.disable_stage3,
            cfg.drop_similarity) == (3, 5e-3, True, False)


def test_no_lf_checkpoint_is_evaluated_and_traced_without_stage3(pipeline,
                                                                  tmp_path):
    data = str(pipeline / "synth" / "data.csv")
    graphs = str(pipeline / "graphs" / "graphs.txt")
    common = ["--data", data]
    ck = tmp_path / "train" / "checkpoint.npz"
    assert run(["train", *common, "--seq-len", "12", "--min-len", "4",
                "--graphs", graphs,
                "--out", str(tmp_path / "train"),
                "--seed", "1", "--fold", "1", "--k", "3", "--val-frac", "0.2",
                "--d-e", "3", "--d-k", "3", "--d-h", "4", "--layers", "1",
                "--max-epochs", "1", "--no-lf"]) == 0
    evaluate = ["eval", *common, "--checkpoint", str(ck),
                "--out", str(tmp_path / "eval")]
    assert run(evaluate + ["--no-lf"]) == 2  # the checkpoint decides
    assert run(evaluate + ["--graphs", graphs]) == 2  # and holds the graphs
    assert run(evaluate) == 0
    # the stored test fold is fold 1, not the first
    assert run(["eval", *common, "--checkpoint", str(ck), "--fold", "test",
                "--out", str(tmp_path / "eval-test")]) == 0
    report = json.loads((tmp_path / "train" / "report.json").read_text())
    assert json.loads((tmp_path / "eval-test" / "metrics.json").read_text()) \
        == report["test_metrics"]
    trace = ["trace", *common, "--checkpoint", str(ck), "--seq", "0",
             "--out", str(tmp_path / "trace")]
    assert run(trace + ["--graphs", graphs]) == 2
    assert run(trace) == 0

    ds = preprocess(ingest_csv(data), seq_len=12, min_len=4)
    model, trained = GrktModel.load(ck)
    assert trained["disable_stage3"] and trained["fold"] == 1

    def forward(stage3_off):
        with E.no_grad():
            _, cache = model.begin("eval")
            return [trace_alone(model, seq, cache, seq_index=i,
                                disable_stage3=stage3_off)
                    for i, seq in enumerate(ds.sequences)]

    without = forward(True)
    pairs = [(float(p), r.correct) for res in without
             for p, r in zip(res.scores, res.responses)]
    scored = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert scored["auc"] == metrics.auc(pairs)
    assert scored["acc"] == metrics.accuracy(pairs)
    traced = json.loads((tmp_path / "trace" / "trace.json").read_text())
    assert traced == trace_rows(without[0])
    assert traced != trace_rows(forward(False)[0])


@pytest.mark.parametrize("graph_flags,dropped", [
    (["--graphs", "{graphs}"], ""),
    (["--graphs", "{graphs}", "--no-sim"], "R"),
    (["--graphs", "{graphs}", "--no-pre"], "P"),
    ([], ""),  # graphs mined from the fold
], ids=["graphs", "no-sim", "no-pre", "mined"])
def test_eval_reproduces_train(pipeline, tmp_path, graph_flags, dropped):
    graphs = pipeline / "graphs" / "graphs.txt"
    data = pipeline / "synth" / "data.csv"
    flags = [f.format(graphs=graphs) for f in graph_flags]
    assert run(["train", "--data", str(data), "--seq-len", "12",
                "--min-len", "4", "--fold", "0", "--k", "3",
                "--val-frac", "0.2", *flags,
                "--out", str(tmp_path / "train"), "--seed", "1",
                "--d-e", "3", "--d-k", "3", "--d-h", "4", "--layers", "1",
                "--max-epochs", "2", "--patience", "1"]) == 0
    # eval and trace read the data split from the checkpoint alone
    ck = tmp_path / "train" / "checkpoint.npz"
    assert run(["eval", "--data", str(data), "--checkpoint", str(ck),
                "--fold", "test", "--out", str(tmp_path / "eval")]) == 0
    trained = json.loads((tmp_path / "train" / "report.json").read_text())
    scored = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert scored == trained["test_metrics"]
    assert run(["trace", "--data", str(data), "--checkpoint", str(ck),
                "--seq", "0", "--out", str(tmp_path / "trace")]) == 0
    model, run_fields = GrktModel.load(ck)
    seq = preprocess(ingest_csv(data), seq_len=12, min_len=4).sequences[0]
    with E.no_grad():
        _, cache = model.begin("eval")
        want = trace_alone(model, seq, cache,
                           disable_stage3=run_fields["disable_stage3"])
    traced = json.loads((tmp_path / "trace" / "trace.json").read_text())
    assert traced == trace_rows(want)
    # the checkpoint carries the graphs the model trained on
    kinds = {k for k in "PR" if model.graphs.edge_count(k)}
    assert kinds == set("PR") - set(dropped)
    if graph_flags:
        kept = import_graphs(graphs).drop(similarity=dropped == "R",
                                          prerequisite=dropped == "P")
        assert model.graphs.p_scores == kept.p_scores
        assert model.graphs.r_scores == kept.r_scores


def _saved_model(path, version=None, drop=None, **run):
    """Save a small model; `version` overrides the format version written,
    `drop` names a field left out, `run` overrides run fields."""
    model = GrktModel(HyperParams(d_e=3, d_k=3, d_h=4, layers=1), 12, 8,
                      KcRelationGraphs.empty(8))
    store_save = model.store.save
    if version is not None:
        model.store.VERSION = version
    model.store.save = lambda p, fields: store_save(
        p, {k: v for k, v in fields.items() if k != drop})
    model.save(path, **{"disable_stage3": False, "seq_len": 12, "min_len": 4,
                        "k": 3, "val_frac": 0.2, "fold": 0, **run})


# a parameter archive without the model's fields is refused too, and so is
# a model written before checkpoints held their data split or graph text
NOT_MODELS = {**REJECTED_CHECKPOINTS,
              "no-model-fields": lambda p: E.ParameterStore().save(p, {}),
              "version-2": lambda p: _saved_model(p, version=2, drop="run"),
              "version-3": lambda p: _saved_model(p, version=3),
              "no-run": lambda p: _saved_model(p, drop="run"),
              "fold-beyond-k": lambda p: _saved_model(p, fold=3)}


@pytest.mark.parametrize("case", sorted(NOT_MODELS))
def test_eval_and_trace_refuse_other_files(pipeline, tmp_path, capsys, case):
    ck = tmp_path / "checkpoint.npz"
    NOT_MODELS[case](ck)
    data = ["--data", str(pipeline / "synth" / "data.csv"),
            "--checkpoint", str(ck)]
    for argv in (["eval", *data, "--fold", "test"],
                 ["trace", *data, "--seq", "0"]):
        assert run(argv + ["--out", str(tmp_path / "runs" / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ck}: ") and "covers" not in err
        assert not (tmp_path / "runs").exists()


def test_checkpoint_must_cover_the_data(pipeline, tmp_path, capsys):
    data = str(pipeline / "synth" / "data.csv")
    ds = preprocess(ingest_csv(data), seq_len=12, min_len=4)
    ck = tmp_path / "checkpoint.npz"
    GrktModel(HyperParams(d_e=3, d_k=3, d_h=4, layers=1), ds.n_questions,
              ds.n_kcs + 1, KcRelationGraphs.empty(ds.n_kcs + 1)).save(
        ck, disable_stage3=False, seq_len=12, min_len=4, k=3, val_frac=0.2,
        fold=0)
    common = ["--data", data,
              "--checkpoint", str(ck), "--out", str(tmp_path / "runs" / "out")]
    for argv in (["eval", *common], ["trace", *common, "--seq", "0"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"covers {ds.n_kcs + 1} KCs" in err
        assert f"the data has {ds.n_kcs} KCs" in err
        assert not (tmp_path / "runs").exists()


# -- one settings table; defaults written once ---------------------------------

# train's settings by config key, each a HyperParams or TrainConfig field;
# the ablations go by the paper's names
TRAIN_SETTINGS = {
    **{name: (HyperParams, name) for name in (
        "d_e", "d_k", "d_h", "layers", "lr", "l2", "eta", "seed",
        "batch_size", "patience")},
    **{name: (TrainConfig, name) for name in (
        "max_epochs", "use_full_graphs", "min_cooccurrence")},
    "no_lf": (TrainConfig, "disable_stage3"),
    "no_sim": (TrainConfig, "drop_similarity"),
    "no_pre": (TrainConfig, "drop_prerequisite"),
}


def test_settings_table_covers_every_field_but_dtype_and_hp():
    covered = {(cls, name) for cls, name in TRAIN_SETTINGS.values()}
    assert covered == {(cls, f.name) for cls, skip in (
        (HyperParams, "dtype"), (TrainConfig, "hp"))
        for f in dataclasses.fields(cls) if f.name != skip}


@pytest.mark.parametrize("key", sorted(TRAIN_SETTINGS))
def test_every_setting_is_both_a_train_flag_and_a_config_key(tmp_path, key):
    cls, name = TRAIN_SETTINGS[key]
    default = getattr(cls(), name)
    # a valid value other than the default
    value = True if isinstance(default, bool) else \
        default + 1 if isinstance(default, int) else default / 2
    flag = ["--" + key.replace("_", "-")]
    if not isinstance(default, bool):
        flag.append(str(value))
    by_flag = _train_config(build_parser().parse_args(
        ["train", "--data", "log.csv", *flag]))
    assert getattr(by_flag.hp if cls is HyperParams else by_flag,
                   name) == value
    assert by_flag != TrainConfig()
    _, args = _config_args(tmp_path, f"{key} = {value}\n")
    assert _train_config(args) == by_flag


def test_min_cooccurrence_flag_mines_as_the_config_key(pipeline, tmp_path):
    data = str(pipeline / "synth" / "data.csv")
    cfg = tmp_path / "train.cfg"
    cfg.write_text("min_cooccurrence = 2\n")
    common = ["train", "--data", data, "--seq-len", "12", "--min-len", "4",
              "--fold", "0", "--k", "3", "--val-frac", "0.2", "--d-e", "3",
              "--d-k", "3", "--d-h", "4", "--layers", "1", "--max-epochs", "1"]
    assert run(common + ["--config", str(cfg),
                         "--out", str(tmp_path / "file")]) == 0
    assert run(common + ["--min-cooccurrence", "2",
                         "--out", str(tmp_path / "flag")]) == 0
    resolved = [json.loads((tmp_path / run_ / "manifest.json").read_text())
                ["train_config"] for run_ in ("file", "flag")]
    assert resolved[0] == resolved[1] and resolved[0]["min_cooccurrence"] == 2
    by_file, by_flag = (GrktModel.load(tmp_path / run_ / "checkpoint.npz")[0]
                        for run_ in ("file", "flag"))
    assert format_graphs(by_flag.graphs) == format_graphs(by_file.graphs)
    # and not the graphs of the default threshold
    ds = preprocess(ingest_csv(data), seq_len=12, min_len=4)
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    assert format_graphs(by_flag.graphs) != format_graphs(build_graphs(
        ds, GraphBuildConfig(eta=HyperParams().eta),
        sequence_indices=[*fold.train, *fold.val]))


def test_build_graphs_mines_at_train_s_defaults():
    args = build_parser().parse_args(["build-graphs", "--data", "log.csv"])
    assert (args.eta, args.min_cooccurrence) == (
        TrainConfig().hp.eta, TrainConfig().min_cooccurrence)


# -- trace and gradcheck run their sequences in lockstep -----------------------


@pytest.fixture(scope="module")
def short_sequences(pipeline, tmp_path_factory):
    """A checkpoint trained on the pipeline corpus cut into sequences of at
    most 6, so that a student has several."""
    out = tmp_path_factory.mktemp("short") / "train"
    assert run(["train", "--data", str(pipeline / "synth" / "data.csv"),
                "--seq-len", "6", "--min-len", "4",
                "--graphs", str(pipeline / "graphs" / "graphs.txt"),
                "--out", str(out), "--seed", "1", "--fold", "0", "--k", "3",
                "--val-frac", "0.2", "--d-e", "3", "--d-k", "3", "--d-h", "4",
                "--layers", "1", "--max-epochs", "1"]) == 0
    return out / "checkpoint.npz"


def _traced_alone(checkpoint, data, indices):
    """Trace rows of each sequence at `indices`, run alone."""
    model, trained = GrktModel.load(checkpoint)
    ds = preprocess(ingest_csv(data), seq_len=trained["seq_len"],
                    min_len=trained["min_len"])
    with E.no_grad():
        _, cache = model.begin("eval")
        return ds, [row for i in indices for row in trace_rows(
            trace_alone(model, ds.sequences[i], cache, seq_index=i,
                        disable_stage3=trained["disable_stage3"]))]


def test_trace_runs_a_students_sequences_in_one_lockstep_pass(
        pipeline, short_sequences, tmp_path, monkeypatch):
    data = pipeline / "synth" / "data.csv"
    batches = []
    steps = GrktModel.steps

    def counted(self, sequences, *args, **kwargs):
        batches.append(len(sequences))
        return steps(self, sequences, *args, **kwargs)

    monkeypatch.setattr(GrktModel, "steps", counted)
    out = tmp_path / "trace"
    assert run(["trace", "--data", str(data), "--checkpoint",
                str(short_sequences), "--student", "s00003",
                "--out", str(out)]) == 0
    monkeypatch.undo()
    traced = json.loads((out / "trace.json").read_text())
    order = list(dict.fromkeys(r["seq_index"] for r in traced))
    assert len(order) >= 2 and order == sorted(order)
    assert batches == [len(order)]
    ds, want = _traced_alone(short_sequences, data, order)
    assert order == [i for i, s in enumerate(ds.sequences)
                     if s.student == ds.students.to_dense["s00003"]]
    assert len(traced) == len(want)
    floats = ("mastery_pre", "mastery_post", "predicted")
    for got, row in zip(traced, want):
        assert {k: got[k] for k in got if k not in floats} == \
            {k: row[k] for k in row if k not in floats}
        for k in floats:
            assert abs(got[k] - row[k]) <= 1e-12


def test_trace_of_one_sequence_is_its_batch_of_one(pipeline, short_sequences,
                                                   tmp_path):
    data = pipeline / "synth" / "data.csv"
    out = tmp_path / "trace"
    assert run(["trace", "--data", str(data), "--checkpoint",
                str(short_sequences), "--seq", "1", "--out", str(out)]) == 0
    _, want = _traced_alone(short_sequences, data, [1])
    assert (out / "trace.json").read_text() == json.dumps(want)


def test_trace_of_a_student_writes_the_oracle_rows(pipeline, short_sequences,
                                                   tmp_path):
    # a student with sequences of uneven length: trace.csv and trace.json
    # hold, byte for byte, the oracle's rows over each sequence run alone
    data = pipeline / "synth" / "data.csv"
    model, trained = GrktModel.load(short_sequences)
    ds = preprocess(ingest_csv(data), seq_len=trained["seq_len"],
                    min_len=trained["min_len"])
    by_student = {}
    for i, seq in enumerate(ds.sequences):
        by_student.setdefault(seq.student, []).append(i)
    sid, indices = next(
        (sid, indices) for sid, indices in sorted(by_student.items())
        if len({ds.sequences[i].valid_len for i in indices}) > 1)
    out = tmp_path / "trace"
    assert run(["trace", "--data", str(data), "--checkpoint",
                str(short_sequences), "--student",
                ds.students.from_dense[sid], "--out", str(out)]) == 0
    _, want = _traced_alone(short_sequences, data, indices)
    assert {r["seq_index"] for r in want} == set(indices)
    assert (out / "trace.json").read_text() == json.dumps(want)
    expected = io.StringIO(newline="")
    writer = csv.DictWriter(expected, fieldnames=list(want[0]))
    writer.writeheader()
    writer.writerows(want)
    assert (out / "trace.csv").read_bytes() \
        == expected.getvalue().encode("utf-8")


def test_trace_of_a_student_without_sequences_fails(pipeline, tmp_path,
                                                    capsys):
    lines = (pipeline / "synth" / "data.csv").read_text().splitlines()
    # two responses of a new student, to questions the checkpoint covers
    late = [",".join(["late", *line.split(",")[1:]]) for line in lines[1:3]]
    data = tmp_path / "data.csv"
    data.write_text("\n".join([*lines, *late]) + "\n")
    assert run(["trace", "--data", str(data),
                "--checkpoint", str(pipeline / "train" / "checkpoint.npz"),
                "--student", "late", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: student 'late' has fewer responses than the checkpoint's "
        "min_len (4): no sequence to trace\n")
    assert not (tmp_path / "out").exists()


def test_gradcheck_checks_a_lockstep_batch_of_uneven_lengths(tmp_path,
                                                             monkeypatch):
    lengths = []
    steps = GrktModel.steps

    def recorded(self, sequences, *args, **kwargs):
        lengths.append([len(s) for s in sequences])
        return steps(self, sequences, *args, **kwargs)

    def alone(*args, **kwargs):
        raise AssertionError("gradcheck ran a sequence alone")

    monkeypatch.setattr(GrktModel, "steps", recorded)
    monkeypatch.setattr(GrktModel, "forward_sequence", alone)
    assert run(["gradcheck", "--out", str(tmp_path), "--coords", "25",
                "--seed", "1"]) == 0
    assert lengths and all(seen == [5, 3] for seen in lengths)


def test_gradcheck_reports_coordinates_that_pass_on_atol_alone(tmp_path,
                                                                capsys):
    assert run(["gradcheck", "--out", str(tmp_path), "--coords", "50",
                "--seed", "0"]) == 0
    doc = json.loads((tmp_path / "gradcheck.json").read_text())
    assert 0 <= doc["atol_only"] < doc["checked"] == 50
    assert f"atol_only={doc['atol_only']}," in capsys.readouterr().out


def test_parser_defaults_are_the_library_defaults():
    import inspect

    from graphkt.graphs import load_labeled_graphs

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    want = {"seq_len": default(preprocess, "seq_len"),
            "min_len": default(preprocess, "min_len")}
    build = vars(build_parser().parse_args(["build-graphs", "--data", "x"]))
    train = vars(build_parser().parse_args(["train", "--data", "x"]))
    assert {name: build[name] for name in want} == want
    assert build["min_confidence"] == default(load_labeled_graphs,
                                              "min_confidence")
    assert build["eta"] == HyperParams.eta
    assert build["min_cooccurrence"] == GraphBuildConfig.min_cooccurrence
    assert {name: train[name] for name in want} == want
    assert (train["k"], train["val_frac"]) == (default(make_folds, "k"),
                                               default(make_folds, "val_frac"))
