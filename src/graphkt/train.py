"""Training loop, cross-validation protocol and ablation switches.

Batches are whole subsequences; the loss is the binary cross entropy over all
real (unmasked) steps in the batch. After each epoch the validation AUC is
computed; the best checkpoint is kept and training stops once validation has
failed to improve for `patience` consecutive epochs.

By default relation graphs are mined from each fold's training+validation
sequences only, so test responses never leak into the graph statistics;
`use_full_graphs` restores the comparability-oriented variant that mines from
the whole dataset.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine as E
from . import metrics
from .data import Dataset, FoldSplit, make_folds
from .graphs import GraphBuildConfig, KcRelationGraphs, build_graphs
from .model import GrktModel, HyperParams, StepArrays


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"loss became non-finite at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    hp: HyperParams = field(default_factory=HyperParams)
    max_epochs: int = 200
    disable_stage3: bool = False       # -LF
    drop_similarity: bool = False      # -SIM
    drop_prerequisite: bool = False    # -PRE; with -SIM, no graphs at all
    use_full_graphs: bool = False
    min_cooccurrence: int = GraphBuildConfig.min_cooccurrence

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        # the mining settings, by the rules mining applies to them
        GraphBuildConfig(eta=self.hp.eta, min_cooccurrence=self.min_cooccurrence)


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_auc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = float("-inf")
    test_metrics: dict | None = None
    wall_clock: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def bce_loss_node(preds: list[tuple[E.Node, "int | np.ndarray"]]) -> E.Node:
    """Tape-level BCE over one batch's (prediction node, label) pairs; a
    node may hold several predictions, (n,), with an array of n labels."""
    labels = np.concatenate([np.ravel(label) for _, label in preds]) \
        if preds else np.zeros(0)
    if not labels.size:
        raise ValueError("loss over an empty unmasked set is undefined")
    scores = E.concat([p for p, _ in preds], axis=0) if len(preds) > 1 \
        else preds[0][0]
    logs = []
    for correct in (True, False):  # one column per outcome, not one per step
        rows = np.flatnonzero((labels == 1) == correct)
        if rows.size:
            pc = E.clip(E.gather_rows(scores, rows), 1e-7, 1.0 - 1e-7)
            logs.append(E.log(pc if correct else E.sub(1.0, pc)))
    return E.mul(E.sum_all(E.concat(logs, axis=0)), -1.0 / labels.size)


def apply_ablation(graphs: KcRelationGraphs, cfg: TrainConfig) -> KcRelationGraphs:
    if cfg.drop_similarity or cfg.drop_prerequisite:
        return graphs.drop(similarity=cfg.drop_similarity,
                           prerequisite=cfg.drop_prerequisite)
    return graphs


def graphs_for_fold(ds: Dataset, fold: FoldSplit, cfg: TrainConfig) -> KcRelationGraphs:
    """Mine graphs from the fold's non-test sequences (or everything).

    With both relation kinds dropped nothing is mined.
    """
    if cfg.drop_similarity and cfg.drop_prerequisite:
        return KcRelationGraphs.empty(ds.n_kcs)
    indices = None if cfg.use_full_graphs else list(fold.train) + list(fold.val)
    mined = build_graphs(ds, GraphBuildConfig(eta=cfg.hp.eta,
                                              min_cooccurrence=cfg.min_cooccurrence),
                         sequence_indices=indices)
    return apply_ablation(mined, cfg)


def lockstep(model: GrktModel, ds: Dataset, indices, disable_stage3: bool,
             *columns: str) -> list[np.ndarray]:
    """The named `StepArrays` columns of every response at `indices`, from
    one no-grad lockstep pass, sequence by sequence in the caller's order."""
    parts, seqs = [[] for _ in columns], []
    with E.no_grad():
        _, cache = model.begin("eval")
        for step in model.steps([ds.sequences[i].real() for i in indices],
                                cache, disable_stage3):
            read = StepArrays(model, step, cache)
            for name, part in zip(columns, parts):
                part.append(getattr(read, name))
            seqs.extend(step.seqs)
    order = np.argsort(np.asarray(seqs, dtype=np.int64), kind="stable")
    return [np.concatenate(part)[order] if part else np.zeros(0)
            for part in parts]


def _predictions(model: GrktModel, ds: Dataset, indices,
                 cfg: TrainConfig) -> np.ndarray:
    """(n, 2) (score, label) rows of every response at `indices`."""
    return np.column_stack(lockstep(model, ds, indices, cfg.disable_stage3,
                                    "scores", "labels"))


def evaluate(model: GrktModel, ds: Dataset, indices,
             cfg: TrainConfig) -> metrics.ReasonabilityReport:
    """All five metrics over the given sequences, from one lockstep pass of
    the recurrence."""
    scores, labels, questions, mastery, reask, ratios = lockstep(
        model, ds, indices, cfg.disable_stage3, "scores", "labels",
        "questions", "mastery", "reask", "consistency")
    pairs = np.column_stack((scores, labels))
    return metrics.ReasonabilityReport(
        auc=metrics.auc(pairs),
        acc=metrics.accuracy(pairs),
        consistency=metrics.mean_consistency(ratios),
        gaucm=metrics.gaucm(metrics.EvalRecord(
            score=scores, label=labels, question=questions, mastery=mastery)),
        repetition=metrics.accuracy(np.column_stack((reask, labels))),
    )


def train_fold(ds: Dataset, fold: FoldSplit, cfg: TrainConfig,
               graphs: KcRelationGraphs | None = None,
               compute_test_metrics: bool = True) -> tuple[GrktModel, TrainReport]:
    """Train on one fold with early stopping; returns the best checkpoint."""
    start = time.time()
    if graphs is None:
        graphs = graphs_for_fold(ds, fold, cfg)
    else:
        graphs = apply_ablation(graphs, cfg)

    hp = cfg.hp
    model = GrktModel(hp, ds.n_questions, ds.n_kcs, graphs)
    rng = np.random.default_rng(hp.seed)
    report = TrainReport()

    best_snapshot = model.store.snapshot()
    stale = 0
    train_idx = np.array(fold.train)

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(train_idx))
        epoch_loss = 0.0
        n_steps = 0
        for b, lo in enumerate(range(0, len(order), hp.batch_size)):
            batch = train_idx[order[lo:lo + hp.batch_size]]
            _, cache = model.begin("train")
            try:  # every exit ends the recording (and its collector pause)
                preds = [(step.a_hat,
                          np.array([r.correct for r in step.responses]))
                         for step in model.steps(
                             [ds.sequences[i].real() for i in batch], cache,
                             cfg.disable_stage3)]
                loss = bce_loss_node(preds)
                loss_val = loss.value.item()
                if not np.isfinite(loss_val):
                    raise TrainingDiverged(epoch, b)
                model.store.zero_grad()
                model.store.backward(loss)
            finally:
                model.store.release()
            model.store.adam_step(hp.lr, l2=hp.l2)
            n_preds = sum(len(step_preds) for _, step_preds in preds)
            epoch_loss += loss_val * n_preds
            n_steps += n_preds
        report.train_losses.append(epoch_loss / max(n_steps, 1))

        val = _predictions(model, ds, fold.val, cfg)
        try:
            val_auc = metrics.auc(val)
        except (metrics.UndefinedMetric, ValueError):
            val_auc = 0.5  # degenerate validation set: no early-stop signal
        report.val_auc.append(val_auc)
        report.val_acc.append(metrics.accuracy(val) if len(val) else 0.0)

        if val_auc > report.best_val_auc:
            report.best_val_auc = val_auc
            report.best_epoch = epoch
            best_snapshot = model.store.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.hp.patience:
                break

    model.store.restore(best_snapshot)
    if compute_test_metrics:
        report.test_metrics = evaluate(model, ds, fold.test, cfg).to_dict()
    report.wall_clock = time.time() - start
    return model, report


@dataclass
class CrossValReport:
    fold_reports: list[TrainReport]
    mean: dict[str, float]
    std: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "folds": [r.to_dict() for r in self.fold_reports],
        }


def cross_validate(ds: Dataset, cfg: TrainConfig, k: int = 5,
                   graphs: KcRelationGraphs | None = None,
                   val_frac: float = 0.1) -> CrossValReport:
    """k-fold protocol; aggregates each test metric's mean and std."""
    folds = make_folds(ds, k=k, val_frac=val_frac, seed=cfg.hp.seed)
    reports = []
    for fold in folds:
        _, report = train_fold(ds, fold, cfg, graphs=graphs)
        reports.append(report)
    keys = reports[0].test_metrics.keys()
    mean = {k_: float(np.mean([r.test_metrics[k_] for r in reports])) for k_ in keys}
    std = {k_: float(np.std([r.test_metrics[k_] for r in reports])) for k_ in keys}
    return CrossValReport(fold_reports=reports, mean=mean, std=std)
