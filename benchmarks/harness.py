"""The benchmark's phases: set-up, closed-loop training, evaluation, checks.

The program is driven through graphkt's public API the way
`graphkt.train.train_fold` drives it: CSV ingest, preprocess, folds, graphs
(mined or loaded), model, then training steps (forward over a batch, BCE,
backward, Adam) and no-grad `train.evaluate` passes. One process, one Python
thread; the caller pins BLAS threads before numpy loads.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphkt
from graphkt import data, engine, graphs, metrics, model, train

from tracer import ENGINE_OPS, Tracer, install
import workloads
from workloads import Corpus, Workload

EVAL_SHARE = 0.25  # of the measured time spent in evaluate passes


class CheckFailed(Exception):
    """An output check failed; the message names the check."""


@dataclass
class Setup:
    ds: data.Dataset
    fold: data.FoldSplit
    model: model.GrktModel
    cfg: train.TrainConfig


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, check: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(check)


def setup(w: Workload, corpus: Corpus) -> Setup:
    """Everything `setup_s` measures: ingest to an initialised model."""
    ds = data.ingest_csv(corpus.data_csv)
    ds = data.preprocess(ds, seq_len=w.seq_len, min_len=workloads.MIN_LEN)
    fold = data.make_folds(ds, k=5, val_frac=0.1, seed=0)[0]
    if w.graph_source == "labelled":
        g = graphs.load_labeled_graphs(corpus.labels_csv, min_confidence=5.0,
                                       n_kcs=ds.n_kcs)
    else:
        g = graphs.build_graphs(ds, graphs.GraphBuildConfig(eta=workloads.ETA),
                                sequence_indices=list(fold.train) + list(fold.val))
    hp = model.HyperParams(d_e=w.d_e, d_k=w.d_k, d_h=w.d_h, layers=w.layers,
                           eta=workloads.ETA, batch_size=w.batch_size)
    m = model.GrktModel(hp, ds.n_questions, ds.n_kcs, g)
    return Setup(ds=ds, fold=fold, model=m, cfg=train.TrainConfig(hp=hp))


class Batches:
    """Seeded, epoch-wise shuffled training batches (full batches only)."""

    def __init__(self, s: Setup, seed: int):
        self.idx = np.array(s.fold.train)
        self.size = s.model.hp.batch_size
        self.rng = np.random.default_rng(seed)
        self.order = np.empty(0, dtype=np.int64)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos + self.size > len(self.order):
            self.order = self.rng.permutation(len(self.idx))
            self.pos = 0
        batch = self.idx[self.order[self.pos:self.pos + self.size]]
        self.pos += self.size
        return batch


def train_step(s: Setup, batch) -> tuple[int, float]:
    """One full training step; returns (responses, loss)."""
    m = s.model
    _, cache = m.begin("train")
    preds = []
    for idx in batch:
        res = m.forward_sequence(s.ds.sequences[idx], cache,
                                 disable_stage3=s.cfg.disable_stage3)
        preds.extend(res.preds)
    loss = train.bce_loss_node(preds)
    loss_val = loss.value.item()
    if not math.isfinite(loss_val):
        engine.stop_tape()
        return len(preds), loss_val
    m.store.zero_grad()
    m.store.backward(loss)
    m.store.adam_step(m.hp.lr, l2=m.hp.l2)
    return len(preds), loss_val


def _save_state(store: engine.ParameterStore):
    """Parameters, Adam moments and step count, to replay training from."""
    return store.step_count, {n: (store[n].value.copy(), store[n].m.copy(),
                                  store[n].v.copy()) for n in store.names()}


def _load_state(store: engine.ParameterStore, state) -> None:
    store.step_count, arrays = state
    for n, (value, m, v) in arrays.items():
        store[n].value[...] = value
        store[n].m[...] = m
        store[n].v[...] = v


def burn_in(s: Setup, w: Workload, seed: int, out: Outcome) -> None:
    """Untimed training steps past the start-up transient.

    In the first steps from initialisation the stage-3 decision head opens
    for many KCs. Training closes it within about ten steps (on `desk` to
    a few KCs per call), and it stayed so for as long as it was probed:
    150 steps on `paper`, 80 on `desk` and `wide-sparse`. The timed steps
    start after this transient, in the regime where training spends nearly
    all of its steps.
    """
    batches = Batches(s, seed + 1)
    for step in range(w.burn_in_steps):
        out.attempted += 1
        _, loss = train_step(s, batches.next())
        if not math.isfinite(loss):
            out.fail(f"training loss non-finite at burn-in step {step + 1}: "
                     f"{loss!r}")
            return


def eval_indices(s: Setup, w: Workload) -> list[int]:
    return list(s.fold.test[:w.eval_sequences])


def checked_auc(s: Setup, out: Outcome) -> float | None:
    """AUC over the whole test fold; every prediction must lie in (0, 1).

    One op per sequence. The scores are those `train.evaluate` scores, from
    the same no-grad forward pass without its trace and re-ask.
    """
    m = s.model
    pairs = []
    with engine.no_grad():
        _, cache = m.begin("eval")
        for idx in s.fold.test:
            out.attempted += 1
            try:
                res = m.forward_sequence(s.ds.sequences[idx], cache,
                                         disable_stage3=s.cfg.disable_stage3)
                scored = [(p.value.item(), a) for p, a in res.preds]
            except (ArithmeticError, ValueError) as exc:
                out.fail(f"eval sequence {idx} raised {exc!r}")
                continue
            bad = [x for x, _ in scored if not 0.0 < x < 1.0]
            if bad:
                out.fail(f"eval prediction outside (0, 1) in sequence {idx}: "
                         f"{bad[0]!r}")
            pairs.extend(scored)
    try:
        auc = metrics.auc(pairs)
    except metrics.UndefinedMetric as exc:
        out.fail(f"eval_auc undefined: {exc}")
        return None
    if not math.isfinite(auc):
        out.fail(f"eval_auc non-finite: {auc!r}")
        return None
    return auc


def evaluate_pass(s: Setup, indices, out: Outcome):
    """One timed `train.evaluate`; returns (responses, seconds)."""
    n = sum(s.ds.sequences[i].valid_len for i in indices)
    out.attempted += len(indices)
    t0 = time.perf_counter()
    try:
        report = train.evaluate(s.model, s.ds, indices, s.cfg)
    except metrics.UndefinedMetric as exc:
        out.fail(f"evaluate: undefined metric: {exc}", len(indices))
        return n, time.perf_counter() - t0
    dt = time.perf_counter() - t0
    if report.consistency != 1.0:
        out.fail(f"consistency is {report.consistency!r}, not exactly 1.0",
                 len(indices))
    elif not all(math.isfinite(v) for v in report.to_dict().values()):
        out.fail(f"non-finite eval metric in {report.to_dict()}", len(indices))
    return n, dt


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest nearest-rank percentile with at least 10 samples above it."""
    n = len(samples)
    if n < 11:
        raise CheckFailed(f"only {n} training steps; the tail needs 11")
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return sorted(samples)[rank - 1], pct


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# untraced run: the end-to-end metrics


def timed_setup(w: Workload, corpus: Corpus) -> tuple[Setup, float]:
    gc.collect()  # earlier phases' garbage is not set-up's to collect
    t0 = time.perf_counter()
    s = setup(w, corpus)
    return s, time.perf_counter() - t0


def run_untraced(w: Workload, corpus: Corpus, seed: int, seconds: float):
    """Set-up, burn-in, then `seconds` of training interleaved with evaluation.

    Training runs in cycles: after `cycle_steps` steps the parameters, Adam
    state and batch order go back to where the first cycle began (after the
    burn-in). The work per step, peak memory and `eval_auc` (measured on the
    model at the end of the first cycle) therefore do not depend on how many
    steps fit in the window, i.e. on speed. At least one cycle always runs.

    The host's speed drifts over tens of seconds, so the three kinds of
    sample are spread over the whole measured window instead of being taken
    one phase after another: an evaluate pass runs whenever evaluation has
    had less than EVAL_SHARE of the measured time, and set-up is repeated at
    evenly spaced moments. `setup_s` is their median: set-up is short, so a
    slow spell of the host can double a single sample, and the fastest
    sample varied more between runs than the median did.
    """
    out = Outcome()
    s, dt = timed_setup(w, corpus)
    setup_times = [dt]
    indices = eval_indices(s, w)
    burn_in(s, w, seed, out)
    first_state = _save_state(s.model.store)
    batches = Batches(s, seed)

    step_ms, train_n, eval_n, eval_s, snapshot = [], 0, 0, 0.0, None
    t_start = time.perf_counter()
    while not out.failed:
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and len(step_ms) >= w.cycle_steps:
            break
        if len(setup_times) < w.setup_repeats * min(elapsed / seconds, 1.0):
            setup_times.append(timed_setup(w, corpus)[1])
        elif eval_s < EVAL_SHARE * elapsed:
            n, dt = evaluate_pass(s, indices, out)
            eval_n += n
            eval_s += dt
        else:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                n, loss = train_step(s, batches.next())
            except Exception:  # counted as a failed op, reported with its traceback
                out.fail(f"training step {len(step_ms) + 1} raised:\n"
                         f"{traceback.format_exc()}")
                break
            step_ms.append(1000.0 * (time.perf_counter() - t0))
            train_n += n
            if not math.isfinite(loss):
                out.fail(f"training loss non-finite at step {len(step_ms)}: "
                         f"{loss!r}")
            if len(step_ms) % w.cycle_steps == 0:
                if snapshot is None:
                    snapshot = s.model.store.snapshot()
                _load_state(s.model.store, first_state)
                batches = Batches(s, seed)

    auc = None
    if not out.failed:
        s.model.store.restore(snapshot)
        auc = checked_auc(s, out)

    values, info = {}, {}
    if not out.failed:
        tail_ms, tail_pct = tail(step_ms)
        values = {
            "train_resp_per_s": (train_n / (sum(step_ms) / 1000.0), "resp/s"),
            "train_step_p50_ms": (statistics.median(step_ms), "ms"),
            "train_step_tail_ms": (tail_ms, "ms"),
            "eval_resp_per_s": (eval_n / eval_s, "resp/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "eval_auc": (auc, "AUC"),
        }
        info["train_step_tail_ms"] = (tail_ms, "ms",
                                      f"p{tail_pct} of {len(step_ms)} steps")
    info["failed_ops_share"] = (out.failed / max(out.attempted, 1), "share",
                                f"{out.failed} of {out.attempted} ops")
    notes = {
        "train_step_ms": step_ms,
        "train_responses": train_n,
        "eval_responses": eval_n,
        "eval_seconds": eval_s,
        "setup_samples_s": setup_times,
    }
    return out, values, info, notes


# ---------------------------------------------------------------------------
# traced run: the per-layer metrics and the tracing overhead


def _fixed_work(s: Setup, w: Workload, seed: int, out: Outcome,
                tracer: Tracer | None):
    """`trace_steps` training steps then one evaluate pass; timed."""
    batches = Batches(s, seed)
    responses = 0
    t0 = time.perf_counter()
    for _ in range(w.trace_steps):
        out.attempted += 1
        if tracer is None:
            n, loss = train_step(s, batches.next())
        else:
            with tracer.span("phase.train"):
                n, loss = train_step(s, batches.next())
        responses += n
        if not math.isfinite(loss):
            out.fail(f"training loss non-finite: {loss!r}")
            return responses, time.perf_counter() - t0
    if tracer is None:
        evaluate_pass(s, eval_indices(s, w), out)
    else:
        with tracer.span("phase.eval"):
            evaluate_pass(s, eval_indices(s, w), out)
    return responses, time.perf_counter() - t0


def run_traced(w: Workload, corpus: Corpus, seed: int, spans_path: Path):
    out = Outcome()
    s = setup(w, corpus)
    burn_in(s, w, seed, out)
    state = _save_state(s.model.store)
    responses, untraced_s = _fixed_work(s, w, seed, out, None)

    tracer = Tracer()
    install(tracer, graphkt)
    patches = tracer.patched()
    try:
        with tracer.span("phase.setup"):
            s = setup(w, corpus)
        _load_state(s.model.store, state)
        _, traced_s = _fixed_work(s, w, seed, out, tracer)
    finally:
        tracer.remove()
    Tracer.verify_removed(patches)
    tracer.save(spans_path)
    if out.failed:
        return out, {}, {}, {}
    overhead = traced_s / untraced_s - 1.0
    return out, layer_metrics(tracer, responses, overhead), {}, {
        "trace_steps": w.trace_steps,
        "train_responses": responses,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.start),
        "spans_file": str(spans_path),
    }


def layer_metrics(t: Tracer, train_responses: int, overhead: float) -> dict:
    """Fold the spans and counts into `<module>.<metric>` values."""
    sm = t.summary()

    def stat(label: str, kind: str) -> float:
        nid = t.ids.get(label)
        return 0.0 if nid is None else float(sm[kind][nid])

    def calls(label: str) -> int:
        return int(stat(label, "calls"))

    out = {
        "data.ingest_s": (stat("data.ingest", "wall"), "s"),
        "data.preprocess_s": (stat("data.preprocess", "wall"), "s"),
        "data.rows": (t.counts["data.rows"], "count"),
        "graphs.build_s": (stat("graphs.build", "wall"), "s"),
        "graphs.load_s": (stat("graphs.load", "wall"), "s"),
    }
    for kind in ("P", "S", "R"):
        out[f"graphs.density.{kind}"] = (t.sums[f"graphs.density.{kind}"], "share")
    for stage in ("init", "begin", "stage1", "stage2", "stage3"):
        out[f"model.{stage}_s"] = (stat(f"model.{stage}", "self"), "s")
        out[f"model.{stage}_calls"] = (calls(f"model.{stage}"), "count")
    stage3_calls = calls("model.stage3")
    out["model.stage3_gate_open"] = (
        t.counts["model.stage3_gate_open"] / max(stage3_calls, 1), "KCs/call")

    gnn_calls = calls("gnn.rows") + calls("gnn.full")
    requests, builds = t.counts["gnn.plan_requests"], calls("gnn.plan")
    out.update({
        "gnn.rows_s": (stat("gnn.rows", "self"), "s"),
        "gnn.rows_calls": (calls("gnn.rows"), "count"),
        "gnn.full_s": (stat("gnn.full", "self"), "s"),
        "gnn.full_calls": (calls("gnn.full"), "count"),
        "gnn.plan_s": (stat("gnn.plan", "self"), "s"),
        "gnn.support_frac": (t.sums["gnn.support_rows"] / max(gnn_calls, 1),
                             "share"),
        "gnn.plan_requests": (requests, "count"),
        "gnn.plan_builds": (builds, "count"),
        "gnn.plan_hit_ratio": ((requests - builds) / requests if requests else 0.0,
                               "share"),
    })

    train_phase = t.ids.get("phase.train", -1)
    in_train = sm["root_name"] == train_phase
    fwd_ids = [t.ids[f"engine.fwd.{op}"] for op in ENGINE_OPS
               if f"engine.fwd.{op}" in t.ids]
    train_ops = int(np.isin(sm["name_id"][in_train], fwd_ids).sum())
    for op in ENGINE_OPS:
        out[f"engine.fwd_s.{op}"] = (stat(f"engine.fwd.{op}", "self"), "s")
        out[f"engine.bwd_s.{op}"] = (stat(f"engine.bwd.{op}", "self"), "s")
        out[f"engine.calls.{op}"] = (calls(f"engine.fwd.{op}"), "count")
    out.update({
        "engine.ops_per_resp": (train_ops / train_responses, "ops/resp"),
        "engine.tape_mb_per_resp": (
            t.sums["engine.tape_bytes"] / 1e6 / train_responses, "computed_MB"),
        "engine.backward_s": (stat("engine.backward", "wall"), "s"),
        "engine.adam_s": (stat("engine.adam", "wall"), "s"),
        "train.bce_s": (stat("train.bce", "self"), "s"),
        "train.evaluate_s": (stat("train.evaluate", "wall"), "s"),
    })
    for fn in ("auc", "accuracy", "consistency", "gaucm"):
        out[f"metrics.{fn}_s"] = (stat(f"metrics.{fn}", "self"), "s")
    out.update({
        "runtime.gc_s": (t.sums["runtime.gc_s"], "s"),
        "runtime.gc_collections": (t.counts["runtime.gc_collections"], "count"),
        "runtime.tracing_overhead": (overhead, "share"),
    })
    return out
