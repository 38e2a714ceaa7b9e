"""Straight-line oracles the tests compare the program against.

Each function restates one concept of the model, the graph statistics or the
metrics in its most direct scalar form: one KC pair, one memory row, one
response at a time. The program computes the same quantities batched on the
tape; tests check it against these. The probes of the recurrence are
consumers of `GrktModel.steps` that only tests need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphkt import engine as E
from graphkt import metrics
from graphkt.data import Dataset, Response, ResponseSequence
from graphkt.graphs import (GRAPH_KINDS, GraphBuildConfig, KcRelationGraphs,
                            PairCounts, build_graphs, pair_counts)
from graphkt.metrics import UndefinedMetric, accuracy, auc
from graphkt.model import StepArrays


# -- learned scores and projections -------------------------------------------


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def sigmoid_two_masks(x: np.ndarray) -> np.ndarray:
    """The logistic function as two boolean-mask scatters: 1 / (1 + exp(-x))
    where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def edge_correlation(store, ci: int, cj: int, which: str) -> float:
    """Learned correlation of two KCs on one graph, in (0, 1)."""
    k = store.value("emb.k")
    return float(_sigmoid(k[ci] @ store.value(f"cor.{which}") @ k[cj]))


def question_kc_score(store, q: int, c: int) -> float:
    """Learned requirement score of a question for a KC, in (0, 1)."""
    e_q = store.value("emb.q")[q]
    k_c = store.value("emb.k")[c]
    return float(_sigmoid(e_q @ store.value("req") @ k_c))


def _softmax(raw: np.ndarray, axis: int) -> np.ndarray:
    ex = np.exp(raw - raw.max(axis=axis, keepdims=True))
    return ex / ex.sum(axis=axis, keepdims=True)


def constrain_nonneg_vector(raw) -> np.ndarray:
    """Softmax a raw vector into strictly positive weights summing to 1."""
    return _softmax(np.asarray(raw, dtype=np.float64), axis=-1)


def constrain_nonneg_matrix(raw) -> np.ndarray:
    """Softmax each column of a raw square matrix along the input dimension.

    Every entry is strictly positive and each column sums to 1, so the matrix
    acts as a non-negative mixing map on memory vectors.
    """
    return _softmax(np.asarray(raw, dtype=np.float64), axis=0)


def mastery(store, H_value: np.ndarray, c: int) -> float:
    """Project one KC's memory row to its scalar mastery."""
    w = constrain_nonneg_vector(store.value("w_h")).ravel()
    return float(H_value[c] @ w)


# -- one key's rows of the per-question tables --------------------------------


def readout(cache, q: int, kcs: tuple[int, ...]) -> E.Node:
    """Stage-1 coefficients of question `q` over the sorted KC set `kcs`.

    One row per `model.plan(kcs).output_rows` KC: the stage-1 mastery of a
    memory H is the sum of H's rows there times these coefficients. They are
    the retrieval head's transpose run along the plan stage 2 uses, from the
    read-out seed, softmax(w_h) / |kcs| on every examined KC.
    """
    keys = cache.keys([q], [kcs])
    return E.gather_rows(keys.tables.coef, keys.readout_index()[0][0])


def difficulty(cache, q: int, kcs: tuple[int, ...]) -> E.Node:
    """The learned difficulty of key (q, kcs), (1,)."""
    return cache.keys([q], [kcs]).difficulty()


def question_term(cache, head: str, part: int, q: int,
                  kcs: tuple[int, ...]) -> E.Node:
    """Key (q, kcs)'s (1, d_h) question term in MLP head `head`'s first
    layer (`BatchCache.term_table`)."""
    return cache.keys([q], [kcs]).terms(cache, head, part, np.zeros(1, int), 1)


def alpha_col(cache, q: int) -> E.Node:
    """The (n_kcs, 1) requirement scores of question `q` for each KC."""
    return E.transpose(cache.requirement(
        E.gather_rows(cache.bound["emb.q"], [q])))


# -- tape ops the model no longer records -------------------------------------


def sum_axis(a, axis, keepdims: bool = True) -> E.Node:
    """Sum over one axis, or a tuple of axes, as a tape op: the primitive
    the fused engine chains replaced."""
    a = E.as_node(a)
    val = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape).copy()

    return E._make(val, ((a, vjp),))


def clamped_exp(a) -> E.Node:
    """exp(clip(x, EXP_CLAMP_LO, EXP_CLAMP_HI)) as a tape op: the kernel's
    primitive, which learning chained before it shared `E.forget`."""
    a = E.as_node(a)
    inside = (a.value >= E.EXP_CLAMP_LO) & (a.value <= E.EXP_CLAMP_HI)
    E._log_mask(inside)
    out = np.exp(np.clip(a.value, E.EXP_CLAMP_LO, E.EXP_CLAMP_HI))
    return E._make(out, ((a, lambda g: g * out * inside),))


# -- the padded block gather --------------------------------------------------


def flat_index(shape, ix) -> np.ndarray:
    """Positions in the raveled array of `shape` that the block `ix` selects.

    `ix` is a pair of non-negative row and column index arrays that
    broadcast against each other, with a leading `slice(None)` for a
    (G, R, K) stack. The result is the C-ordered index of the broadcast
    shape, built with two broadcast adds; for a stack the (G, 1, 1) matrix
    offsets join the broadcast, so the stack axis comes third from last.
    (n, 1) rows and (1, m) columns select an (n, m) block, and (1, n) rows
    and (m, 1) columns the transposed block. Index arrays with more axes
    select a batch of blocks: (B, 1, n, 1) rows and (B, 1, 1, m) columns
    read a (B, G, n, m) batch of stacked blocks, and (B, 1, 1, m) rows and
    (B, 1, n, 1) columns the batch of their transposes.
    """
    rows, cols = ix[-2], ix[-1]
    if len(ix) == 2:
        return rows * shape[1] + cols
    mat_size = shape[1] * shape[2]
    offsets = np.arange(0, shape[0] * mat_size, mat_size)[:, None, None]
    return rows * shape[2] + offsets + cols


def every_entry(shape, ix) -> tuple:
    """`E.gather_submatrix`'s arguments after the operand, to read every
    entry of the block `ix` (`flat_index`) of an array of `shape`."""
    flat = flat_index(shape, ix)
    return flat.shape, np.arange(flat.size), flat.reshape(-1)


def padded_block(layer, gt, transposed: bool) -> tuple:
    """`gnn.Layer.edge_block` as blocks were read before they read only
    their edges: every entry of the layer's padded blocks, edge or not,
    through the flat index of the whole batch, rebuilt on each read."""
    rows, cols = layer.cur[:, None, :, None], layer.prev[:, None, None, :]
    if transposed:
        rows, cols = cols, rows
    return every_entry(gt.mask_norm.shape, (slice(None), rows, cols))


def gather_submatrix(a, shape, block_pos, src_pos) -> E.Node:
    """Reference block gather of every entry (`every_entry` positions), as
    the engine gathered blocks before they read only their edges: `take`
    through the flat index, and a vjp that adds every entry's gradient with
    `np.add.at` through the same index into the parent's raveled buffer.
    Backward adds the entries of one position in the same order as the
    engine's gather does, so gradients agree bitwise."""
    a = E.as_node(a)
    if not np.array_equal(block_pos, np.arange(np.prod(shape))):
        raise ValueError("the reference gather reads every entry in order")
    return E._make(a.value.take(src_pos).reshape(shape), ((a, lambda g: (
        E.SparseGrad(src_pos, g.reshape(-1), raveled=True))),))


# -- graph structure and statistics -------------------------------------------


def hop_support(graphs: KcRelationGraphs, seeds, hops: int) -> set[int]:
    """KCs within `hops` steps of the seeds over P, S and R.

    An independent breadth-first expansion over the union adjacency.
    """
    adj = {c: set() for c in range(graphs.n_kcs)}
    for which in GRAPH_KINDS:
        for c in range(graphs.n_kcs):
            adj[c] |= set(graphs.neighbors(which, c))
    seen = set(seeds)
    frontier = set(seeds)
    for _ in range(hops):
        frontier = {n for c in frontier for n in adj[c]} - seen
        seen |= frontier
    return seen


def similarity_score(ds: Dataset, ci: int, cj: int,
                     min_cooccurrence: int = 10,
                     counts: PairCounts | None = None) -> float | None:
    """Fraction of ordered (ci, cj) pairs answered with equal correctness.

    Returns None when the pair count is below the floor or ci == cj.
    """
    if ci == cj:
        return None
    counts = counts or pair_counts(ds)
    denom = counts.co[ci, cj]
    if denom < min_cooccurrence:
        return None
    return float(counts.equal[ci, cj] / denom)


def prerequisite_score(ds: Dataset, ci: int, cj: int,
                       min_cooccurrence: int = 10,
                       counts: PairCounts | None = None) -> float | None:
    """Among discordant ordered (ci, cj) pairs, fraction with ci correct."""
    if ci == cj:
        return None
    counts = counts or pair_counts(ds)
    denom = counts.discord[ci, cj]
    if denom < min_cooccurrence:
        return None
    return float(counts.first_correct[ci, cj] / denom)


def build_graphs_loops(ds: Dataset, cfg: GraphBuildConfig,
                       sequence_indices=None) -> KcRelationGraphs:
    """`build_graphs` thresholded one KC pair at a time, in (i, j) order."""
    counts = pair_counts(ds, sequence_indices)
    n = ds.n_kcs
    min_co = cfg.min_cooccurrence

    pre = np.full((n, n), -1.0)
    ok = counts.discord >= min_co
    pre[ok] = counts.first_correct[ok] / counts.discord[ok]

    p_edges: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(n):
            if i == j or pre[i, j] < cfg.eta:
                continue
            if pre[j, i] >= cfg.eta and pre[j, i] > pre[i, j]:
                continue  # the reverse direction is stronger
            p_edges[(i, j)] = float(pre[i, j])

    sim = np.full((n, n), -1.0)
    ok = counts.co >= min_co
    sim[ok] = counts.equal[ok] / counts.co[ok]
    sim_sym = np.maximum(sim, sim.T)

    r_edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if sim_sym[i, j] >= cfg.eta:
                r_edges[(i, j)] = float(sim_sym[i, j])
    return KcRelationGraphs(n, p_edges, r_edges)


@dataclass
class RecoveryReport:
    precision: dict[str, float]
    recall: dict[str, float]
    mined_edges: dict[str, int]
    planted_edges: dict[str, int]


def planted_graph_recovery_check(ds: Dataset, planted: KcRelationGraphs,
                                 cfg: GraphBuildConfig) -> RecoveryReport:
    """Compare statistics-mined edges against the planted ground truth."""
    mined = build_graphs(ds, cfg)
    precision, recall, n_mined, n_planted = {}, {}, {}, {}

    def undirected(scores):
        return {tuple(sorted(e)) for e in scores}

    for kind, mined_set, planted_set in (
        ("P", set(mined.p_scores), set(planted.p_scores)),
        ("R", undirected(mined.r_scores), undirected(planted.r_scores)),
    ):
        hit = len(mined_set & planted_set)
        precision[kind] = hit / len(mined_set) if mined_set else 1.0
        recall[kind] = hit / len(planted_set) if planted_set else 1.0
        n_mined[kind] = len(mined_set)
        n_planted[kind] = len(planted_set)
    return RecoveryReport(precision=precision, recall=recall,
                          mined_edges=n_mined, planted_edges=n_planted)


# -- probes of the recurrence -------------------------------------------------


def predict_next(model, history, q_next: int, kcs_next, t_next: int, cache,
                 disable_stage3: bool = False) -> float:
    """Replay a history, bridge the final gap, and score a new question."""
    probe = Response(q_next, kcs_next, 0, t_next)  # its label is never read
    *_, last = model.steps([[*history, probe]], cache, disable_stage3)
    return last.a_hat.value.item()


def reask_scores(model, seq, disable_stage3: bool = False):
    """Counterfactual immediate re-ask of each answered question: (score,
    observed correctness) per response."""
    with E.no_grad():
        _, cache = model.begin("eval")
        return [(float(StepArrays(model, step, cache).reask[0]),
                 step.responses[0].correct)
                for step in model.steps([seq.real()], cache, disable_stage3)]


class Reasker:
    """A `GrktModel` in the protocol `repetition` reads."""

    def __init__(self, model):
        self.model = model

    def reask_scores(self, seq, disable_stage3: bool = False):
        return reask_scores(self.model, seq, disable_stage3)


@dataclass
class SeqTrace:
    """The mastery trace of one sequence run alone, row t for its real
    response t."""
    student: int
    seq_index: int
    responses: list[Response]
    scores: np.ndarray    # (T,) stage-1 P(correct)
    pre: np.ndarray       # (T, C) per-KC mastery before strengthening
    post: np.ndarray      # (T, C) per-KC mastery after it
    examined: np.ndarray  # (T, C) mask of each response's KCs


def trace_alone(model, seq: ResponseSequence, cache, seq_index: int = 0,
                disable_stage3: bool = False) -> SeqTrace:
    """Run `seq` alone through `GrktModel.steps` and read each step through
    `StepArrays` as the recurrence reaches it."""
    rows = []
    for step in model.steps([seq.real()], cache, disable_stage3):
        read = StepArrays(model, step, cache)
        rows.append((read.scores, read.pre, read.post, read.examined))
    scores, pre, post, examined = (np.concatenate(col) for col in zip(*rows))
    return SeqTrace(seq.student, seq_index, seq.real(), scores, pre, post,
                    examined)


def trace_ratios(traces) -> np.ndarray:
    """Every step's `metrics.consistency_ratios`, trace after trace."""
    return np.concatenate([metrics.consistency_ratios(t.pre, t.post,
                                                      t.examined)
                           for t in traces])


def trace_rows(trace: SeqTrace) -> list[dict]:
    """Flatten a trace to plot-ready rows, one per (step, KC): the rows
    `graphkt trace` writes."""
    rows = []
    for t, r in enumerate(trace.responses):
        for c in range(trace.pre.shape[1]):
            rows.append({
                "student": trace.student,
                "seq_index": trace.seq_index,
                "step": t,
                "timestamp": r.timestamp,
                "kc": c,
                "mastery_pre": float(trace.pre[t, c]),
                "mastery_post": float(trace.post[t, c]),
                "predicted": float(trace.scores[t]),
                "correct": r.correct,
            })
    return rows


# -- loss and metrics ---------------------------------------------------------


def bce_loss(predictions) -> float:
    """Mean binary cross entropy over unmasked (score, label, mask) triples.

    Scores are clamped to [1e-7, 1 - 1e-7] before the log.
    """
    total = 0.0
    count = 0
    for score, label, mask in predictions:
        if not mask:
            continue
        p = min(max(score, 1e-7), 1.0 - 1e-7)
        total += -(np.log(p) if label == 1 else np.log(1.0 - p))
        count += 1
    if count == 0:
        raise ValueError("loss over an empty unmasked set is undefined")
    return total / count


def repetition(model, sequences, disable_stage3: bool = False) -> float:
    """Accuracy of immediately re-asked questions against the observed answer.

    `model.reask_scores(seq, disable_stage3)` must return, per real response,
    the model's probability for the same question asked again right after
    the response was processed (a counterfactual probe: the re-ask itself
    must not change the model state), with the stage-3 ablation applied.
    """
    pairs = []
    for seq in sequences:
        pairs.extend(model.reask_scores(seq, disable_stage3))
    return accuracy(pairs)


def gaucm_per_question(records) -> float:
    """GAUCM as a loop over the questions: each question's `auc` of mastery
    against correctness, weighted by its answer count; questions with one
    outcome class are left out."""
    by_question: dict[int, list[tuple[float, int]]] = {}
    for r in records:
        by_question.setdefault(r.question, []).append((r.mastery, r.label))
    num = 0.0
    den = 0.0
    for q in sorted(by_question):
        pairs = by_question[q]
        try:
            score = auc(pairs)
        except UndefinedMetric:
            continue
        num += len(pairs) * score
        den += len(pairs)
    if den == 0:
        raise UndefinedMetric("no question has both outcome classes")
    return num / den
