"""Relation-graph message passing shared by the model's six propagation heads.

Each layer aggregates, per relation graph, the mean over a node's neighbors
of the neighbor feature times a square weight matrix, scaled by a learned
edge-correlation score (and, for the heads that look at the current question,
a question-KC requirement score). A ReLU feed-forward projection follows
unless the head disables it, the graph branches are summed, and a residual
connection applies whenever layer width is preserved.

The graphs that have edges are stacked: the adjacency is one (G, C, C) node
and each layer's weights one (G, d, d) stack (plus the feed-forward stack),
so a layer is one op chain for all graphs at once (`_messages`), summed over
the graph axis at the end. With no edges at all (G = 0) the messages are
zero.

The retrieval head keeps its weights non-negative (softmax-constrained
columns) and drops the feed-forward so that larger neighbor memories can
never reduce the aggregate. Without a feed-forward or an output activation
the head is linear in its layer-0 features, so any fixed weighting of its
output rows equals a weighting of its input rows: `readout_rows` computes
those input coefficients by running the head's transpose backwards over the
same row sets. Stage 1 reads retrieval out that way; the five other heads
propagate forward.

Propagation never reaches beyond the layer count in hops, so every head runs
on the row sets of a `Plan` (`gnn_forward_rows`): seeded heads
(gain/loss/progress) only compute the rows inside the seeds' hop support,
retrieval is read out on the examined rows' inward neighborhood, and the
kernel-rate heads (lrn/fgt) run on the plan seeded with every KC, whose
layers use the whole adjacency as is. Inward and outward plans share one hop
expansion. A plan depends only on the graphs, the layer count and the KC set,
so `GrktModel`, which owns the graphs, builds each one once and reuses it
across steps and evaluation passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as E
from .graphs import GRAPH_KINDS, KcRelationGraphs

OUTPUT_ACTIVATIONS = ("none", "relu", "neg_relu", "softplus")

GNN_NAMES = ("rtv", "gain", "loss", "prg", "lrn", "fgt")


@dataclass(frozen=True)
class GnnSpec:
    name: str
    dims: tuple[int, ...]
    use_feedforward: bool
    use_question_scores: bool
    nonneg_weights: bool
    output_activation: str

    def __post_init__(self):
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if len(self.dims) < 2:
            raise ValueError("at least one layer required")
        if self.nonneg_weights and self.use_feedforward:
            raise ValueError("non-negative heads drop the feed-forward")


def make_specs(d_e: int, d_k: int, layers: int) -> dict[str, GnnSpec]:
    """The six propagation heads used by the three model stages."""
    mem_dims = tuple([d_k] * (layers + 1))
    kernel_dims = tuple([d_e] + [d_k] * layers)
    return {
        "rtv": GnnSpec("rtv", mem_dims, use_feedforward=False,
                       use_question_scores=True, nonneg_weights=True,
                       output_activation="none"),
        "gain": GnnSpec("gain", mem_dims, use_feedforward=True,
                        use_question_scores=True, nonneg_weights=False,
                        output_activation="relu"),
        "loss": GnnSpec("loss", mem_dims, use_feedforward=True,
                        use_question_scores=True, nonneg_weights=False,
                        output_activation="neg_relu"),
        "prg": GnnSpec("prg", mem_dims, use_feedforward=True,
                       use_question_scores=False, nonneg_weights=False,
                       output_activation="relu"),
        "lrn": GnnSpec("lrn", kernel_dims, use_feedforward=True,
                       use_question_scores=False, nonneg_weights=False,
                       output_activation="softplus"),
        "fgt": GnnSpec("fgt", kernel_dims, use_feedforward=True,
                       use_question_scores=False, nonneg_weights=False,
                       output_activation="softplus"),
    }


class GraphTensors:
    """Adjacency masks, pre-scaled by 1/degree, of the graphs with edges.

    `kinds` names those graphs in `GRAPH_KINDS` order and `mask_norm` stacks
    their masks, shape (len(kinds), C, C). Rows with no neighbors are zero,
    so an empty neighbor list contributes nothing instead of dividing by zero.
    `union` is the boolean (C, C) neighbor relation over P, S and R, which
    plans expand hops with.
    """

    def __init__(self, graphs: KcRelationGraphs):
        self.graphs = graphs
        self.n_kcs = graphs.n_kcs
        masks = {}
        for which in GRAPH_KINDS:
            m = np.zeros((graphs.n_kcs, graphs.n_kcs))
            for i in range(graphs.n_kcs):
                nbrs = graphs.neighbors(which, i)
                if nbrs:
                    m[i, list(nbrs)] = 1.0 / len(nbrs)
            if m.any():
                masks[which] = m
        self.kinds: tuple[str, ...] = tuple(masks)
        self.mask_norm = np.stack(list(masks.values())) if masks \
            else np.zeros((0, graphs.n_kcs, graphs.n_kcs))
        self.union = (self.mask_norm > 0).any(axis=0)


class Plan:
    """Per-layer row sets for a restricted propagation, with frozen indices.

    `row_sets[l]` lists the KC rows materialized at layer l; `align[l-1]`
    maps layer l-1 features onto layer l rows for the residual: ("gather",
    idx) when the row set shrinks (inward plans), ("embed", idx) when it
    grows (outward plans, missing rows are exactly zero). `ix[l-1]` selects
    the (rows_l, rows_{l-1}) adjacency block, or is None when both row sets
    hold all `n_kcs` KCs and the block is the whole adjacency. `ix_t[l-1]`
    holds the same two index arrays transposed, which reads the block
    transposed, (rows_{l-1}, rows_l), from the same adjacency; it is None
    exactly when `ix[l-1]` is.
    """

    __slots__ = ("row_sets", "row_arrays", "align", "ix", "ix_t")

    def __init__(self, row_sets: list[tuple[int, ...]], n_kcs: int):
        self.row_sets = tuple(row_sets)
        self.row_arrays = tuple(np.asarray(r, dtype=np.int64) for r in row_sets)
        self.align = tuple(self._alignment(row_sets[l - 1], row_sets[l])
                           for l in range(1, len(row_sets)))
        self.ix = tuple(
            None if len(row_sets[l]) == len(row_sets[l - 1]) == n_kcs
            else np.ix_(self.row_arrays[l], self.row_arrays[l - 1])
            for l in range(1, len(row_sets)))
        self.ix_t = tuple(None if ix is None else (ix[0].T, ix[1].T)
                          for ix in self.ix)

    @property
    def output_rows(self) -> tuple[int, ...]:
        return self.row_sets[-1]

    @staticmethod
    def _alignment(prev_rows, cur_rows):
        prev_pos = {c: i for i, c in enumerate(prev_rows)}
        if set(cur_rows) <= set(prev_rows):
            return ("gather", np.asarray([prev_pos[c] for c in cur_rows],
                                         dtype=np.int64))
        cur_pos = {c: i for i, c in enumerate(cur_rows)}
        if not set(prev_rows) <= set(cur_rows):
            raise ValueError("row sets must be nested between layers")
        return ("embed", np.asarray([cur_pos[c] for c in prev_rows],
                                    dtype=np.int64))


def _hop_row_sets(gt: GraphTensors, kcs, layers: int) -> list[tuple[int, ...]]:
    """Sorted 0..layers-hop neighborhoods of `kcs` over P, S and R."""
    cur = np.zeros(gt.n_kcs, dtype=bool)
    cur[list(kcs)] = True
    row_sets = [tuple(np.flatnonzero(cur).tolist())]
    for _ in range(layers):
        cur |= gt.union[cur].any(axis=0)
        row_sets.append(tuple(np.flatnonzero(cur).tolist()))
    return row_sets


def plan_outward(gt: GraphTensors, seeds, layers: int) -> Plan:
    """Row sets for seeded propagation: layer l covers the l-hop support."""
    return Plan(_hop_row_sets(gt, seeds, layers), gt.n_kcs)


def plan_inward(gt: GraphTensors, targets, layers: int) -> Plan:
    """Row sets for reading specific output rows: the outward sets reversed.

    The neighbor union over P, S and R is symmetric (S reverses P and R is
    undirected), so the rows feeding a target within l hops are exactly the
    rows it reaches within l hops.
    """
    return Plan(_hop_row_sets(gt, targets, layers)[::-1], gt.n_kcs)


def _apply_output_activation(spec: GnnSpec, out: E.Node) -> E.Node:
    if spec.output_activation == "relu":
        return E.relu(out)
    if spec.output_activation == "neg_relu":
        return E.mul(E.relu(out), -1.0)
    if spec.output_activation == "softplus":
        return E.softplus(out)
    return out


# one layer's (W, O) stacks; O is None for heads without a feed-forward
LayerWeights = tuple[E.Node, "E.Node | None"]


def _messages(feats: E.Node, sub: E.Node | None, weights: list[LayerWeights],
              layer: int, n_rows: int, d_cur: int) -> E.Node:
    """Layer `layer`'s messages over all stacked graphs, summed over graphs.

    `sub` is the (G, n_rows, n_feats) adjacency block, or None when no graph
    has edges, in which case the messages are zero.
    """
    if sub is None:
        return E.as_node(np.zeros((n_rows, d_cur), dtype=feats.value.dtype))
    w, o = weights[layer - 1]
    branch = E.matmul(sub, E.matmul(feats, w))
    if o is not None:
        branch = E.matmul(E.relu(branch), o)
    return E.sum_axis(branch, 0, keepdims=False)


def _check_question_context(spec: GnnSpec, alpha_col) -> None:
    if spec.use_question_scores != (alpha_col is not None):
        raise ValueError(f"head {spec.name!r} "
                         f"{'requires' if spec.use_question_scores else 'rejects'} "
                         "question context")


def gnn_forward_rows(spec: GnnSpec, x0: E.Node, plan: Plan, gt: GraphTensors,
                     weights: list[LayerWeights], agg: E.Node | None,
                     alpha_col: E.Node | None = None) -> E.Node:
    """Run one head over a plan's row sets.

    `x0` holds the layer-0 features for `plan.row_sets[0]` (rows outside an
    outward plan's seed support are exactly zero and never materialized).
    `agg` is the (G, C, C) degree-normalized, correlation-scaled adjacency
    stack (shared across layers and heads for one parameter state; None when
    no graph has edges) and `weights[l-1]` layer l's stacks. `alpha_col` is
    the (n_kcs, 1) question requirement column and must be present exactly
    when the head uses question scores. Returns the features of
    `plan.output_rows`.
    """
    _check_question_context(spec, alpha_col)
    if x0.value.shape != (len(plan.row_sets[0]), spec.dims[0]):
        raise ValueError("layer-0 features do not match the plan's row set")

    out = x0
    for layer in range(1, len(spec.dims)):
        d_prev, d_cur = spec.dims[layer - 1], spec.dims[layer]
        n_cur = len(plan.row_sets[layer])
        feats = out
        if alpha_col is not None:
            feats = E.mul(E.gather_rows(alpha_col, plan.row_arrays[layer - 1]),
                          feats)
        sub = agg
        if agg is not None and plan.ix[layer - 1] is not None:
            sub = E.gather_submatrix(agg, (slice(None), *plan.ix[layer - 1]))
        fused = _messages(feats, sub, weights, layer, n_cur, d_cur)
        if d_prev == d_cur:
            mode, idx = plan.align[layer - 1]
            if mode == "gather":
                residual = E.gather_rows(out, idx)
            else:
                residual = E.scatter_rows(out, idx, n_cur)
            out = E.add(fused, residual)
        else:
            out = fused

    return _apply_output_activation(spec, out)


def readout_rows(spec: GnnSpec, seed: E.Node, plan: Plan,
                 weights_t: list[E.Node], agg: E.Node | None,
                 agg_t: E.Node | None, alpha_col: E.Node | None = None) -> E.Node:
    """Input coefficients of a weighted read-out of a linear head.

    For a head without feed-forward or output activation (so of constant
    width, every layer with its residual) and any layer-0 features `x0`,
    `sum(seed * gnn_forward_rows(spec, x0, plan, ...))` equals
    `sum(readout_rows(spec, seed, plan, ...) * x0)`. `seed` holds one row of
    weights per `plan.output_rows` entry; the result holds one row per
    `plan.row_sets[0]` entry. It runs the head's transpose from the output
    rows back over the same row sets,

        B_{l-1} = alpha[R_{l-1}] * sum_g A_g[R_l, R_{l-1}]^T B_l W_g^T
                  + residual^T(B_l),

    where `weights_t[l-1]` is layer l's W stack with its last two axes
    swapped (empty when no graph has edges). The transposed adjacency blocks
    are read from `agg` through `plan.ix_t`; `agg_t`, the whole stack with
    its last two axes swapped, is read only by a layer whose row sets both
    hold every KC and may be None when the plan has none (`agg` and `agg_t`
    are None when no graph has edges). `alpha_col` is as for
    `gnn_forward_rows`.
    """
    if spec.use_feedforward or spec.output_activation != "none" \
            or len(set(spec.dims)) != 1:
        raise ValueError(f"head {spec.name!r} is not linear in its input")
    _check_question_context(spec, alpha_col)
    if seed.value.shape != (len(plan.output_rows), spec.dims[-1]):
        raise ValueError("read-out seed does not match the plan's output rows")

    coef = seed
    for layer in range(len(spec.dims) - 1, 0, -1):
        mode, idx = plan.align[layer - 1]
        if mode == "gather":
            residual = E.scatter_rows(coef, idx, len(plan.row_sets[layer - 1]))
        else:
            residual = E.gather_rows(coef, idx)
        if agg is None:
            coef = residual
            continue
        sub = agg_t
        if plan.ix_t[layer - 1] is not None:
            sub = E.gather_submatrix(agg, (slice(None), *plan.ix_t[layer - 1]))
        back = E.sum_axis(E.matmul(sub, E.matmul(coef, weights_t[layer - 1])),
                          0, keepdims=False)
        if alpha_col is not None:
            back = E.mul(E.gather_rows(alpha_col, plan.row_arrays[layer - 1]),
                         back)
        coef = E.add(back, residual)
    return coef
