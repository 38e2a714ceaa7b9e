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
those input coefficients by running the head's transpose, for a batch of
plans at once on blocks padded to the batch's largest row sets. Stage 1
reads retrieval out that way; the five other heads propagate forward.

Propagation never reaches beyond the layer count in hops, so every head runs
on the row sets of a `Plan`, one per KC set: the set itself, then its 1- to
L-hop supports. Seeded heads (gain/loss/progress) compute only those rows
(`gnn_forward_rows`); the kernel-rate heads (lrn/fgt) run on the plan of
every KC. The neighbor union over P, S and R is symmetric, so the rows that
feed the examined KCs within L hops are the rows they reach: the retrieval
read-out walks the same plan from the examined KCs out to their support. A
plan depends only on the graphs, the layer count and the KC set, so
`GrktModel`, which owns the graphs, builds each one once and reuses it
across stages, steps and evaluation passes.

A layer whose output rows hold every KC multiplies by the whole adjacency
instead of gathering a block of it. Its inputs then enter on all C rows,
exactly zero outside the input set: the residual's scatter already places
them there, so such a layer adds no node. On graphs as dense as the mined
`paper` ones, most layers past the first hop are of this kind. Contracting
over the zero rows too can round differently from the gathered block, by
about one ulp.
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
    """Per-layer row sets of one KC set's hop support, with frozen indices.

    `row_sets[0]` is the KC set and `row_sets[l]` its l-hop support: sorted,
    each holding the one before. `align[l-1]` holds the positions of layer
    l-1's rows among layer l's, where the residual embeds them (missing rows
    are exactly zero), or is None when the two sets are equal. `ix[l-1]`
    selects the (rows_l, rows_{l-1}) adjacency block, or is None when rows_l,
    the layer's output, holds all `n_kcs` KCs: the layer then reads the whole
    adjacency. The read-out (`readout_rows`) walks the same layers for a
    batch of plans: it reads their transposed blocks from the row arrays,
    embeds with `align`, and takes a layer whole when `ix` is None for every
    plan of the batch.
    """

    __slots__ = ("row_sets", "row_arrays", "align", "ix")

    def __init__(self, row_sets: list[tuple[int, ...]], n_kcs: int):
        self.row_sets = tuple(row_sets)
        self.row_arrays = tuple(np.asarray(r, dtype=np.int64) for r in row_sets)
        if any((np.diff(r) <= 0).any() for r in self.row_arrays):
            raise ValueError("row sets must be sorted and distinct")
        self.align = tuple(map(self._embedding, self.row_arrays,
                               self.row_arrays[1:]))
        self.ix = tuple(
            None if len(rows) == n_kcs else np.ix_(rows, prev)
            for prev, rows in zip(self.row_arrays, self.row_arrays[1:]))

    @property
    def output_rows(self) -> tuple[int, ...]:
        return self.row_sets[-1]

    @staticmethod
    def _embedding(prev: np.ndarray, cur: np.ndarray) -> np.ndarray | None:
        pos = np.searchsorted(cur, prev)
        if pos.size and (pos[-1] == len(cur)
                         or not np.array_equal(cur[pos], prev)):
            raise ValueError("row sets must grow and be nested between layers")
        return None if len(prev) == len(cur) else pos


def _hop_row_sets(gt: GraphTensors, kcs, layers: int) -> list[tuple[int, ...]]:
    """Sorted 0..layers-hop neighborhoods of `kcs` over P, S and R."""
    cur = np.zeros(gt.n_kcs, dtype=bool)
    cur[list(kcs)] = True
    row_sets = [tuple(np.flatnonzero(cur).tolist())]
    for _ in range(layers):
        cur |= gt.union[cur].any(axis=0)
        row_sets.append(tuple(np.flatnonzero(cur).tolist()))
    return row_sets


def plan_outward(gt: GraphTensors, kcs, layers: int) -> Plan:
    """The plan of `kcs`: layer l covers their l-hop support."""
    return Plan(_hop_row_sets(gt, kcs, layers), gt.n_kcs)


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

    `x0` holds the layer-0 features for `plan.row_sets[0]` (rows outside the
    seeds are exactly zero and never materialized).
    `agg` is the (G, C, C) degree-normalized, correlation-scaled adjacency
    stack (shared across layers and heads for one parameter state; None when
    no graph has edges) and `weights[l-1]` layer l's stacks. `alpha_col` is
    the (n_kcs, 1) question requirement column and must be present exactly
    when the head uses question scores. Returns the features of
    `plan.output_rows`.

    A layer with `plan.ix[l-1]` None multiplies by `agg` and the whole
    `alpha_col`. If its inputs are fewer than every KC, they are embedded
    in all C rows: by the residual's scatter, or by a scatter of their own
    in a width-changing layer, which has no residual.
    """
    _check_question_context(spec, alpha_col)
    if x0.value.shape != (len(plan.row_sets[0]), spec.dims[0]):
        raise ValueError("layer-0 features do not match the plan's row set")

    out = x0
    for layer in range(1, len(spec.dims)):
        d_prev, d_cur = spec.dims[layer - 1], spec.dims[layer]
        n_cur = len(plan.row_sets[layer])
        idx = plan.align[layer - 1]
        residual = None
        if d_prev == d_cur:
            residual = out if idx is None else E.scatter_rows(out, idx, n_cur)
        ix = plan.ix[layer - 1]
        feats, sub, alpha = out, agg, alpha_col
        if ix is not None:
            if agg is not None:
                sub = E.gather_submatrix(agg, (slice(None), *ix))
            if alpha_col is not None:
                alpha = E.gather_rows(alpha_col, plan.row_arrays[layer - 1])
        elif idx is not None:  # every KC's row, zero outside the inputs
            feats = residual if residual is not None \
                else E.scatter_rows(out, idx, n_cur)
        if alpha is not None:
            feats = E.mul(alpha, feats)
        fused = _messages(feats, sub, weights, layer, n_cur, d_cur)
        out = fused if residual is None else E.add(fused, residual)

    return _apply_output_activation(spec, out)


def readout_rows(spec: GnnSpec, seed: E.Node, plans: list[Plan],
                 weights_t: list[E.Node], agg: E.Node | None,
                 agg_t: E.Node | None, alpha: E.Node | None = None) -> E.Node:
    """Input coefficients of weighted read-outs of a linear head, K at once.

    For a head without feed-forward or output activation (so of constant
    width, every layer with its residual), run over every KC on layer-0
    features `x`, `sum(s_i * out[plans[i].row_sets[0]])` equals
    `sum(c_i * x[plans[i].output_rows])` for each plan i, where `s_i` are the
    seed rows and `c_i` the coefficient rows of plan i. Both are padded: key
    i owns block i of `seed`, (K, N_0, d) with N_0 the largest seed set, and
    of the result, (K, N_L, d); its rows come first in its block, one per
    row-set entry, and the padded rows are exactly zero. Read-out layer k
    runs the head's layer L-k+1 transposed, from rows R_{k-1} out to R_k,

        B_k = alpha[R_k] * sum_g A_g[R_{k-1}, R_k]^T B_{k-1} W_g^T
              + residual(B_{k-1}),

    where `weights_t[l-1]` is layer l's W stack with its last two axes
    swapped (empty when no graph has edges) and the residual embeds each
    key's rows as `gnn_forward_rows` does, with one scatter for the batch.
    The transposed blocks are read from `agg` through each plan's row sets
    swapped, padded to (K, G, N_k, N_{k-1}). A padded column meets a zero
    row of B_{k-1}, and the padded rows' requirement scores are masked to
    zero, so the padded rows of B_k stay exactly zero and the padded block
    entries get exactly zero gradient. A layer whose output rows hold every
    KC for every plan reads `agg_t`, the whole stack with its last two axes
    swapped (None when no plan batch has such a layer), with B_{k-1}
    embedded in all C rows by the residual's scatter (`agg` and `agg_t` are
    None when no graph has edges). `alpha` is the (K, C) table of the keys'
    question requirement scores, present exactly when the head uses them.
    A batch of one plan is the read-out of a single key.
    """
    if spec.use_feedforward or spec.output_activation != "none" \
            or len(set(spec.dims)) != 1:
        raise ValueError(f"head {spec.name!r} is not linear in its input")
    _check_question_context(spec, alpha)
    sizes = np.array([[len(r) for r in p.row_sets] for p in plans])
    n_keys, d = len(plans), spec.dims[-1]
    if seed.value.shape != (n_keys, sizes[:, 0].max(), d):
        raise ValueError("read-out seed does not match the plans' seed rows")

    coef = seed
    n_layers = len(spec.dims) - 1
    for k in range(1, n_layers + 1):
        n_prev, n_cur = sizes[:, k - 1], sizes[:, k]
        width_prev, width = int(n_prev.max()), int(n_cur.max())
        residual = coef
        if any(p.align[k - 1] is not None for p in plans):
            dest = _residual_index(plans, k, n_prev, width_prev, width)
            flat = E.reshape(coef, (n_keys * width_prev, d))
            residual = E.reshape(E.scatter_rows(flat, dest, n_keys * width),
                                 (n_keys, width, d))
        if agg is None:
            coef = residual
            continue
        # `scale`: per output row, the requirement score, times 0 on a
        # padded row (whose messages come from padding, not from the plan)
        if all(p.ix[k - 1] is None for p in plans):  # every KC, every key
            feats, sub = residual, agg_t
            scale = None if alpha is None \
                else E.reshape(alpha, (*alpha.value.shape, 1))
        else:
            feats = coef
            prev = _padded_rows(plans, k - 1, n_prev, width_prev)
            cur = _padded_rows(plans, k, n_cur, width)
            sub = E.gather_submatrix(agg, (slice(None), prev[:, None, None, :],
                                           cur[:, None, :, None]))
            scale = None if alpha is None else E.gather_submatrix(
                alpha, (np.arange(n_keys)[:, None, None], cur[:, :, None]))
            if (n_cur < width).any():
                mask = E.as_node((np.arange(width) < n_cur[:, None])[:, :, None]
                                 .astype(agg.value.dtype))
                scale = mask if scale is None else E.mul(scale, mask)
        fw = E.matmul(E.reshape(feats, (n_keys, 1, *feats.value.shape[1:])),
                      weights_t[n_layers - k])
        back = E.sum_axis(E.matmul(sub, fw), 1, keepdims=False)
        if scale is not None:
            back = E.mul(scale, back)
        coef = E.add(back, residual)
    return coef


def _padded_rows(plans: list[Plan], layer: int, sizes: np.ndarray,
                 width: int) -> np.ndarray:
    """The plans' layer row sets as a (K, width) array, padded with KC 0."""
    rows = np.zeros((len(plans), width), dtype=np.int64)
    rows[np.arange(width) < sizes[:, None]] = np.concatenate(
        [p.row_arrays[layer] for p in plans])
    return rows


def _residual_index(plans: list[Plan], layer: int, n_prev: np.ndarray,
                    width_prev: int, width: int) -> np.ndarray:
    """Where the residual scatter puts each row of the padded blocks of
    layer `layer - 1`.

    Key i's rows go to block i of the layer's (K * width) rows at the plan's
    embed index. Its padded rows, exactly zero, go to the first positions of
    its block that no row of its own reaches (rows new in this layer or
    padding, whose residual is zero): a block has width - n_prev[i] such
    positions, at least the width_prev - n_prev[i] padded rows. So the
    index is unique and the scatter needs no row selection.
    """
    n_keys = len(plans)
    valid = np.arange(width_prev) < n_prev[:, None]
    embed = np.concatenate([
        np.arange(len(p.row_sets[layer - 1])) if p.align[layer - 1] is None
        else p.align[layer - 1] for p in plans])
    pos = np.zeros((n_keys, width_prev), dtype=np.int64)
    pos[valid] = embed
    free = np.ones((n_keys, width), dtype=bool)
    free[np.repeat(np.arange(n_keys), n_prev), embed] = False
    rank = np.cumsum(free, axis=1)
    pos[~valid] = np.nonzero(free & (rank <= (width_prev - n_prev)[:, None]))[1]
    return (pos + (np.arange(n_keys) * width)[:, None]).ravel()
