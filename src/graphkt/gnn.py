"""Relation-graph message passing shared by the model's six propagation heads.

Each layer aggregates, per relation graph, the mean over a node's neighbors
of the neighbor feature times a square weight matrix, scaled by a learned
edge-correlation score (and, for the heads that look at the current question,
a question-KC requirement score). A ReLU feed-forward projection follows
unless the head disables it, the graph branches are summed, and a residual
connection applies whenever layer width is preserved.

The graphs that have edges are stacked: the adjacency is one (G, C, C) node
and each layer's weights one (G, d, d) stack (plus the feed-forward stack),
so a layer's messages are one `E.messages` node for all graphs at once,
summed over the graph axis. With no edges at all (G = 0) the messages are
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
every KC. Both entry points run a `PlanBatch`, K plans at once on blocks
padded to the batch's widest row sets, with padding rows kept exactly zero;
a single plan is a batch of one, with no padding, and runs the same code.
A batch builds each of its indices once, and a plan keeps its batch of
one, so propagating a plan again does no index work. The neighbor union
over P, S and R is symmetric, so the rows that feed the examined KCs
within L hops are the rows they reach: the retrieval read-out walks the
same plan from the examined KCs out to their support. A plan
depends only on the graphs, the layer count and the KC set, so `GrktModel`,
which owns the graphs, builds each one once and reuses it across stages,
steps and evaluation passes.

A layer whose widest output row set in the batch holds every KC multiplies
by the whole adjacency instead of gathering blocks of it: padding would make
its blocks C rows wide anyway. Its inputs then enter on all C rows of each
block, exactly zero outside the plan's input set: the residual's scatter
already places them there, so such a layer adds no node, and a plan's
output rows outside its support come out exactly zero. On graphs as dense
as the mined `paper` ones, most layers past the first hop are of this kind.
Contracting over the zero rows too can round differently from the gathered
block, by about one ulp.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
    """Per-layer row sets of one KC set's hop support.

    `row_sets[0]` is the KC set and `row_sets[l]` its l-hop support: sorted,
    each holding the one before. `align[l-1]` holds the positions of layer
    l-1's rows among layer l's, where the residual embeds them (missing rows
    are exactly zero), or is None when the two sets are equal. `batch` is
    the plan run alone, a `PlanBatch` of one, built on first use and kept.
    """

    __slots__ = ("row_sets", "row_arrays", "align", "n_kcs", "_batch")

    def __init__(self, row_sets: list[tuple[int, ...]], n_kcs: int):
        self.row_sets = tuple(row_sets)
        self.row_arrays = tuple(np.asarray(r, dtype=np.int64) for r in row_sets)
        if any((np.diff(r) <= 0).any() for r in self.row_arrays):
            raise ValueError("row sets must be sorted and distinct")
        self.n_kcs = n_kcs
        self.align = tuple(map(self._embedding, self.row_arrays,
                               self.row_arrays[1:]))
        self._batch = None

    @property
    def output_rows(self) -> tuple[int, ...]:
        return self.row_sets[-1]

    @property
    def batch(self) -> "PlanBatch":
        """This plan as a batch of one, built once."""
        if self._batch is None:
            self._batch = PlanBatch([self])
        return self._batch

    @staticmethod
    def _embedding(prev: np.ndarray, cur: np.ndarray) -> np.ndarray | None:
        pos = np.searchsorted(cur, prev)
        if pos.size and (pos[-1] == len(cur)
                         or not np.array_equal(cur[pos], prev)):
            raise ValueError("row sets must grow and be nested between layers")
        return None if len(prev) == len(cur) else pos


class Layer(NamedTuple):
    """One layer of a `PlanBatch`: rows l-1 in, rows l out.

    `whole` is the batch's whole-layer rule. `embed` is where the residual
    scatter puts the input blocks' rows among the output blocks' (flat over
    the K blocks), or None when the two layouts are equal. A layer that is
    not whole reads the adjacency blocks of `prev` (K, in width) and `cur`
    (K, out width), the KC ids of its padded input and output rows (padding
    reads KC 0): `block` selects them from a (G, C, C) stack as a
    (K, G, out width, in width) batch, and `alpha_rows` selects the input
    rows' requirement scores from the K stacked (C, 1) columns. `valid`
    (K, out width) marks the output rows that are not padding (None when
    there is none).
    """

    whole: bool
    embed: np.ndarray | None
    prev: np.ndarray | None = None
    cur: np.ndarray | None = None
    valid: np.ndarray | None = None
    block: tuple | None = None
    alpha_rows: np.ndarray | None = None


class PlanBatch:
    """K plans propagated together by `gnn_forward_rows` and `readout_rows`.

    Plan i owns block i of each layer's rows. Layer l >= 1 is whole when the
    batch's widest layer-l row set holds every KC: its blocks are then C rows
    wide, plan i's features sit on the rows of its KC ids and are exactly
    zero elsewhere (no neighbor of its layer l-1 rows lies outside its
    layer-l set), and the layer reads the whole adjacency. Padding would
    make the blocks C rows wide anyway. Layer 0, and a layer that is not
    whole, has blocks as wide as its widest row set: plan i's rows first, in
    row-set order, then padding rows, which the layer keeps exactly zero.
    A batch of one plan, or of plans whose row sets are equally wide, has
    no padding rows.

    Every index is built once, with the batch or on first use.
    `padded[l]` holds the row sets of layer l as a (K, width) array padded
    with KC 0 (None for a whole layer), and `seed_mask` marks the layer-0
    rows that are not padding as a (K * width, 1) column (None when there
    is none). `output_kcs` holds the KC id of every output row, (K, last
    width): a whole layer's block holds every KC in order, and a padded
    block's padding rows get distinct KCs outside the plan's support, so
    the blocks scatter into memory without a padding row meeting a real
    one. `row_sets` are the KCs each layer covers over the whole batch.
    """

    def __init__(self, plans: Sequence[Plan]):
        self.plans = tuple(plans)
        self.n_kcs = n_kcs = self.plans[0].n_kcs
        self.sizes = np.array([[len(r) for r in p.row_sets]
                               for p in self.plans])
        widest = self.sizes.max(axis=0)
        self.whole = (False, *(int(w) == n_kcs for w in widest[1:]))
        self.widths = tuple(n_kcs if whole else int(w)
                            for whole, w in zip(self.whole, widest))
        padded = [(None, None) if whole
                  else pad_ids([p.row_arrays[l] for p in self])
                  for l, whole in enumerate(self.whole)]
        self.padded = tuple(rows for rows, _ in padded)
        self.layers = tuple(self._layer(l, padded[l][1])
                            for l in range(1, len(widest)))
        seeds = padded[0][1]
        self.seed_mask = None if seeds is None else seeds.reshape(-1, 1)

    @staticmethod
    def of(plans) -> "PlanBatch":
        """`plans` as a batch: a batch itself, one plan, or a list of plans."""
        if isinstance(plans, PlanBatch):
            return plans
        if isinstance(plans, Plan):
            return plans.batch
        return PlanBatch(plans) if len(plans) > 1 else plans[0].batch

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)

    @functools.cached_property
    def row_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(set().union(*(p.row_sets[l] for p in self))))
                     for l in range(self.sizes.shape[1]))

    @functools.cached_property
    def output_kcs(self) -> np.ndarray:
        n_keys, width = len(self.plans), self.widths[-1]
        if self.whole[-1]:
            return np.broadcast_to(np.arange(width), (n_keys, width))
        out = _residual_index([p.row_arrays[-1] for p in self],
                              self.sizes[:, -1], width, self.n_kcs)
        return out.reshape(n_keys, width) \
            - (np.arange(n_keys) * self.n_kcs)[:, None]

    def _layer(self, layer: int, valid: np.ndarray | None) -> Layer:
        whole, n_prev = self.whole[layer], self.sizes[:, layer - 1]
        if self.whole[layer - 1]:  # and so this one: the same layout
            return Layer(True, None)
        if whole:  # embed at the KC ids
            embed = [p.row_arrays[layer - 1] for p in self]
        elif all(p.align[layer - 1] is None for p in self):
            embed = None
        else:
            embed = [np.arange(n) if p.align[layer - 1] is None
                     else p.align[layer - 1] for p, n in zip(self, n_prev)]
        if embed is not None:
            embed = _residual_index(embed, n_prev, self.widths[layer - 1],
                                    self.widths[layer])
        if whole:
            return Layer(True, embed)
        prev, cur = self.padded[layer - 1], self.padded[layer]
        offsets = (np.arange(len(self.plans)) * self.n_kcs)[:, None]
        block = (slice(None), cur[:, None, :, None], prev[:, None, None, :])
        return Layer(False, embed, prev, cur, valid, block,
                     (prev + offsets).ravel())

    def positions(self, i: int) -> np.ndarray:
        """Where plan i's output rows sit in its block of the last layer."""
        p = self.plans[i]
        return p.row_arrays[-1] if self.whole[-1] \
            else np.arange(len(p.output_rows))


def pad_ids(lists) -> tuple[np.ndarray, np.ndarray | None]:
    """Lists of ids as an (n, width) array padded with 0, and the mask of
    its entries that are not padding (None when there are none)."""
    if len(lists) == 1:
        return np.asarray(lists[0], dtype=np.int64)[None], None
    sizes = np.fromiter(map(len, lists), np.int64, len(lists))
    valid = np.arange(sizes.max()) < sizes[:, None]
    out = np.zeros(valid.shape, dtype=np.int64)
    out[valid] = np.concatenate(lists)
    return out, None if valid.all() else valid


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


def _check_question_context(spec: GnnSpec, alpha) -> None:
    if spec.use_question_scores != (alpha is not None):
        raise ValueError(f"head {spec.name!r} "
                         f"{'requires' if spec.use_question_scores else 'rejects'} "
                         "question context")


def _row_mask(valid: np.ndarray, shape, dtype) -> E.Node:
    return E.as_node(valid.reshape(shape).astype(dtype))


def gnn_forward_rows(spec: GnnSpec, x0: E.Node, plans, gt: GraphTensors,
                     weights: list[LayerWeights], agg: E.Node | None,
                     alpha: E.Node | None = None) -> E.Node:
    """Run one head over a batch of plans (`PlanBatch.of(plans)`).

    `x0` stacks the K blocks of layer-0 features, block i holding
    `plans[i].row_sets[0]` first (rows outside the seeds are exactly zero and
    never materialized; padding rows must be zero too). `agg` is the
    (G, C, C) degree-normalized, correlation-scaled adjacency stack (shared
    across layers and heads for one parameter state; None when no graph has
    edges) and `weights[l-1]` layer l's stacks. `alpha` is the (K * C, 1)
    column of the plans' question requirement scores, block i for plan i,
    and must be present exactly when the head uses question scores.
    Returns the K blocks of output features, laid out as `PlanBatch`
    describes; their KC ids are `output_kcs`.

    A whole layer multiplies by `agg` and the whole `alpha`. If its inputs
    are fewer than every KC, they are embedded in all C rows: by the
    residual's scatter, or by a scatter of their own in a width-changing
    layer, which has no residual. A layer that is not whole gathers each
    plan's adjacency block and masks its padding rows to zero, so those stay
    zero through the output activation wherever it maps zero to zero.

    `gt` is not read: the batch carries every index. It stays in the
    signature because the benchmark's tracer (`benchmarks/tracer.py`) reads
    the third and fourth arguments as `plans.row_sets` and `gt.n_kcs`.
    """
    batch = PlanBatch.of(plans)
    _check_question_context(spec, alpha)
    n_blocks = len(batch)
    if x0.value.shape != (n_blocks * batch.widths[0], spec.dims[0]):
        raise ValueError("layer-0 features do not match the plans' row sets")

    out = x0
    for layer, lay in enumerate(batch.layers, 1):
        d_prev, d_cur = spec.dims[layer - 1], spec.dims[layer]
        n_cur = n_blocks * batch.widths[layer]
        residual = None
        if d_prev == d_cur:
            residual = out if lay.embed is None \
                else E.scatter_rows(out, lay.embed, n_cur)
        feats, sub, scale = out, agg, alpha
        if not lay.whole:
            if agg is not None:
                sub = E.gather_submatrix(agg, lay.block)
            if alpha is not None:
                scale = E.gather_rows(alpha, lay.alpha_rows)
        elif lay.embed is not None:  # every KC's row, zero outside the inputs
            feats = residual if residual is not None \
                else E.scatter_rows(out, lay.embed, n_cur)
        if scale is not None:
            feats = E.mul(scale, feats)
        if sub is None:  # no graph has edges: the messages are zero
            fused = E.as_node(np.zeros((n_cur, d_cur), dtype=feats.value.dtype))
        else:
            fused = E.messages(feats, sub, *weights[layer - 1], n_blocks)
        if lay.valid is not None:
            fused = E.mul(_row_mask(lay.valid, (-1, 1), fused.value.dtype),
                          fused)
        out = fused if residual is None else E.add(fused, residual)

    return _apply_output_activation(spec, out)


def readout_rows(spec: GnnSpec, seed: E.Node, plans, weights_t: list[E.Node],
                 agg: E.Node | None, agg_t: E.Node | None,
                 alpha: E.Node | None = None) -> E.Node:
    """Input coefficients of weighted read-outs of a linear head, K at once.

    For a head without feed-forward or output activation (so of constant
    width, every layer with its residual), run over every KC on layer-0
    features `x`, `sum(s_i * out[plans[i].row_sets[0]])` equals
    `sum(c_i * x[plans[i].output_rows])` for each plan i, where `s_i` are the
    seed rows and `c_i` the coefficient rows of plan i. Both are blocks of a
    `PlanBatch.of(plans)`: key i owns block i of `seed`, (K, N_0, d) with
    N_0 the largest seed set, and of the result, (K, N_L, d), where
    `positions(i)` locates its rows; padding rows are exactly zero. Read-out
    layer k runs the head's layer L-k+1 transposed, from rows R_{k-1} out
    to R_k,

        B_k = alpha[R_k] * sum_g A_g[R_{k-1}, R_k]^T B_{k-1} W_g^T
              + residual(B_{k-1}),

    where `weights_t[l-1]` is layer l's W stack with its last two axes
    swapped (empty when no graph has edges) and the residual embeds each
    key's rows as `gnn_forward_rows` does, with one scatter for the batch.
    The transposed blocks are read from `agg` through each plan's row sets
    swapped, padded to (K, G, N_k, N_{k-1}). A padded column meets a zero
    row of B_{k-1}, and the padded rows' requirement scores are masked to
    zero, so the padded rows of B_k stay exactly zero and the padded block
    entries get exactly zero gradient. A whole layer reads `agg_t`, the
    whole stack with its last two axes swapped (None when no plan batch has
    such a layer); `agg` and `agg_t` are None when no graph has edges.
    `alpha` is the (K, C) table of the keys' question requirement scores,
    present exactly when the head uses them. A single key is a batch of
    one plan, read out by the same code.
    """
    if spec.use_feedforward or spec.output_activation != "none" \
            or len(set(spec.dims)) != 1:
        raise ValueError(f"head {spec.name!r} is not linear in its input")
    _check_question_context(spec, alpha)
    batch = PlanBatch.of(plans)
    n_keys, d = len(batch), spec.dims[-1]
    if seed.value.shape != (n_keys, batch.widths[0], d):
        raise ValueError("read-out seed does not match the plans' seed rows")

    coef = seed
    n_layers = len(spec.dims) - 1
    for k, lay in enumerate(batch.layers, 1):
        width_prev, width = batch.widths[k - 1], batch.widths[k]
        residual = coef
        if lay.embed is not None:
            flat = E.reshape(coef, (n_keys * width_prev, d))
            residual = E.reshape(
                E.scatter_rows(flat, lay.embed, n_keys * width),
                (n_keys, width, d))
        if agg is None:
            coef = residual
            continue
        # `scale`: per output row, the requirement score, times 0 on a
        # padded row (whose messages come from padding, not from the plan)
        if lay.whole:
            feats, sub = residual, agg_t
            scale = None if alpha is None \
                else E.reshape(alpha, (*alpha.value.shape, 1))
        else:
            feats, (graphs, rows, cols) = coef, lay.block
            sub = E.gather_submatrix(agg, (graphs, cols, rows))  # transposed
            scale = None if alpha is None else E.gather_submatrix(
                alpha, (np.arange(n_keys)[:, None, None], lay.cur[:, :, None]))
            if lay.valid is not None:
                mask = _row_mask(lay.valid, (n_keys, width, 1), agg.value.dtype)
                scale = mask if scale is None else E.mul(scale, mask)
        back = E.messages(feats, sub, weights_t[n_layers - k])
        if scale is not None:
            back = E.mul(scale, back)
        coef = E.add(back, residual)
    return coef


def _residual_index(embeds: list[np.ndarray], n_prev: np.ndarray,
                    width_prev: int, width: int) -> np.ndarray:
    """Where a scatter puts each row of K padded blocks of `width_prev` rows
    into K blocks of `width` rows.

    Block i's rows go to block i at `embeds[i]`. Its padded rows, exactly
    zero, go to the first positions of its block that no row of its own
    reaches (rows new in this layer or padding, whose residual is zero): a
    block has width - n_prev[i] such positions, at least the
    width_prev - n_prev[i] padded rows. So the index is unique and the
    scatter needs no row selection.
    """
    n_keys = len(embeds)
    offsets = (np.arange(n_keys) * width)[:, None]
    if (n_prev == width_prev).all():  # no padded rows: the embeds, stacked
        return (np.stack(embeds) + offsets).ravel()
    valid = np.arange(width_prev) < n_prev[:, None]
    embed = np.concatenate(embeds)
    pos = np.zeros((n_keys, width_prev), dtype=np.int64)
    pos[valid] = embed
    free = np.ones((n_keys, width), dtype=bool)
    free[np.repeat(np.arange(n_keys), n_prev), embed] = False
    rank = np.cumsum(free, axis=1)
    pos[~valid] = np.nonzero(free & (rank <= (width_prev - n_prev)[:, None]))[1]
    return (pos + offsets).ravel()
