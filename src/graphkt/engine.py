"""Reverse-mode differentiation tape over numpy arrays.

This is deliberately not a general autodiff system: it covers exactly the
operations the tracing model is built from (dense matmuls, elementwise
nonlinearities, row gather/scatter, reductions) on a recorded tape, plus
parameter storage, Adam updates and a finite-difference gradient checker.

`ParameterStore.bind` starts a linear recording of every grad-requiring
node; `backward` is one reverse sweep over that recording, which must end at
the loss. Every vjp returns its contribution as an array, or, for a gather,
as a `SparseGrad` (index, values) instead of a zeroed full-size array, so
backward pays for the rows a gather touched. `backward` adds each
contribution to its parent's gradient as it arrives, in place only into
buffers it allocated itself, one per node, and always in reverse tape order;
the reduction order is therefore fixed by tape construction order and two
runs with identical inputs produce bitwise-identical gradients. A weight's
gradient is multiplied per use and summed into its one buffer, so backward
holds a sum per weight, not its uses' operands.

`gather_submatrix` reads a block through one flat index into the raveled
operand, so the block is C-contiguous, and its gradient is added with
`np.add.at` through the same flat index into the raveled buffer: numpy's
fast path for a 1-D index, with duplicate indices summed. Buffers backward
allocates are therefore C-ordered. The index is rebuilt each time rather
than stored; `SparseGrad` gives the memory figures behind that choice.

The sweep consumes the recording: each node leaves it as it is processed and
drops its vjp edges and its gradient (the root keeps its gradient), so the
tape is freed during backward. Leaves are never recorded; their gradients
stay for `ParameterStore.backward` to read. A tape holds no reference cycles,
so Python's cyclic garbage collector has nothing to find in it: it is paused
while a recording is live and put back as it was when the recording stops.
Every recording therefore ends in `ParameterStore.backward` or `release`.

`matmul` takes N-D operands (numpy's batched matmul over leading axes, a 2-D
operand broadcast against a stack); with `stack` this lets one op chain
propagate over all relation graphs at once.

Fused ops record one node for a short fixed chain that runs once or more
per response: `mlp` (an MLP head, relu(x W1 + terms) W2 + b2), `messages`
(a GNN message layer, sum_g [relu](A_g X W_g) [O_g]), `readout` (the
stage-1 sum of gathered memory rows times gathered coefficient rows) and
`forget` (stage-3 decay toward the initial memory). Each computes the
chain's values in the chain's order, and its vjp (`_fused`) the chain's
gradients: weight gradients are products summed to the weight's shape,
gathered rows' gradients `SparseGrad`s, and an adjacency's gradient goes
through `_left_grad`, so backward's order and determinism are unchanged. The
forward keeps what the vjp cannot cheaply rebuild and the vjp builds the
rest (`messages` and `readout` keep only their inputs), so a no-grad pass
builds no gradient-only array. They log the same ReLU and clamp masks to
the smoothness digest as the primitives.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_GRAD_ENABLED = True
_SMOOTH_LOG: "hashlib.blake2b | None" = None
_TAPE: "list[Node] | None" = None
_GC_WAS_ENABLED = False  # the collector's state before the live recording

EXP_CLAMP_LO = -60.0
EXP_CLAMP_HI = 0.0

_HEADER = "graphkt.header"  # checkpoint entry; `ParameterStore.add` refuses it


@contextmanager
def collect_smoothness():
    """Digest every discrete decision taken in a forward pass.

    Yields a blake2b hash that ReLU sign masks, clamp masks and model-level
    gate decisions all feed. Two passes with the same digest took identical
    branches, so the loss is smooth between them and central differences are
    trustworthy.
    """
    global _SMOOTH_LOG
    prev = _SMOOTH_LOG
    _SMOOTH_LOG = hashlib.blake2b(digest_size=16)
    try:
        yield _SMOOTH_LOG
    finally:
        _SMOOTH_LOG = prev


def log_gate(payload: bytes) -> None:
    """Record a model-level discrete decision (e.g. an argmax gate)."""
    if _SMOOTH_LOG is not None:
        _SMOOTH_LOG.update(payload)


def _log_mask(mask: np.ndarray) -> None:
    if _SMOOTH_LOG is not None:
        _SMOOTH_LOG.update(np.packbits(mask.ravel()).tobytes())


@contextmanager
def no_grad():
    """Disable tape recording; ops return value-only nodes."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Node:
    """One tape entry: a value plus vjp edges back to its inputs."""

    __slots__ = ("value", "grad", "edges", "requires_grad")

    def __init__(self, value, edges=(), requires_grad=False):
        self.value = value
        self.grad = None
        self.edges = edges
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape


def as_node(x) -> Node:
    """Wrap a constant array or scalar as a non-differentiable node."""
    if isinstance(x, Node):
        return x
    return Node(np.asarray(x))


def start_tape() -> None:
    """Begin a fresh linear recording of grad-requiring nodes.

    Node creation order is a valid topological order (an op's inputs always
    exist before it), so `backward` can sweep the recording in reverse
    without a graph search. Each recording covers one bind/forward/backward
    round. The cyclic garbage collector is paused until `stop_tape`.
    """
    global _TAPE, _GC_WAS_ENABLED
    if _TAPE is None:
        _GC_WAS_ENABLED = gc.isenabled()
        gc.disable()
    _TAPE = []


def stop_tape() -> None:
    """End the recording, if any, and put the collector back as it was."""
    global _TAPE
    if _TAPE is None:
        return
    _TAPE = None
    if _GC_WAS_ENABLED:
        gc.enable()


def _make(value: np.ndarray, edges) -> Node:
    if not _GRAD_ENABLED:
        return Node(value)
    if len(edges) == 1:
        if not edges[0][0].requires_grad:
            return Node(value)
        live = edges
    else:
        live = [e for e in edges if e[0].requires_grad]
        if not live:
            return Node(value)
    node = Node(value, live, True)
    if _TAPE is not None:
        _TAPE.append(node)
    return node


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting).

    Leading axes of size one, as a batch of one block has, are dropped by a
    reshape: the sum over one entry is that entry, bit for bit.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.reshape(grad.shape[extra:]) \
            if math.prod(grad.shape[:extra]) == 1 \
            else grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic

# python-number operands stay raw scalars: numpy's weak promotion then keeps
# float32 graphs in float32, and the constant side needs no vjp edge


def add(a, b) -> Node:
    if isinstance(b, (int, float)):
        a = as_node(a)
        return _make(a.value + b, ((a, lambda g: g),))
    if isinstance(a, (int, float)):
        b = as_node(b)
        return _make(a + b.value, ((b, lambda g: g),))
    a, b = as_node(a), as_node(b)
    val = a.value + b.value
    return _make(val, (
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(g, b.value.shape)),
    ))


def sub(a, b) -> Node:
    if isinstance(b, (int, float)):
        a = as_node(a)
        return _make(a.value - b, ((a, lambda g: g),))
    if isinstance(a, (int, float)):
        b = as_node(b)
        return _make(a - b.value, ((b, lambda g: -g),))
    a, b = as_node(a), as_node(b)
    val = a.value - b.value
    return _make(val, (
        (a, lambda g: _unbroadcast(g, a.value.shape)),
        (b, lambda g: _unbroadcast(-g, b.value.shape)),
    ))


def mul(a, b) -> Node:
    if isinstance(b, (int, float)):
        a = as_node(a)
        return _make(a.value * b, ((a, lambda g: g * b),))
    if isinstance(a, (int, float)):
        b = as_node(b)
        return _make(a * b.value, ((b, lambda g: g * a),))
    a, b = as_node(a), as_node(b)
    val = a.value * b.value
    return _make(val, (
        (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
        (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
    ))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Node:
    """Matrix product; N-D operands multiply matrix stacks over leading axes.

    An operand with fewer or size-1 leading axes is broadcast, and its
    gradient is summed back over them (see `_left_grad` and `_right_grad`).
    """
    a, b = as_node(a), as_node(b)
    val = a.value @ b.value
    return _make(val, (
        (a, lambda g: _left_grad(g, b.value, a.value.shape)),
        (b, lambda g: _right_grad(a.value, g, b.value.shape)),
    ))


def _left_grad(g: np.ndarray, b: np.ndarray, shape) -> np.ndarray:
    """A left operand's gradient `g @ b^T`, summed down to its `shape`.

    When the operand lacks leading axes that `g` and `b` both have in full,
    those axes are moved next to the last one and contracted inside one
    product, (..., M, B*N) @ (..., B*N, K): a (G, C, C) adjacency multiplied
    into a (B, G, C, d) batch gets its (G, C, C) gradient without a
    (B, G, C, C) array. Any other broadcast is summed after the product.
    """
    n, extra = g.ndim, g.ndim - len(shape)
    if extra > 0 and b.shape[:-2] == g.shape[:-2] \
            and g.shape[extra:-2] == tuple(shape[:-2]):
        perm = (*range(extra, n - 1), *range(extra), n - 1)
        rows, cols = g.shape[extra:-1], b.shape[extra:-1]
        return g.transpose(perm).reshape(*rows, -1) \
            @ b.transpose(perm).reshape(*cols, -1).swapaxes(-1, -2)
    return _unbroadcast(g @ b.swapaxes(-1, -2), shape)


def _right_grad(a: np.ndarray, g: np.ndarray, shape) -> np.ndarray:
    """A right operand's gradient `a^T @ g`, summed down to its `shape`."""
    return _unbroadcast(a.swapaxes(-1, -2) @ g, shape)


def transpose(a) -> Node:
    """Swap the last two axes: a matrix, or each matrix of a stack."""
    a = as_node(a)
    return _make(a.value.swapaxes(-1, -2).copy(),
                 ((a, lambda g: g.swapaxes(-1, -2)),))


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) otherwise,
    from one exp(-|x|) in one pass; no exp overflows."""
    out = np.empty_like(x)
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    denom = out + 1.0
    np.copyto(out, 1.0, where=x >= 0)
    np.divide(out, denom, out=out)
    return out


def sigmoid(a) -> Node:
    """The logistic function, as `_sigmoid` computes it."""
    a = as_node(a)
    out = _sigmoid(a.value)
    return _make(out, ((a, lambda g: g * out * (1.0 - out)),))


def relu(a) -> Node:
    a = as_node(a)
    mask = a.value > 0
    _log_mask(mask)
    return _make(a.value * mask, ((a, lambda g: g * mask),))


def softplus(a) -> Node:
    """log(1 + exp(x)); its derivative is the logistic function, which the
    vjp reads from `_sigmoid`, so no exp overflows either way."""
    a = as_node(a)
    out = np.logaddexp(0.0, a.value)
    return _make(out, ((a, lambda g: g * _sigmoid(a.value)),))


def clamped_exp(a) -> Node:
    """exp(clip(x, EXP_CLAMP_LO, EXP_CLAMP_HI)); keeps huge negative kernel
    exponents finite."""
    a = as_node(a)
    inside = (a.value >= EXP_CLAMP_LO) & (a.value <= EXP_CLAMP_HI)
    _log_mask(inside)
    out = np.exp(np.clip(a.value, EXP_CLAMP_LO, EXP_CLAMP_HI))
    return _make(out, ((a, lambda g: g * out * inside),))


def log(a) -> Node:
    a = as_node(a)
    x = a.value
    return _make(np.log(x), ((a, lambda g: g / x),))


def clip(a, lo: float, hi: float) -> Node:
    a = as_node(a)
    inside = (a.value >= lo) & (a.value <= hi)
    _log_mask(inside)
    return _make(np.clip(a.value, lo, hi), ((a, lambda g: g * inside),))


def softmax(a, axis: int = -1) -> Node:
    a = as_node(a)
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return _make(out, ((a, vjp),))


# ---------------------------------------------------------------------------
# shape ops


def concat(parts, axis: int = 1) -> Node:
    parts = [as_node(p) for p in parts]
    val = np.concatenate([p.value for p in parts], axis=axis)
    edges = []
    start = 0
    for p in parts:
        n = p.value.shape[axis]
        sl = [slice(None)] * val.ndim
        sl[axis] = slice(start, start + n)
        sl = tuple(sl)
        edges.append((p, lambda g, sl=sl: g[sl]))
        start += n
    return _make(val, tuple(edges))


def stack(nodes) -> Node:
    """Stack same-shaped nodes along a new leading axis."""
    nodes = [as_node(n) for n in nodes]
    val = np.stack([n.value for n in nodes])
    return _make(val, [(n, lambda g, i=i: g[i]) for i, n in enumerate(nodes)])


class SparseGrad:
    """A gradient that is zero outside `index`, as returned by gather vjps.

    `index` is whatever selected the gathered values: a row index array, a
    row slice or the tuple of broadcasting row and column index arrays that
    `gather_submatrix` takes. `add_into` adds the values into a full-size
    buffer with `np.add.at`, so duplicate indices sum. A block (a tuple) is
    added through one flat index into the raveled buffer, with the values
    raveled to match: that call takes numpy's fast path for a 1-D index,
    which a tuple index misses. The buffer must be C-ordered, because
    raveling any other layout copies it and the add would be lost with the
    copy; `add_into` raises instead.

    The flat index is rebuilt from the block's index arrays for each add
    instead of being stored. Measured on the benchmark's `paper` workload
    (peak RSS about 230 MB), keeping each gather's index on the tape raised
    the peak by 14-22%, and caching one per plan block would have held
    153 MB there (1,783 blocks after burn-in, 24 training steps and one
    evaluation) and 53 MB on `wide-sparse` (4,308 blocks).
    """

    __slots__ = ("index", "values")

    def __init__(self, index, values):
        self.index = index
        self.values = values

    def add_into(self, buf: np.ndarray) -> None:
        if type(self.index) is slice:  # distinct rows: a plain add
            buf[self.index] += self.values
            return
        if type(self.index) is not tuple:
            np.add.at(buf, self.index, self.values)
            return
        if not buf.flags.c_contiguous:
            raise ValueError("a block gradient needs a C-ordered buffer: "
                             "raveling this one would copy it")
        flat = _flat_index(buf.shape, self.index).reshape(-1)
        np.add.at(buf.reshape(-1), flat, self.values.reshape(-1))


def _flat_index(shape, ix) -> np.ndarray:
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
    offsets = _stack_offsets(shape[0], shape[1] * shape[2])
    return rows * shape[2] + offsets + cols


@functools.lru_cache(maxsize=None)
def _stack_offsets(n_mats: int, mat_size: int) -> np.ndarray:
    """Where each matrix of a raveled stack starts, as a (G, 1, 1) column.

    Cached because `np.arange` costs about as much as the rest of a small
    block's index; each entry is G integers, one per stack shape.
    """
    offsets = np.arange(0, n_mats * mat_size, mat_size)[:, None, None]
    offsets.flags.writeable = False
    return offsets


def gather_rows(a, idx) -> Node:
    """Select rows `idx` of a node (embedding/memory lookup).

    `idx` is an index array, or a slice, whose rows are a view of the
    node's value rather than a copy (a key's rows of a per-question table).
    An (n, m) index array reads an (n, m, ...) batch of rows; its gradient
    is added through the raveled index.
    """
    a = as_node(a)
    if type(idx) is slice:
        return _make(a.value[idx], ((a, lambda g: SparseGrad(idx, g)),))
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim == 1:
        return _make(a.value[idx], ((a, lambda g: SparseGrad(idx, g)),))
    flat = idx.reshape(-1)
    return _make(a.value[idx], ((a, lambda g: SparseGrad(
        flat, g.reshape(len(flat), *g.shape[idx.ndim:]))),))


def gather_submatrix(a, ix) -> Node:
    """Select a row/column block of a node.

    `ix` is a pair of row and column index arrays that broadcast together,
    (n, 1) rows and (1, m) columns for an (n, m) block; a stack of matrices
    takes `(slice(None), *ix)`, the same block of each. With the two index
    arrays transposed (`(rows.T, cols.T)`) the block is read transposed, as
    numpy's `a[ix]` reads it. Any two index arrays that broadcast together
    select that many entries (`_flat_index`): a batch of padded blocks, or
    one column of a matrix as a (C, 1) node. The entries are read through
    one flat index and come out C-contiguous; repeated entries get the sum
    of their gradients.
    """
    a = as_node(a)
    if len(ix) != a.value.ndim:
        raise ValueError("gather_submatrix takes an np.ix_ pair, with a "
                         "leading slice(None) for a stack")
    val = a.value.take(_flat_index(a.value.shape, ix))
    return _make(val, ((a, lambda g: SparseGrad(ix, g)),))


def scatter_rows(rows, idx, n_rows: int) -> Node:
    """Place stacked rows at positions `idx` of an otherwise-zero matrix."""
    rows = as_node(rows)
    idx = np.asarray(idx, dtype=np.int64)
    # a strictly increasing index, as plans give, is unique without a sort
    if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
        srt = np.sort(idx)
        if (srt[1:] == srt[:-1]).any():
            raise ValueError("scatter_rows requires unique row indices")
    val = np.zeros((n_rows, rows.value.shape[1]), dtype=rows.value.dtype)
    val[idx] = rows.value
    return _make(val, ((rows, lambda g: g[idx]),))


def sum_all(a) -> Node:
    a = as_node(a)
    val = np.asarray(a.value.sum())
    return _make(val, ((a, lambda g: np.full_like(a.value, float(g))),))


def reshape(a, shape) -> Node:
    """The same values in another shape, as `np.reshape` reads them."""
    a = as_node(a)
    return _make(a.value.reshape(shape),
                 ((a, lambda g: g.reshape(a.value.shape)),))


def slice_cols(a, start: int, stop: int) -> Node:
    a = as_node(a)
    val = a.value[:, start:stop].copy()

    def vjp(g):
        out = np.zeros_like(a.value)
        out[:, start:stop] = g
        return out

    return _make(val, ((a, vjp),))


# ---------------------------------------------------------------------------
# fused chains: one node each, with a hand-written vjp


def _fused(value: np.ndarray, parents, vjp) -> Node:
    """One node for a chain of ops over `parents`.

    `vjp(g, need)` returns the chain's contribution to every parent, in
    order: an array or a `SparseGrad`, as any vjp returns, or None where
    `need` (one bool per parent) is False. Backward runs the node's edges
    one after the other with the same `g`: the first runs `vjp`, and each
    reads its own contribution. Without a recording input the node is the
    value alone.
    """
    if not _GRAD_ENABLED:
        return Node(value)
    need = [p.requires_grad for p in parents]
    if not any(need):
        return Node(value)
    memo: list = [None, None]  # the g the contributions were computed for

    def edge(i):
        def run(g):
            if memo[0] is not g:
                memo[:] = g, vjp(g, need)
            return memo[1][i]
        return run

    node = Node(value, [(p, edge(i)) for i, p in enumerate(parents)
                        if need[i]], True)
    if _TAPE is not None:
        _TAPE.append(node)
    return node


def mlp(x, w1, terms, w2, b2) -> Node:
    """relu(x @ w1 + sum(terms)) @ w2 + b2, a two-layer perceptron on the
    rows of the 2-D `x`.

    Each term broadcasts to the shape of `x @ w1`: a bias row, or cached
    question rows of the first layer.
    """
    x, w1, w2, b2 = as_node(x), as_node(w1), as_node(w2), as_node(b2)
    terms = [as_node(t) for t in terms]
    hidden = x.value @ w1.value
    for t in terms:
        hidden += t.value
    mask = hidden > 0
    _log_mask(mask)
    hidden *= mask
    out = hidden @ w2.value
    out += b2.value

    def vjp(g, need):
        g_pre = g @ w2.value.T
        g_pre *= mask
        return (g_pre @ w1.value.T if need[0] else None,
                _right_grad(x.value, g_pre, w1.value.shape)
                if need[1] else None,
                *(_unbroadcast(g_pre, t.value.shape) for t in terms),
                _right_grad(hidden, g, w2.value.shape) if need[-2] else None,
                _unbroadcast(g, b2.value.shape))

    return _fused(out, (x, w1, *terms, w2, b2), vjp)


def readout(a, a_rows: np.ndarray, b, b_rows: np.ndarray) -> Node:
    """sum over j and the last axis of a[a_rows[i, j]] * b[b_rows[i, j]].

    `a_rows` and `b_rows` are (n, m) row indices into two nodes of d
    columns; the result is (n,). The gradients are `SparseGrad`s through
    the raveled indices, as `gather_rows` gives them. The vjp gathers the
    rows again rather than keeping them.
    """
    a, b = as_node(a), as_node(b)
    out = (a.value[a_rows] * b.value[b_rows]).sum(axis=(1, 2))

    def vjp(g, need):
        g = g[:, None, None]
        return (SparseGrad(a_rows.reshape(-1), (g * b.value[b_rows]).reshape(
                    a_rows.size, -1)) if need[0] else None,
                SparseGrad(b_rows.reshape(-1), (g * a.value[a_rows]).reshape(
                    b_rows.size, -1)) if need[1] else None)

    return _fused(out, (a, b), vjp)


def forget(base, h, h0, keep: np.ndarray | None, nvec: np.ndarray,
           rates) -> Node:
    """base - keep * (h - h0) * (1 - clamped_exp(nvec * rates)): memory
    `h` decays toward `h0` at `rates`, on the rows `keep` marks, from `base`.

    `keep` and `nvec` are constant columns; `keep` None marks every row,
    which a column of ones gives bit for bit.
    """
    base, h, h0, rates = as_node(base), as_node(h), as_node(h0), as_node(rates)
    kernel = nvec * rates.value
    inside = (kernel >= EXP_CLAMP_LO) & (kernel <= EXP_CLAMP_HI)
    _log_mask(inside)
    np.maximum(kernel, EXP_CLAMP_LO, out=kernel)
    np.minimum(kernel, EXP_CLAMP_HI, out=kernel)
    np.exp(kernel, out=kernel)
    fac = 1.0 - kernel
    kept = h.value - h0.value
    if keep is not None:
        kept *= keep
    out = base.value - kept * fac

    def vjp(g, need):
        g_decay = -g
        g_diff = g_decay * fac
        if keep is not None:
            g_diff *= keep
        g_rates = None
        if need[3]:
            g_rates = -(g_decay * kept)
            g_rates *= kernel
            g_rates *= inside
            g_rates *= nvec
        return (_unbroadcast(g, base.value.shape),
                _unbroadcast(g_diff, h.value.shape),
                _unbroadcast(-g_diff, h0.value.shape) if need[2] else None,
                None if g_rates is None
                else _unbroadcast(g_rates, rates.value.shape))

    return _fused(out, (base, h, h0, rates), vjp)


def messages(feats, sub, w, o=None, n_blocks: int = 1) -> Node:
    """sum_g [relu](sub_g @ (feats @ w_g)) [@ o_g]: one message layer over
    a (G, d, d) weight stack `w` and, with a feed-forward, its (G, d, d')
    stack `o` after a ReLU.

    `feats` holds K blocks of n rows: a (K, n, d) batch, or `n_blocks`
    blocks stacked by rows, (K * n, d). They multiply as (K, 1, n, d)
    against `sub`, a (K, G, m, n) batch of adjacency blocks or one
    (G, m, n) stack that every block shares, and the result has `feats`'
    layout with m rows per block. One block is a batch of one.

    The node keeps only its inputs. The vjp recomputes `feats @ w_g` and,
    with a feed-forward, the branch products and their ReLU mask, bit for
    bit as the forward computed them, rather than holding these
    (K, G, rows, d) arrays from the forward until backward.
    """
    feats, sub, w = as_node(feats), as_node(sub), as_node(w)
    o = None if o is None else as_node(o)
    x = feats.value
    n_k = x.shape[0] if x.ndim == 3 else n_blocks
    x = x.reshape(n_k, 1, -1, x.shape[-1])
    xw = x @ w.value
    branch = sub.value @ xw
    if o is not None:
        mask = branch > 0
        _log_mask(mask)
        branch *= mask
        branch = branch @ o.value
    summed = branch.sum(axis=1)
    out = summed.reshape(-1, summed.shape[-1]) if feats.value.ndim == 2 \
        else summed
    # the output gradient, as a block per graph, fills the branch's shape
    g_shape = (n_k, 1, *summed.shape[1:])
    b_shape = branch.shape

    def vjp(g, need):
        xw = x @ w.value
        g_branch = np.empty(b_shape, dtype=g.dtype)
        g_branch[...] = g.reshape(g_shape)
        g_o = None
        if o is not None:
            act = sub.value @ xw
            mask = act > 0
            if need[3]:
                act *= mask
                g_o = _right_grad(act, g_branch, o.value.shape)
            g_branch = g_branch @ o.value.swapaxes(-1, -2)
            g_branch *= mask
        g_xw = _unbroadcast(sub.value.swapaxes(-1, -2) @ g_branch, xw.shape)
        g_feats = None
        if need[0]:
            # the graph axis contracted inside one product, as `_left_grad`
            # does: (K * n, G * d') @ (G * d', d)
            n_g, d_in, d_out = w.value.shape
            g_feats = (g_xw.transpose(0, 2, 1, 3).reshape(-1, n_g * d_out)
                       @ w.value.transpose(1, 0, 2).reshape(d_in, -1)
                       .swapaxes(-1, -2)).reshape(feats.value.shape)
        return (g_feats,
                _left_grad(g_branch, xw, sub.value.shape) if need[1] else None,
                _right_grad(x, g_xw, w.value.shape) if need[2] else None, g_o)

    return _fused(out, (feats, sub, w) if o is None else (feats, sub, w, o),
                  vjp)


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Node) -> None:
    """Reverse sweep over the active recording, populating `.grad`.

    The recording must end at `root`: creation order is then a topological
    order (an op's inputs always exist before it), so one reverse pass
    reaches every node after all of its consumers. Every edge's vjp returns
    an array or a `SparseGrad`, and one rule adds it to the parent's
    gradient as it arrives: a node's first dense contribution is kept as is
    (it may be shared with other nodes); from its second contribution on, or
    its first `SparseGrad`, the node gets a buffer that backward allocates
    for it alone, and later contributions are added into that buffer in
    place. Contributions arrive in reverse tape order, so the reduction order
    is fixed and gradients are bitwise deterministic.

    The sweep pops each node off the recording and drops its edges and,
    except for the root, its gradient, so the recording is empty afterwards
    and only leaves (never recorded) and the root keep a gradient.
    """
    if root.value.size != 1:
        raise ValueError("backward requires a scalar loss node")
    if not root.requires_grad:
        raise RuntimeError("loss does not depend on any trainable parameter")
    tape = _TAPE
    if not tape or tape[-1] is not root:
        raise RuntimeError("the recording does not end at the loss node: "
                           "bind the parameters, then build the loss last")

    root.grad = np.ones_like(root.value)
    # ids of nodes whose grad buffer backward allocated; no node is created
    # during the sweep, so a freed node's id is never reused by a live one
    owned: set[int] = set()
    while tape:
        node = tape.pop()
        g, edges = node.grad, node.edges
        node.edges = ()
        if node is not root:
            node.grad = None
        if g is None:
            continue
        for parent, vjp in edges:
            _accumulate(parent, vjp(g), owned)


def _accumulate(parent: Node, contrib, owned: set[int]) -> None:
    """Add one contribution to `parent.grad` (see `backward`)."""
    grad = parent.grad
    if type(contrib) is SparseGrad:
        # a block gradient is added through the raveled buffer, so the
        # buffer is C-ordered whatever the value's layout
        if id(parent) not in owned or not grad.flags.c_contiguous:
            grad = parent.grad = np.zeros(parent.value.shape,
                                          parent.value.dtype) \
                if grad is None else grad.copy()
            owned.add(id(parent))
        contrib.add_into(grad)
    elif grad is None:
        parent.grad = contrib
    elif (id(parent) in owned and contrib.shape == grad.shape
          and contrib.dtype == grad.dtype):
        grad += contrib
        parent.grad = grad  # a numpy scalar grad is rebound, not mutated
    else:
        parent.grad = grad + contrib
        owned.add(id(parent))


# ---------------------------------------------------------------------------
# parameter storage


@dataclass
class Param:
    value: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray


class ParameterStore:
    """Named trainable arrays with paired gradient and Adam moment slots."""

    FORMAT = "graphkt-checkpoint"
    VERSION = 4

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Param] = {}
        self.step_count = 0
        self._bound: dict[str, Node] | None = None

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self._params or name == _HEADER:
            raise ValueError(f"duplicate or reserved parameter name {name!r}")
        arr = np.array(value, dtype=self.dtype)
        self._params[name] = Param(
            value=arr,
            grad=np.zeros_like(arr),
            m=np.zeros_like(arr),
            v=np.zeros_like(arr),
        )

    def names(self):
        return list(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def value(self, name: str) -> np.ndarray:
        return self._params[name].value

    def bind(self) -> dict[str, Node]:
        """Create leaf nodes; with gradients enabled, start a fresh recording.

        A bind under `no_grad` records nothing and leaves any recording (and
        the leaves a later `backward` reads) as it was.
        """
        bound = {
            name: Node(p.value, (), requires_grad=True)
            for name, p in self._params.items()
        }
        if _GRAD_ENABLED:
            start_tape()
            self._bound = bound
        return bound

    def release(self) -> None:
        """Drop the bound leaves and stop the recording without a backward."""
        self._bound = None
        stop_tape()

    def backward(self, loss: Node) -> None:
        """Run the reverse sweep and accumulate into the gradient slots."""
        if self._bound is None:
            raise RuntimeError("backward called without a bound forward pass")
        try:
            backward(loss)
            for name, node in self._bound.items():
                if node.grad is not None:
                    self._params[name].grad += node.grad
        finally:
            self.release()

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def adam_step(self, lr: float, l2: float = 0.0,
                  beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> None:
        """Adam with bias correction; weight decay joins the gradient first."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for p in self._params.values():
            g = p.grad if l2 == 0.0 else p.grad + l2 * p.value
            p.m[...] = beta1 * p.m + (1.0 - beta1) * g
            p.v[...] = beta2 * p.v + (1.0 - beta2) * g * g
            p.value -= lr * (p.m / bc1) / (np.sqrt(p.v / bc2) + eps)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, arr in snap.items():
            self._params[name].value[...] = arr

    # -- checkpoint io ------------------------------------------------------

    def save(self, path, fields: dict) -> None:
        """Write the arrays and a JSON header (format, version, names in
        order, step count and the caller's `fields`) as one npz archive."""
        header = {"format": self.FORMAT, "version": self.VERSION,
                  "names": self.names(), "step_count": self.step_count,
                  **fields}
        with open(path, "wb") as fh:  # a handle: numpy appends no ".npz"
            np.savez(fh, **{_HEADER: np.array(json.dumps(header))},
                     **self.snapshot())

    @classmethod
    def load(cls, path) -> tuple["ParameterStore", dict]:
        """Read an archive `save` wrote; returns the store and the fields.

        Anything else (a version-1 JSON checkpoint, text, an archive without
        the header or with object arrays, another format or version) raises
        ValueError naming `path`. Nothing is unpickled.
        """
        try:
            with open(path, "rb") as fh:
                archive = np.lib.npyio.NpzFile(fh, allow_pickle=False)
                # dict() rejects a header that is not a JSON object
                fields = dict(json.loads(archive[_HEADER].item()))
                found = (fields.pop("format"), fields.pop("version"))
                if found != (cls.FORMAT, cls.VERSION):
                    raise ValueError(f"format {found[0]!r} version {found[1]!r}")
                arrays = [(name, archive[name]) for name in fields.pop("names")]
            store = cls(dtype=arrays[0][1].dtype if arrays else np.float64)
            for name, arr in arrays:
                store.add(name, arr)
            store.step_count = int(fields.pop("step_count"))
        except (ValueError, TypeError, KeyError, AttributeError,
                zipfile.BadZipFile) as exc:  # a non-npy entry reads as bytes
            raise ValueError(f"{path}: not a {cls.FORMAT} version "
                             f"{cls.VERSION} file ({exc})") from None
        return store, fields


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """What `grad_check` compared. `n_atol_only` counts the checked
    coordinates whose analytic and numeric gradients are both at most `atol`
    in magnitude: they pass on `atol` alone and test no relative error."""

    tolerance: float
    n_checked: int
    n_skipped: int
    max_rel_err: float
    n_atol_only: int = 0
    group_errors: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, int, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """At least one coordinate was checked and none failed."""
        return self.n_checked > 0 and not self.failures

    def summary(self) -> str:
        lines = [
            f"gradient check: {'PASS' if self.passed else 'FAIL'} "
            f"(checked={self.n_checked}, atol_only={self.n_atol_only}, "
            f"skipped={self.n_skipped}, "
            f"max_rel_err={self.max_rel_err:.3e}, tol={self.tolerance:.1e})"
        ]
        for name in sorted(self.group_errors):
            lines.append(f"  {name}: {self.group_errors[name]:.3e}")
        return "\n".join(lines)


def grad_check(store: ParameterStore, build_loss, rng,
               n_coords: int = 200, h: float = 1e-5,
               tolerance: float = 1e-4, atol: float = 1e-8,
               max_attempts: int | None = None) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `build_loss(bound)` must rebuild the loss node from bound parameters.
    Coordinates whose perturbed passes take different discrete branches
    (argmax gates, ReLU/clamp masks) are locally non-smooth and are skipped;
    sampling continues until `n_coords` smooth coordinates were checked.
    """
    store.zero_grad()
    bound = store.bind()
    loss = build_loss(bound)
    store.backward(loss)
    analytic = {name: store[name].grad.copy() for name in store.names()}

    names = store.names()
    sizes = np.array([store.value(n).size for n in names])
    total = int(sizes.sum())
    cum = np.cumsum(sizes)

    def eval_loss() -> tuple[float, bytes]:
        with no_grad(), collect_smoothness() as branch_log:
            val = build_loss(store.bind()).value.item()
            return val, branch_log.digest()

    report = GradCheckReport(tolerance=tolerance, n_checked=0, n_skipped=0,
                             max_rel_err=0.0)
    attempts = 0
    limit = max_attempts if max_attempts is not None else n_coords * 4
    while report.n_checked < n_coords and attempts < limit:
        attempts += 1
        flat = int(rng.integers(total))
        pidx = int(np.searchsorted(cum, flat, side="right"))
        name = names[pidx]
        local = flat - (cum[pidx] - sizes[pidx])
        value = store.value(name)
        orig = value.flat[local]

        value.flat[local] = orig + h
        lp, sig_p = eval_loss()
        value.flat[local] = orig - h
        lm, sig_m = eval_loss()
        value.flat[local] = orig

        if sig_p != sig_m:
            report.n_skipped += 1
            continue

        numeric = (lp - lm) / (2.0 * h)
        exact = analytic[name].flat[local]
        diff = abs(exact - numeric)
        denom = max(abs(exact), abs(numeric))
        rel = 0.0 if diff <= atol else diff / max(denom, atol)
        report.n_checked += 1
        report.n_atol_only += int(denom <= atol)
        report.max_rel_err = max(report.max_rel_err, rel)
        report.group_errors[name] = max(report.group_errors.get(name, 0.0), rel)
        if rel >= tolerance:
            report.failures.append((name, int(local), rel))

    return report
