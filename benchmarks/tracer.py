"""Span tracing of graphkt from outside the package.

`Tracer` replaces public functions and methods of graphkt's modules with
wrappers that record spans (name, start, end, parent) and counts in memory.
Engine ops additionally get their vjp closures (the callables in the returned
`Node.edges`) wrapped, so backward time is split by op. `remove()` puts every
original attribute back; `verify_removed()` proves it did.

Spans live in flat arrays (24 bytes each) so that a run with millions of tape
ops fits in memory; `summary()` derives calls, wall time and self time per
span name, where self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import gc
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Engine ops the model, its GNN heads and the loss build the tape from.
ENGINE_OPS = (
    "add", "sub", "mul", "neg", "scale", "matmul", "transpose", "sigmoid",
    "relu", "softplus", "clamped_exp", "log", "clip", "softmax", "concat",
    "gather_rows", "gather_submatrix", "scatter_rows", "sum_all", "add_n",
    "tile_rows", "sum_axis", "slice_cols",
)

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._gc_start = 0.0

    # -- recording ----------------------------------------------------------

    def name(self, label: str) -> int:
        nid = self.ids.get(label)
        if nid is None:
            nid = self.ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        i = self.open(self.name(label))
        try:
            yield
        finally:
            self.close(i)

    def timed(self, label: str, fn, after=None):
        """Wrap `fn` in a span; `after(result, args, kwargs)` runs inside it."""
        nid = self.name(label)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                close(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, label: str, fn):
        """Wrap `fn` with a call counter only (no span)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace `owner.attr` by `make(original)`; skip it if absent."""
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            return
        own = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, make(original))

    def remove(self) -> None:
        """Undo every patch, last first, and detach the gc callback."""
        while self._patches:
            owner, attr, own, _ = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def patched(self) -> list[tuple[object, str, object, object]]:
        return list(self._patches)

    @staticmethod
    def verify_removed(patches) -> None:
        """Raise unless each (owner, attr) holds its pre-patch object again."""
        for owner, attr, own, _ in patches:
            now = vars(owner).get(attr, _MISSING)
            if now is not own:
                raise RuntimeError(f"tracing wrapper left on {owner!r}.{attr}")

    # -- gc ------------------------------------------------------------------

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.sums["runtime.gc_s"] += perf_counter() - self._gc_start
            self.counts["runtime.gc_collections"] += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: calls, wall seconds, self seconds; plus roots.

        `root_name` gives each span's outermost ancestor, which is how a span
        is attributed to the benchmark phase that caused it.
        """
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        par = a["parent"].astype(np.int64)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        k = len(self.names)
        root = np.where(has_parent, par, np.arange(n))
        while n:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        return {
            "calls": np.bincount(a["name_id"], minlength=k),
            "wall": np.bincount(a["name_id"], weights=dur, minlength=k),
            "self": np.bincount(a["name_id"], weights=self_t, minlength=k),
            "name_id": a["name_id"],
            "root_name": a["name_id"][root] if n else a["name_id"],
        }

    def save(self, path) -> None:
        """Write the spans (compressed columns plus the name table)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# the graphkt layer map


def install(tracer: Tracer, graphkt) -> None:
    """Patch graphkt's public functions with spans named `<module>.<what>`.

    Attributes a later version of graphkt no longer has are skipped; their
    metrics then read zero.
    """
    data, graphs, model, engine = (graphkt.data, graphkt.graphs,
                                   graphkt.model, graphkt.engine)
    train, metrics = graphkt.train, graphkt.metrics
    t = tracer

    def rows(result, args, kwargs):
        t.counts["data.rows"] += sum(len(s.responses) for s in result.sequences)

    def density(result, args, kwargs):
        for kind, value in result.sparsity().items():
            t.sums[f"graphs.density.{kind}"] = value

    def span(owner, attr, label, after=None):
        t.patch(owner, attr, lambda f: t.timed(label, f, after))

    span(data, "ingest_csv", "data.ingest", rows)
    span(data, "preprocess", "data.preprocess")
    span(graphs, "build_graphs", "graphs.build", density)
    span(graphs, "load_labeled_graphs", "graphs.load", density)
    span(graphs, "import_graphs", "graphs.load", density)

    cls = model.GrktModel
    span(cls, "__init__", "model.init")
    span(cls, "begin", "model.begin")
    span(cls, "stage1_predict", "model.stage1")
    span(cls, "stage2_strengthen", "model.stage2")
    t.patch(cls, "stage3_learn_forget", lambda f: _stage3(t, f))

    # gnn entry points are looked up through graphkt.model's namespace
    def support(result, args, kwargs):
        plan, gt = args[2], args[3]
        t.sums["gnn.support_rows"] += max(len(r) for r in plan.row_sets) / gt.n_kcs

    def full_support(result, args, kwargs):
        t.sums["gnn.support_rows"] += 1.0

    span(model, "gnn_forward_rows", "gnn.rows", support)
    span(model, "gnn_forward", "gnn.full", full_support)
    span(model, "plan_inward", "gnn.plan")
    span(model, "plan_outward", "gnn.plan")
    for method in ("plan_in", "plan_out"):
        t.patch(model.BatchCache, method,
                lambda f: t.counted("gnn.plan_requests", f))

    for op in ENGINE_OPS:
        t.patch(engine, op, lambda f, op=op: _engine_op(t, op, f))
    span(engine, "backward", "engine.backward")
    span(engine.ParameterStore, "adam_step", "engine.adam")

    span(train, "bce_loss_node", "train.bce")
    span(train, "evaluate", "train.evaluate")
    for fn in ("auc", "accuracy", "consistency", "gaucm"):
        span(metrics, fn, f"metrics.{fn}")
    t.watch_gc()


def _stage3(t: Tracer, fn):
    """Stage-3 span plus the KCs given progress, read from `counters`."""
    nid = t.name("model.stage3")

    def wrapper(*args, **kwargs):
        counters = [a for a in (*args, *kwargs.values())
                    if isinstance(a, np.ndarray) and a.dtype.kind in "iu"]
        before = sum(int(c.sum()) for c in counters)
        i = t.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            t.close(i)
            t.counts["model.stage3_gate_open"] += \
                sum(int(c.sum()) for c in counters) - before

    wrapper.__wrapped__ = fn
    return wrapper


def _engine_op(t: Tracer, op: str, fn):
    """Forward span per op call; each recorded vjp gets a backward span."""
    fwd, bwd = t.name(f"engine.fwd.{op}"), t.name(f"engine.bwd.{op}")
    open_, close = t.open, t.close
    sums = t.sums

    def timed_vjp(vjp):
        def run(g):
            i = open_(bwd)
            try:
                return vjp(g)
            finally:
                close(i)
        return run

    def wrapper(*args, **kwargs):
        i = open_(fwd)
        try:
            node = fn(*args, **kwargs)
            if node.requires_grad:  # recorded on the tape
                sums["engine.tape_bytes"] += node.value.nbytes
                node.edges = tuple((p, timed_vjp(v)) for p, v in node.edges)
            return node
        finally:
            close(i)

    wrapper.__wrapped__ = fn
    return wrapper
