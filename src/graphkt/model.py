"""Three-stage recurrent memory model over concept relation graphs.

Per student, a memory bank holds one vector per KC; a softmax-constrained
positive projection turns a memory row into a scalar mastery, so mastery is
strictly increasing in every memory coordinate. Each response is processed in
three stages:

1. Retrieval: neighbor memories are aggregated through the non-negative
   retrieval head, averaged over the question's KCs, projected to mastery and
   compared against a learned question difficulty to predict correctness.
   That chain is linear in the memory, so mastery is the sum of the memory
   rows of the examined KCs' L-hop support weighted by non-negative
   coefficient rows that depend only on the parameters and the question;
   they are built once per question and parameter state.
2. Strengthening: an MLP turns (memory, question) into a seed feature per
   examined KC; the gain head (correct answers, output clamped non-negative)
   or the loss head (incorrect, clamped non-positive) propagates it to KCs
   within L hops and the result is added to the memory bank.
3. Learning/forgetting: for the KCs of the current and next question a gating
   MLP decides whether the student keeps studying them; selected KCs receive
   propagated progress through a saturating exponential kernel, while all
   other KCs decay back toward the initial memory with their own kernel.
   Kernel rates are generated per KC from the embeddings, so related KCs
   share similar learning and forgetting speeds.

Between-question gaps are measured in minutes and capped at 30 days so the
exponential kernels stay away from their degenerate limit for outlier gaps.

Everything a stage computes from the question alone (the KC-mean embedding,
the difficulty, the requirement scores, the stage-1 read-out and the
question half of the stage-2/3 MLP inputs) is a row of a `QuestionTables`
batch: `GrktModel.steps` first has `BatchCache.prepare` build the tables of
all its sequences' new (question, KC set) keys in one pass, and each step
gathers its keys' rows. The MLP heads' first layer is split to match: the
memory rows multiply W1's memory rows, and the cached question term is
added.

`GrktModel.steps` is the recurrence: the one place that runs the three stages
in order and owns the memory. It runs B sequences in lockstep: the memory is
B blocks of C rows stacked into one (B * C, d_k) node, and each stage is one
op chain per step over every block, on index sets padded to common widths
(`gnn.PlanBatch`). Padding rows stay exactly zero, and a padding row of an
update lands on a row outside its block's support, so each sequence's
memory equals that of the sequence run alone up to rounding, and its rows
outside the support are untouched. One sequence is a batch of one, with no
padding and the ops of a single-sequence pass. Training batches consume its
per-step records; evaluation, validation and `graphkt trace` read each as
arrays (`StepArrays`), the one reader of a step's mastery.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from . import engine as E
from . import metrics
from .data import Response, ResponseSequence
from .gnn import (GnnSpec, GraphTensors, Plan, PlanBatch, gnn_forward_rows,
                  make_specs, pad_ids, plan_outward, readout_rows)
from .graphs import (GRAPH_KINDS, GraphBuildConfig, KcRelationGraphs,
                     format_graphs, parse_graphs)

DT_CAP_MINUTES = 43200.0  # 30 days

MLP_HEADS = ("diff", "gain", "loss", "dcs", "prg")

# entries of the (keys, G, rows, rows) adjacency blocks of one read-out batch:
# bounds the memory of building many keys' tables at once
READOUT_BLOCK = 2 ** 21


@dataclass
class HyperParams:
    d_e: int = 128
    d_k: int = 16
    d_h: int = 128
    layers: int = 2
    lr: float = 5e-3
    l2: float = 1e-6
    eta: float = 0.6
    seed: int = 0
    batch_size: int = 32
    patience: int = 10
    dtype: str = "float64"

    def __post_init__(self):
        for name in ("d_e", "d_k", "d_h", "layers", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lr <= 0 or self.l2 < 0:
            raise ValueError("lr must be positive and l2 non-negative")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        GraphBuildConfig(eta=self.eta)  # the mining threshold's own rule
        try:
            dtype = np.dtype(self.dtype)
        except TypeError:
            dtype = None
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, "
                             f"got {self.dtype!r}")


@dataclass
class SeqResult:
    preds: list[tuple[E.Node, int]]


@dataclass
class Step:
    """One time step of the lockstep recurrence (see `GrktModel.steps`):
    the responses of the sequences still running, response b on memory
    block b."""
    responses: list[Response]
    seqs: list[int]  # each response's sequence, as the caller numbered them
    a_hat: E.Node    # (n,) stage-1 probabilities of a correct answer
    mastery: E.Node  # (n,) stage-1 mastery of the examined KCs
    before: E.Node   # (n * C, d_k) memory before the strengthening update
    after: E.Node    # memory after it


def _mlp_dims(head: str, hp: HyperParams) -> tuple[int, int]:
    if head == "diff":
        return 2 * hp.d_e, 1
    if head in ("gain", "loss"):
        return hp.d_k + 2 * hp.d_e, hp.d_k
    if head == "dcs":
        return hp.d_k + 4 * hp.d_e, 2
    if head == "prg":
        return hp.d_k + 4 * hp.d_e, hp.d_k
    raise ValueError(f"unknown MLP head {head!r}")


def init_parameters(hp: HyperParams, n_questions: int, n_kcs: int,
                    rng: np.random.Generator | None = None) -> E.ParameterStore:
    """Build the full parameter catalog.

    Dense weights draw from U(-1/sqrt(fan_in), 1/sqrt(fan_in)); biases start
    at zero; softmax-constrained raw weights start at zero (uniform mix); the
    initial memory starts at a small positive constant.
    """
    rng = rng or np.random.default_rng(hp.seed)
    store = E.ParameterStore(dtype=hp.dtype)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    store.add("emb.q", uniform((n_questions + 1, hp.d_e), hp.d_e))
    store.add("emb.k", uniform((n_kcs + 1, hp.d_e), hp.d_e))
    for which in GRAPH_KINDS:
        store.add(f"cor.{which}", uniform((hp.d_e, hp.d_e), hp.d_e))
    store.add("req", uniform((hp.d_e, hp.d_e), hp.d_e))

    for name, spec in make_specs(hp.d_e, hp.d_k, hp.layers).items():
        for layer in range(1, len(spec.dims)):
            d_prev, d_cur = spec.dims[layer - 1], spec.dims[layer]
            for which in GRAPH_KINDS:
                if spec.nonneg_weights:
                    store.add(f"gnn.{name}.W.{which}.{layer}",
                              np.zeros((d_prev, d_prev)))
                else:
                    store.add(f"gnn.{name}.W.{which}.{layer}",
                              uniform((d_prev, d_prev), d_prev))
                if spec.use_feedforward:
                    store.add(f"gnn.{name}.O.{which}.{layer}",
                              uniform((d_prev, d_cur), d_prev))

    for head in MLP_HEADS:
        d_in, d_out = _mlp_dims(head, hp)
        store.add(f"mlp.{head}.W1", uniform((d_in, hp.d_h), d_in))
        store.add(f"mlp.{head}.b1", np.zeros((1, hp.d_h)))
        store.add(f"mlp.{head}.W2", uniform((hp.d_h, d_out), hp.d_h))
        store.add(f"mlp.{head}.b2", np.zeros((1, d_out)))

    store.add("w_h", np.zeros((1, hp.d_k)))
    store.add("H0", np.full((n_kcs, hp.d_k), 0.1))
    return store


class QuestionTables:
    """The question-side quantities of K (question, KC set) keys, one row
    per key, each built for all K keys with one op chain.

    `e_bar` is (K, 2 d_e): the mean embedding of the key's KCs, from one
    constant (K, C) averaging matrix times the KC embeddings, then the
    question's embedding. `difficulty` is the diff MLP on it, (K,), and
    `requirement` the (K, C) question-KC scores sigmoid((e_q req) k^T).
    The stage-1 read-outs run as one padded `readout_rows` batch per size
    class of the keys' hop supports; `coef` stacks all of them, flattened
    to rows of d_k, with one zero row last (`zero_row`), and
    `coef_index[i]` lists key i's rows there, one per KC of its plan's
    output rows. `terms` holds the question halves of the stage-2/3 MLP
    inputs, built on first use (`BatchCache.term_table`).
    """

    def __init__(self, cache: "BatchCache", keys: list[tuple[int, tuple]]):
        model, bound = cache.model, cache.bound
        dtype = model.store.dtype
        n_keys, n_c, d_k = len(keys), model.n_kcs, model.hp.d_k
        sizes = np.array([len(kcs) for _, kcs in keys])
        avg = np.zeros((n_keys, n_c), dtype=dtype)
        avg[np.repeat(np.arange(n_keys), sizes),
            np.concatenate([kcs for _, kcs in keys])] = np.repeat(1.0 / sizes,
                                                                  sizes)
        e_q = E.gather_rows(bound["emb.q"], [q for q, _ in keys])
        self.e_bar = E.concat([E.matmul(E.as_node(avg), cache.k_active), e_q],
                              axis=1)
        self.difficulty = E.reshape(
            cache.mlp("diff", self.e_bar, [bound["mlp.diff.b1"]]), (n_keys,))
        self.requirement = cache.requirement(e_q)
        self.alpha: E.Node | None = None  # `requirement` as one column

        # keys whose output row counts lie in one power-of-two range are
        # read out together, so padding at most doubles a key's output rows,
        # in chunks whose adjacency blocks hold at most READOUT_BLOCK entries
        plans = [cache.plan_out(kcs) for _, kcs in keys]
        size_class = np.array([len(p.output_rows).bit_length() for p in plans])
        n_graphs = max(len(model.gt.kinds), 1)
        chunks = []
        for cls in np.unique(size_class):
            width = min(n_c, 2 ** int(cls))
            step = max(1, READOUT_BLOCK // (n_graphs * width * width))
            members = np.flatnonzero(size_class == cls)
            chunks += [members[i:i + step]
                       for i in range(0, len(members), step)]
        parts, start = [], 0
        self.coef_index: list = [None] * n_keys
        for members in chunks:
            n_seed = sizes[members, None]
            seed = E.mul(cache.w_h_row, E.as_node(
                ((np.arange(n_seed.max()) < n_seed) / n_seed)[:, :, None]
                .astype(dtype)))
            batch = cache.plan_batch([plans[i] for i in members])
            requirement = self.requirement if len(members) == n_keys \
                else E.gather_rows(self.requirement, members)
            coef = readout_rows(model.specs["rtv"], seed, batch, cache.rtv_t,
                                cache.agg, cache.whole_transposed(batch),
                                requirement)
            width = coef.value.shape[1]
            parts.append(E.reshape(coef, (len(members) * width, d_k)))
            for j, i in enumerate(members):
                self.coef_index[i] = start + j * width + batch.positions(j)
            start += len(members) * width
        self.zero_row = start
        self.coef = E.concat([*parts, E.as_node(np.zeros((1, d_k), dtype))],
                             axis=0)
        self.terms: dict[tuple[str, int], E.Node] = {}


class KeyBatch:
    """The keys of one lockstep step, key b for memory block b, as rows of
    one `QuestionTables` (`BatchCache.keys`): `idx[b]` is key b's row.
    Everything a stage reads of them is gathered for the whole batch."""

    def __init__(self, cache: "BatchCache",
                 keys: tuple[tuple[int, tuple], ...]):
        self.n_kcs = cache.model.n_kcs
        self.keys = keys
        self.tables, self.idx = cache.tables_of(keys)
        self.plans = [cache.plan_out(kcs) for _, kcs in keys]
        self._readout = None
        self._alpha = None

    def __len__(self) -> int:
        return len(self.keys)

    def readout_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, width) rows of `tables.coef` and of the memory blocks that
        stage 1 multiplies: key b's coefficient rows against block b's rows
        of its plan's output KCs, padded with the zero coefficient row."""
        if self._readout is None:
            coef, valid = pad_ids([self.tables.coef_index[i]
                                   for i in self.idx])
            if valid is not None:
                coef[~valid] = self.tables.zero_row
            kcs, _ = pad_ids([p.row_arrays[-1] for p in self.plans])
            self._readout = coef, _block_rows(kcs, self.n_kcs).reshape(
                kcs.shape)
        return self._readout

    def difficulty(self) -> E.Node:
        return E.gather_rows(self.tables.difficulty, self.idx)

    def alpha(self, sel: np.ndarray) -> E.Node:
        """The requirement scores of keys `sel`, one (C, 1) block each."""
        whole = len(sel) == len(self)
        if whole and self._alpha is not None:
            return self._alpha
        tables, n_c = self.tables, self.n_kcs
        if tables.alpha is None:
            tables.alpha = E.reshape(tables.requirement, (-1, 1))
        if len(sel) == 1:
            i = int(self.idx[sel[0]])
            rows = slice(i * n_c, (i + 1) * n_c)
        else:
            rows = (self.idx[sel, None] * n_c + np.arange(n_c)).ravel()
        col = E.gather_rows(tables.alpha, rows)
        if whole:
            self._alpha = col
        return col

    def terms(self, cache: "BatchCache", head: str, part: int,
              sel: np.ndarray, width: int) -> E.Node:
        """The question terms of keys `sel` in MLP head `head`'s first layer
        (`BatchCache.term_table`), `width` rows each; a single key's row
        broadcasts."""
        table = cache.term_table(self.tables, head, part)
        if len(sel) == 1:
            i = int(self.idx[sel[0]])
            return E.gather_rows(table, slice(i, i + 1))
        return E.gather_rows(table, np.repeat(self.idx[sel], width))


class BatchCache:
    """Per-parameter-state tape nodes shared across a batch.

    Edge correlations (stacked into one adjacency node over the graphs with
    edges), stacked and constrained GNN weights and kernel rate matrices
    depend only on the parameters, so they are built once and reused by
    every sequence until the next optimizer step. So do the question-side
    quantities of each (question, KC set) key: `prepare` builds those of a
    batch's new keys as one `QuestionTables`, and a stage reads the rows of
    its step's keys (`keys`). A key `prepare` did not see is built when a
    step first needs it. Propagation plans do not depend on the parameters;
    `plan_out` fetches them from the model's own cache.

    Nor do the multi-plan `PlanBatch`es the stages run (`plan_batch`). An
    eval-mode cache reuses those of the model's previous eval-mode cache,
    and its own replace them on the model, so the model holds one pass's
    batches and a pass in progress one more. Every epoch validates the same
    sequences, so each pass finds its batches built. A train-mode cache
    builds its batches afresh: training batches are drawn at random, and
    their groupings do not recur.
    """

    def __init__(self, model: "GrktModel", bound: dict[str, E.Node], mode: str):
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        self.model = model
        self.bound = bound
        self.mode = mode
        n_c = model.n_kcs

        self.k_active = E.gather_rows(bound["emb.k"], np.arange(n_c))
        self.k_t = E.transpose(self.k_active)
        self.w_h_row = E.softmax(bound["w_h"], axis=-1)
        self.w_h_col = E.transpose(self.w_h_row)
        self.h0 = bound["H0"]

        # one (G, C, C) adjacency and per head and layer one (G, d, d) weight
        # stack over the graphs that have edges; None / empty when G == 0
        kinds = model.gt.kinds
        self.agg: E.Node | None = None
        if kinds:
            cor = E.stack([bound[f"cor.{which}"] for which in kinds])
            beta = E.sigmoid(E.matmul(E.matmul(self.k_active, cor), self.k_t))
            mask = model.gt.mask_norm.astype(model.store.dtype)
            self.agg = E.mul(E.as_node(mask), beta)

        self.weights: dict[str, list] = {}
        for name, spec in model.specs.items():
            per = []
            for layer in range(1, len(spec.dims)) if kinds else ():
                w = E.stack([bound[f"gnn.{name}.W.{which}.{layer}"]
                             for which in kinds])
                if spec.nonneg_weights:
                    w = E.softmax(w, axis=1)  # each graph's columns
                o = E.stack([bound[f"gnn.{name}.O.{which}.{layer}"]
                             for which in kinds]) \
                    if spec.use_feedforward else None
                per.append((w, o))
            self.weights[name] = per
        # stage 1 runs the retrieval head transposed (`readout_rows`).
        # Transposed blocks are read from `agg` itself, so the whole
        # transposed adjacency (and, in training, its gradient buffer) exists
        # only once a read-out batch has a whole layer
        self.rtv_t = [E.transpose(w) for w, _ in self.weights["rtv"]]
        self.agg_t: E.Node | None = None

        # the kernel-rate heads cover every KC: their plan never gathers
        every_kc = self.plan_out(tuple(range(n_c)))
        self.learn_rates = gnn_forward_rows(model.specs["lrn"], self.k_active,
                                            every_kc, model.gt,
                                            self.weights["lrn"], self.agg)
        self.forget_rates = gnn_forward_rows(model.specs["fgt"], self.k_active,
                                             every_kc, model.gt,
                                             self.weights["fgt"], self.agg)

        self._w1: dict[tuple[str, int], E.Node] = {}
        self._keys: dict[tuple, tuple[QuestionTables, int]] = {}
        self._batches: dict[tuple, KeyBatch] = {}
        self._tiled: dict = {}
        self._plan_batches: dict[tuple[Plan, ...], PlanBatch] = {}
        self._previous: dict[tuple[Plan, ...], PlanBatch] = {}
        if mode == "eval":
            self._previous = model._eval_batches
            model._eval_batches = self._plan_batches

    # -- building ------------------------------------------------------------

    def prepare(self, responses: Sequence[Response]) -> None:
        """Build the question-side tables of the responses' keys that are
        not built yet, as one batch in order of first appearance. Each new
        key's ids are checked first, once."""
        new = list(dict.fromkeys((r.question, r.kcs) for r in responses
                                 if (r.question, r.kcs) not in self._keys))
        for q, kcs in new:
            self.model._check_ids(q, kcs)
        if new:
            self._build(new)

    def _build(self, keys: list[tuple[int, tuple]]) -> None:
        tables = QuestionTables(self, keys)
        for i, key in enumerate(keys):
            self._keys[key] = (tables, i)

    def keys(self, questions: Sequence[int],
             kc_sets: Sequence[tuple[int, ...]]) -> KeyBatch:
        """The (question, KC set) keys of one step, built once."""
        keys = tuple(zip(questions, kc_sets))
        if keys not in self._batches:
            self._batches[keys] = KeyBatch(self, keys)
        return self._batches[keys]

    def tables_of(self, keys) -> tuple[QuestionTables, np.ndarray]:
        """One table holding every key, and each key's row in it. Keys not
        built yet, or spread over several tables, are built together."""
        found = [self._keys.get(k) for k in keys]
        if None in found or any(f[0] is not found[0][0] for f in found):
            for (q, kcs), f in zip(keys, found):
                if f is None:
                    self.model._check_ids(q, kcs)
            self._build(list(dict.fromkeys(keys)))
            found = [self._keys[k] for k in keys]
        return found[0][0], np.array([i for _, i in found])

    def mlp(self, head: str, x: E.Node, terms: Sequence[E.Node]) -> E.Node:
        """MLP head `head` as one node (`E.mlp`): `x` times the rows of W1
        it meets, plus the first layer's other terms. For `diff`, `x` is
        the keys' e_bar, the whole input, and the term is b1; for the other
        heads `x` holds memory rows (`w1_part` 0) and the terms are the
        cached question terms (`term_table`), b1 included."""
        b = self.bound
        w1 = b["mlp.diff.W1"] if head == "diff" else self.w1_part(head, 0)
        return E.mlp(x, w1, terms, b[f"mlp.{head}.W2"], b[f"mlp.{head}.b2"])

    def w1_part(self, head: str, part: int) -> E.Node:
        """Rows of `mlp.{head}.W1` that multiply input part `part`: the
        memory row (0), the current question's e_bar (1), the next one's
        (2)."""
        if (head, part) not in self._w1:
            d_k, d_q = self.model.hp.d_k, 2 * self.model.hp.d_e
            start = 0 if part == 0 else d_k + (part - 1) * d_q
            stop = d_k if part == 0 else start + d_q
            self._w1[head, part] = E.gather_rows(self.bound[f"mlp.{head}.W1"],
                                                 np.arange(start, stop))
        return self._w1[head, part]

    def term_table(self, tables: QuestionTables, head: str,
                   part: int) -> E.Node:
        """The (K, d_h) question terms of a table's keys in MLP head
        `head`'s first layer: e_bar times W1's rows for the current question
        (part 0, plus the bias b1) or the next one (part 1), built for all
        of the table's keys on first use."""
        if (head, part) not in tables.terms:
            t = E.matmul(tables.e_bar, self.w1_part(head, part + 1))
            if part == 0:
                t = E.add(t, self.bound[f"mlp.{head}.b1"])
            tables.terms[head, part] = t
        return tables.terms[head, part]

    def requirement(self, e_q: E.Node) -> E.Node:
        """The (n, C) requirement scores of the questions embedded in e_q."""
        return E.sigmoid(E.matmul(E.matmul(e_q, self.bound["req"]), self.k_t))

    def whole_transposed(self, batch: PlanBatch) -> E.Node | None:
        """`agg` transposed, built once a read-out batch has a whole layer."""
        if self.agg_t is None and self.agg is not None and any(batch.whole):
            self.agg_t = E.transpose(self.agg)
        return self.agg_t

    def tiled(self, name: str, n: int) -> E.Node:
        """`h0` or `forget_rates` repeated for n memory blocks, built once
        per n: a prefix of one tiling for the most blocks asked for."""
        found = self._tiled.get((name, n))
        if found is None:
            n_rows = n * self.model.n_kcs
            full = self._tiled.get(name)
            if full is None or full.value.shape[0] < n_rows:
                full = self._tiled[name] = E.gather_rows(
                    getattr(self, name),
                    np.tile(np.arange(self.model.n_kcs), n))
            found = self._tiled[name, n] = full \
                if full.value.shape[0] == n_rows \
                else E.gather_rows(full, slice(0, n_rows))
        return found

    def plan_out(self, kcs: tuple[int, ...]) -> Plan:
        return self.model.plan(kcs)

    def plan_batch(self, plans: Sequence[Plan]) -> PlanBatch:
        """`PlanBatch.of(plans)`; in eval mode, the batch of these plans
        this pass or the previous one built, if either did. Plans live as
        long as the model, so their identities key the batches."""
        if self.mode == "train" or len(plans) == 1:
            return PlanBatch.of(plans)
        key = tuple(plans)
        if key not in self._plan_batches:
            found = self._previous.get(key)
            self._plan_batches[key] = PlanBatch(key) if found is None else found
        return self._plan_batches[key]


@functools.lru_cache(maxsize=None)
def _arange(n: int) -> np.ndarray:
    """0..n-1, built once per n: every memory block of a step."""
    out = np.arange(n)
    out.flags.writeable = False
    return out


def _block_rows(kcs: np.ndarray, n_kcs: int,
                blocks: np.ndarray | None = None) -> np.ndarray:
    """Rows of stacked memory blocks, flat: block `blocks[i]`'s rows of the
    KCs `kcs[i]` (block i's by default)."""
    if len(kcs) == 1 and (blocks is None or blocks[0] == 0):
        return kcs[0]
    if blocks is None:
        blocks = np.arange(len(kcs))
    return (kcs + (blocks * n_kcs)[:, None]).ravel()


def _mask_padding(feats: E.Node, batch: PlanBatch) -> E.Node:
    """`feats` with the padding rows of the batch's layer-0 blocks zeroed."""
    if batch.seed_mask is None:
        return feats
    return E.mul(E.as_node(batch.seed_mask.astype(feats.value.dtype)), feats)


class GrktModel:
    """Graph-based knowledge tracing model bound to one graph set."""

    def __init__(self, hp: HyperParams, n_questions: int, n_kcs: int,
                 graphs: KcRelationGraphs,
                 store: E.ParameterStore | None = None):
        if graphs.n_kcs != n_kcs:
            raise ValueError("graph KC count does not match dataset")
        self.hp = hp
        self.n_questions = n_questions
        self.n_kcs = n_kcs
        self.graphs = graphs
        self.gt = GraphTensors(graphs)
        self.specs: dict[str, GnnSpec] = make_specs(hp.d_e, hp.d_k, hp.layers)
        self.store = store if store is not None \
            else init_parameters(hp, n_questions, n_kcs)
        # plans depend only on the graphs, the layer count and the KC set
        self._plans: dict[tuple[int, ...], Plan] = {}
        # the multi-plan batches of the latest eval pass (`BatchCache`)
        self._eval_batches: dict[tuple[Plan, ...], PlanBatch] = {}

    def plan(self, kcs: tuple[int, ...]) -> Plan:
        """The plan for `kcs`, built once; stages 1 and 2 share it."""
        if kcs not in self._plans:
            self._plans[kcs] = plan_outward(self.gt, kcs, self.hp.layers)
        return self._plans[kcs]

    def begin(self, mode: str = "eval") -> tuple[dict[str, E.Node], BatchCache]:
        bound = self.store.bind()
        return bound, BatchCache(self, bound, mode)

    # -- single stages, each over n memory blocks -----------------------------
    #
    # H stacks n students' memories, (n * C, d_k): block b, rows b*C to
    # (b+1)*C, is the memory of the student answering key b. One student's
    # memory, (C, d_k), is a batch of one.

    def _check_ids(self, q: int, kcs: tuple[int, ...]) -> None:
        """A stage takes a question and KC set as `Response` holds them."""
        if q < 0 or q >= self.n_questions:
            raise ValueError(f"unknown question id {q}")
        for c in kcs:
            if c < 0 or c >= self.n_kcs:
                raise ValueError(f"unknown KC id {c}")
        if any(a >= b for a, b in zip(kcs, kcs[1:])):
            raise ValueError(f"KC ids must be sorted and distinct, got {kcs}")

    def stage1_predict(self, H: E.Node, questions: Sequence[int],
                       kc_sets: Sequence[tuple[int, ...]],
                       cache: BatchCache) -> tuple[E.Node, E.Node]:
        """Retrieve memory for each block's question; returns (p_correct,
        mastery), each (n,).

        Mastery is the question's cached read-out applied to the block's
        memory rows of the examined KCs' L-hop support: one `E.readout` of
        those rows against the key's coefficient rows, padded.
        """
        keys = cache.keys(questions, kc_sets)
        coef_rows, mem_rows = keys.readout_index()
        mastery = E.readout(H, mem_rows, keys.tables.coef, coef_rows)
        a_hat = E.sigmoid(E.sub(mastery, keys.difficulty()))
        return a_hat, mastery

    def stage2_strengthen(self, H: E.Node, questions: Sequence[int],
                          kc_sets: Sequence[tuple[int, ...]],
                          correct: Sequence[int], cache: BatchCache) -> E.Node:
        """Apply each block's signed memory update.

        The blocks answered correctly run the gain head and the others the
        loss head, each group as one MLP call and one padded forward
        over its examined KC sets.
        """
        keys = cache.keys(questions, kc_sets)
        n_c, n = self.n_kcs, len(keys)
        groups: dict[str, list[int]] = {"gain": [], "loss": []}
        for b, a in enumerate(correct):
            groups["gain" if a == 1 else "loss"].append(b)
        parts, rows = [], []
        for head, blocks in groups.items():
            if not blocks:
                continue
            sel = _arange(n) if len(blocks) == n else np.array(blocks)
            batch = cache.plan_batch(keys.plans if len(blocks) == n
                                     else [keys.plans[b] for b in blocks])
            seeds = batch.padded[0]
            feats = cache.mlp(
                head, E.gather_rows(H, _block_rows(seeds, n_c, sel)),
                [keys.terms(cache, head, 0, sel, seeds.shape[1])])
            parts.append(gnn_forward_rows(
                self.specs[head], _mask_padding(feats, batch), batch, self.gt,
                cache.weights[head], cache.agg, keys.alpha(sel)))
            rows.append(_block_rows(batch.output_kcs, n_c, sel)
                        if len(blocks) < n or not batch.whole[-1] else None)
        if len(rows) == 1 and rows[0] is None:
            update = parts[0]  # every block whole, in order
        else:
            update = E.scatter_rows(
                parts[0] if len(parts) == 1 else E.concat(parts, axis=0),
                rows[0] if len(rows) == 1 else np.concatenate(rows), n * n_c)
        return E.add(H, update)

    def stage3_learn_forget(self, H: E.Node, questions: Sequence[int],
                            kc_sets: Sequence[tuple[int, ...]],
                            next_questions: Sequence[int],
                            next_kc_sets: Sequence[tuple[int, ...]],
                            dt_seconds: Sequence[float], counters: np.ndarray,
                            cache: BatchCache) -> E.Node:
        """Advance each block's memory across the gap before its next
        question.

        Mutates `counters`, (n, C) or (C,) for one block, in place: one
        increment per KC that actually received progress. The gate runs on
        every block's candidates at once, progress propagates over the
        blocks whose gate opened, and forgetting is one `E.forget` node over
        all rows. A block's candidates are the union of its current and
        next KC sets.
        """
        cur = cache.keys(questions, kc_sets)
        nxt = cache.keys(next_questions, next_kc_sets)
        n_c, n = self.n_kcs, len(cur)
        counters = counters.reshape(n, n_c)
        dt = (np.asarray(dt_seconds, dtype=np.float64) / 60.0).clip(
            0.0, DT_CAP_MINUTES)
        cand, valid = pad_ids([sorted({*a, *b}) for (_, a), (_, b)
                               in zip(cur.keys, nxt.keys)])
        width = cand.shape[1]
        memory = E.gather_rows(H, _block_rows(cand, n_c))
        every = _arange(n)

        def question_terms(head):
            return [cur.terms(cache, head, 0, every, width),
                    nxt.terms(cache, head, 1, every, width)]

        pi = E.softmax(cache.mlp("dcs", memory, question_terms("dcs")),
                       axis=-1)
        decisions = pi.value.argmax(axis=1)  # hard gate; ties mean no learning
        learned = decisions == 1
        if valid is not None:
            valid = valid.ravel()
            decisions, learned = decisions[valid], learned & valid
        E.log_gate(decisions.tobytes())

        new_H, learned_mask = H, None
        if learned.any():
            p_all = cache.mlp("prg", memory, question_terms("prg"))
            if cache.mode == "train":
                # soft multiplier so the decision head receives gradient
                p_all = E.mul(p_all, E.slice_cols(pi, 1, 2))
            per_block = learned.reshape(n, width)
            sel = np.flatnonzero(per_block.any(axis=1))
            batch = cache.plan_batch([
                self.plan(tuple(cand[b, per_block[b]].tolist())) for b in sel])
            seed_rows, _ = pad_ids([np.flatnonzero(per_block[b]) + b * width
                                    for b in sel])
            seed = _mask_padding(E.gather_rows(p_all, seed_rows.ravel()),
                                 batch)
            progress = gnn_forward_rows(self.specs["prg"], seed, batch, self.gt,
                                        cache.weights["prg"], cache.agg)
            kcs = batch.output_kcs
            dest = _block_rows(kcs, n_c, sel)
            learned_mask = np.zeros(n * n_c, dtype=bool)
            learned_mask[dest] = (progress.value != 0).any(axis=1)
            E.log_gate(np.packbits(learned_mask).tobytes())
            nvec = -(counters.ravel()[dest] + 1.0).reshape(-1, 1) \
                * np.repeat(dt[sel], kcs.shape[1])[:, None]
            rates = E.gather_rows(cache.learn_rates, kcs.ravel())
            learn_fac = E.sub(1.0, E.clamped_exp(
                E.mul(E.as_node(nvec.astype(H.value.dtype)), rates)))
            gained = E.mul(progress, learn_fac)
            if len(sel) < n or not batch.whole[-1]:
                gained = E.scatter_rows(gained, dest, n * n_c)
            new_H = E.add(new_H, gained)

        # every row forgets unless it learned
        nvec_all = (-(counters + 1.0) * dt[:, None]).reshape(-1, 1)
        new_H = E.forget(
            new_H, H, cache.tiled("h0", n), None if learned_mask is None
            else (~learned_mask).astype(H.value.dtype).reshape(-1, 1),
            nvec_all.astype(H.value.dtype, copy=False),
            cache.tiled("forget_rates", n))
        if learned_mask is not None:
            counters[learned_mask.reshape(n, n_c)] += 1
        return new_H

    # -- the recurrence -----------------------------------------------------

    def steps(self, sequences: Sequence[Sequence[Response]], cache: BatchCache,
              disable_stage3: bool = False) -> Iterator[Step]:
        """Run stages 1 -> 2 -> 3 over B sequences in lockstep, yielding one
        Step per time step.

        Stage 1 predicts each response from the memory so far, stage 2
        strengthens the memory with the observed outcome, and stage 3 (unless
        disabled) carries it across the gap to the next response. Sequences
        run longest first, so the ones still running at a step are a prefix
        of the memory blocks: a block leaves the stack when its sequence
        ends. The generator owns the memory and the per-KC learning
        counters; a step's stage 3 runs when the consumer asks for the next
        step. A single sequence is a batch of one.
        """
        order = sorted(range(len(sequences)), key=lambda b: -len(sequences[b]))
        seqs = [sequences[b] for b in order]
        cache.prepare([r for s in seqs for r in s])
        # active[t]: how many sequences are still running at step t
        active = [sum(len(s) > t for s in seqs)
                  for t in range(len(seqs[0]) + 1 if seqs else 1)]
        counters = np.zeros((len(seqs), self.n_kcs), dtype=np.int64)
        H = cache.tiled("h0", active[0]) if active[0] else None
        for t in range(len(active) - 1):
            rs = [s[t] for s in seqs[:active[t]]]
            H = self._first_blocks(H, len(rs))
            questions, kc_sets = [r.question for r in rs], [r.kcs for r in rs]
            a_hat, mastery = self.stage1_predict(H, questions, kc_sets, cache)
            after = self.stage2_strengthen(H, questions, kc_sets,
                                           [r.correct for r in rs], cache)
            yield Step(rs, order[:len(rs)], a_hat, mastery, H, after)
            H = after
            n = active[t + 1]
            if not disable_stage3 and n:
                nxt = [s[t + 1] for s in seqs[:n]]
                H = self.stage3_learn_forget(
                    self._first_blocks(H, n), questions[:n], kc_sets[:n],
                    [r.question for r in nxt], [r.kcs for r in nxt],
                    [float(b.timestamp - a.timestamp) for a, b in zip(rs, nxt)],
                    counters[:n], cache)

    def _first_blocks(self, H: E.Node, n: int) -> E.Node:
        n_rows = n * self.n_kcs
        return H if H.value.shape[0] == n_rows \
            else E.gather_rows(H, slice(0, n_rows))

    def forward_sequence(self, seq: ResponseSequence, cache: BatchCache,
                         disable_stage3: bool = False) -> SeqResult:
        """Predictions over one sequence's real steps: the recurrence over a
        batch of one.

        Nothing in the package calls it; training, evaluation, `trace` and
        `gradcheck` run their batches through `steps`. It stays as the
        batch-of-one API that the benchmark harness and the tests call."""
        return SeqResult(preds=[
            (step.a_hat, step.responses[0].correct)
            for step in self.steps([seq.real()], cache, disable_stage3)])

    # -- persistence --------------------------------------------------------

    def save(self, path, *, disable_stage3: bool, seq_len: int, min_len: int,
             k: int, val_frac: float, fold: int) -> None:
        """Write the whole model and the run that trained it to one file.

        It holds the parameters, the settings, the relation graphs the model
        was built on (after any graph ablation) as graph file text, and the
        run: the stage-3 ablation, `preprocess`'s lengths, and `make_folds`'
        `k`, `val_frac` and test fold (the split seed is `hyper.seed`).
        """
        self.store.save(path, {
            "hyper": asdict(self.hp), "n_questions": self.n_questions,
            "run": {"disable_stage3": disable_stage3, "seq_len": seq_len,
                    "min_len": min_len, "k": k, "val_frac": val_frac,
                    "fold": fold},
            "graphs": format_graphs(self.graphs),
        })

    @classmethod
    def load(cls, path) -> tuple["GrktModel", dict]:
        """Read a checkpoint; returns the model and its run, as the keyword
        arguments `save` took. A graph line that does not parse is named
        as `graphs:line`."""
        store, fields = E.ParameterStore.load(path)
        try:
            graphs = parse_graphs(fields["graphs"], "graphs")
            model = cls(HyperParams(**fields["hyper"]), fields["n_questions"],
                        graphs.n_kcs, graphs, store=store)
            run = {name: fields["run"][name] for name in (
                "disable_stage3", "seq_len", "min_len", "k", "val_frac", "fold")}
            if not 0 <= run["fold"] < run["k"]:
                raise ValueError(f"fold {run['fold']} of {run['k']}")
            return model, run
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed model fields ({exc})") from None


class StepArrays:
    """One lockstep `Step` read as arrays, row b for the step's response b.

    Evaluation, validation and `graphkt trace` all read a step through it.
    The arrays past stage 1's outputs are computed when first read, so a
    reader pays for what it reads.
    """

    def __init__(self, model: GrktModel, step: Step, cache: BatchCache):
        self.model, self.step, self.cache = model, step, cache
        self.scores = step.a_hat.value     # (n,) stage-1 P(correct)
        self.mastery = step.mastery.value  # (n,) stage-1 examined mastery
        self.labels, self.questions = np.array(
            [(r.correct, r.question) for r in step.responses], np.int64).T

    def _per_kc(self, H: E.Node) -> np.ndarray:
        return (H.value @ self.cache.w_h_col.value).reshape(
            len(self.scores), self.model.n_kcs)

    # (n, C) per-KC mastery before and after the strengthening update
    pre = functools.cached_property(lambda self: self._per_kc(self.step.before))
    post = functools.cached_property(lambda self: self._per_kc(self.step.after))
    # (n,) each response's consistency ratio, NaN where it does not qualify
    consistency = functools.cached_property(
        lambda self: metrics.consistency_ratios(self.pre, self.post,
                                                self.examined))

    @functools.cached_property
    def examined(self) -> np.ndarray:
        """(n, C) mask of each response's KCs."""
        kc_sets = [r.kcs for r in self.step.responses]
        mask = np.zeros((len(kc_sets), self.model.n_kcs), dtype=bool)
        mask[np.repeat(np.arange(len(kc_sets)), [len(k) for k in kc_sets]),
             [c for k in kc_sets for c in k]] = True
        return mask

    @functools.cached_property
    def reask(self) -> np.ndarray:
        """(n,) each question's score asked again right after its response:
        a counterfactual probe, reading the strengthened memory."""
        rs = self.step.responses
        again, _ = self.model.stage1_predict(
            self.step.after, [r.question for r in rs], [r.kcs for r in rs],
            self.cache)
        return again.value
