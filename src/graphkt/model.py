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
the sequence's new (question, KC set) keys in one pass, and each response
reads its rows. The MLP heads' first layer is split to match: the memory
rows multiply W1's memory rows, and the cached question term is added.

`GrktModel.steps` is the recurrence: the one place that runs the three stages
in order and owns the memory bank. Sequence predictions, mastery traces and
re-ask probes all consume its per-response records.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine as E
from .data import Response, ResponseSequence
from .gnn import (GnnSpec, GraphTensors, Plan, gnn_forward_rows, make_specs,
                  plan_outward, readout_rows)
from .graphs import (GRAPH_KINDS, GraphBuildConfig, KcRelationGraphs,
                     format_graphs, parse_graphs)

DT_CAP_MINUTES = 43200.0  # 30 days

MLP_HEADS = ("diff", "gain", "loss", "dcs", "prg")


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
        GraphBuildConfig(eta=self.eta)  # the mining threshold's own rule


@dataclass
class TraceStep:
    examined: tuple[int, ...]
    pre: np.ndarray   # per-KC mastery before the strengthening update
    post: np.ndarray  # per-KC mastery after it
    step: int = 0
    timestamp: int = 0
    predicted: float = 0.0
    correct: int = 0


@dataclass
class MasteryTrace:
    student: int
    seq_index: int
    steps: list[TraceStep] = field(default_factory=list)


@dataclass
class SeqResult:
    preds: list[tuple[E.Node, int]]
    trace: MasteryTrace | None = None


@dataclass
class Step:
    """One response as the recurrence processed it (see `GrktModel.steps`)."""
    response: Response
    a_hat: E.Node    # stage-1 probability of a correct answer
    mastery: E.Node  # stage-1 mastery of the examined KCs
    before: E.Node   # memory before the strengthening update
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
    question's embedding. `difficulty` is the diff MLP on it, (K, 1), and
    `requirement` the (K, C) question-KC scores sigmoid((e_q req) k^T).
    The stage-1 read-outs run as one padded `readout_rows` batch per size
    class of the keys' hop supports; `coef_rows[i]` locates key i's rows
    as (table, first row, row count), the table being its batch flattened
    to (keys * width, d_k). `terms` holds the question halves of the
    stage-2/3 MLP inputs, built on first use (`BatchCache.question_term`).
    """

    def __init__(self, cache: "BatchCache", keys: list[tuple[int, tuple]]):
        model, bound = cache.model, cache.bound
        dtype = model.store.dtype
        n_keys, n_c = len(keys), model.n_kcs
        sizes = np.array([len(kcs) for _, kcs in keys])
        avg = np.zeros((n_keys, n_c), dtype=dtype)
        avg[np.repeat(np.arange(n_keys), sizes),
            np.concatenate([kcs for _, kcs in keys])] = np.repeat(1.0 / sizes,
                                                                  sizes)
        e_q = E.gather_rows(bound["emb.q"], [q for q, _ in keys])
        self.e_bar = E.concat([E.matmul(E.as_node(avg), cache.k_active), e_q],
                              axis=1)
        self.difficulty = cache.mlp("diff", E.add(
            E.matmul(self.e_bar, bound["mlp.diff.W1"]), bound["mlp.diff.b1"]))
        self.requirement = cache.requirement(e_q)

        # keys whose output row counts lie in one power-of-two range are
        # read out together, so padding at most doubles a key's output rows
        plans = [cache.plan_out(kcs) for _, kcs in keys]
        n_out = [len(p.output_rows) for p in plans]
        size_class = np.array([n.bit_length() for n in n_out])
        self.coef_rows: list = [None] * n_keys
        for cls in np.unique(size_class):
            members = np.flatnonzero(size_class == cls)
            n_seed = sizes[members, None]
            seed = E.mul(cache.w_h_row, E.as_node(
                ((np.arange(n_seed.max()) < n_seed) / n_seed)[:, :, None]
                .astype(dtype)))
            batch = [plans[i] for i in members]
            requirement = self.requirement if len(members) == n_keys \
                else E.gather_rows(self.requirement, members)
            coef = readout_rows(model.specs["rtv"], seed, batch, cache.rtv_t,
                                cache.agg, cache.whole_transposed(batch),
                                requirement)
            width = coef.value.shape[1]
            flat = E.reshape(coef, (len(members) * width, model.hp.d_k))
            for j, i in enumerate(members):
                self.coef_rows[i] = (flat, j * width, n_out[i])
        self.terms: dict[tuple[str, int], E.Node] = {}


class BatchCache:
    """Per-parameter-state tape nodes shared across a batch.

    Edge correlations (stacked into one adjacency node over the graphs with
    edges), stacked and constrained GNN weights and kernel rate matrices
    depend only on the parameters, so they are built once and reused by
    every sequence until the next optimizer step. So do the question-side
    quantities of each (question, KC set) key: `prepare` builds those of a
    sequence's new keys as one `QuestionTables` batch, and a stage reads its
    key's rows of them (`readout`, `difficulty`, `alpha_col`,
    `question_term`). A key `prepare` did not see is built as a batch of
    one. Propagation
    plans do not depend on the parameters; `plan_out` fetches them from the
    model's own cache.
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
        # only once a read-out batch has a layer that writes every KC
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

        self._col = np.arange(n_c)[:, None]
        self._w1: dict[tuple[str, int], E.Node] = {}
        self._keys: dict[tuple, tuple[QuestionTables, int]] = {}
        self._question: dict[int, tuple[QuestionTables, int]] = {}
        self._alpha_col: dict[int, E.Node] = {}

    # -- building ------------------------------------------------------------

    def prepare(self, responses: Sequence[Response]) -> None:
        """Build the question-side tables of the responses' keys that are
        not built yet, as one batch in order of first appearance. Every
        response's ids are checked first."""
        for r in responses:
            self.model._check_ids(r.question, r.kcs)
        new = dict.fromkeys((r.question, r.kcs) for r in responses
                            if (r.question, r.kcs) not in self._keys)
        if new:
            self._build(list(new))

    def _build(self, keys: list[tuple[int, tuple]]) -> None:
        tables = QuestionTables(self, keys)
        for i, key in enumerate(keys):
            self._keys[key] = (tables, i)
            self._question.setdefault(key[0], (tables, i))

    def _key(self, q: int, kcs: tuple[int, ...]) -> tuple[QuestionTables, int]:
        if (q, kcs) not in self._keys:
            self._build([(q, kcs)])
        return self._keys[q, kcs]

    def mlp(self, head: str, pre: E.Node) -> E.Node:
        """MLP head `head` from its first layer's pre-activation `pre`
        (input times W1, plus b1)."""
        b = self.bound
        return E.add(E.matmul(E.relu(pre), b[f"mlp.{head}.W2"]),
                     b[f"mlp.{head}.b2"])

    def split_mlp(self, head: str, memory: E.Node,
                  terms: Sequence[E.Node]) -> E.Node:
        """MLP head `head` on memory rows and question parts: the rows times
        W1's memory rows plus the cached question terms, one row each."""
        pre = E.matmul(memory, self.w1_part(head, 0))
        for t in terms:
            pre = E.add(pre, t)
        return self.mlp(head, pre)

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

    def requirement(self, e_q: E.Node) -> E.Node:
        """The (n, C) requirement scores of the questions embedded in e_q."""
        return E.sigmoid(E.matmul(E.matmul(e_q, self.bound["req"]), self.k_t))

    def whole_transposed(self, plans: list[Plan]) -> E.Node | None:
        """`agg` transposed, built once a read-out batch of `plans` has a
        layer whose output holds every KC for every plan."""
        if self.agg_t is None and self.agg is not None and any(
                all(p.ix[k] is None for p in plans)
                for k in range(len(plans[0].ix))):
            self.agg_t = E.transpose(self.agg)
        return self.agg_t

    # -- one key's rows, read as views of its tables -----------------------

    def readout(self, q: int, kcs: tuple[int, ...]) -> E.Node:
        """Stage-1 coefficients of question `q` over the sorted KC set `kcs`.

        One row per `plan_out(kcs).output_rows` KC: the stage-1 mastery of a
        memory H is the sum of H's rows there times these coefficients. They
        are the retrieval head's transpose run along the plan stage 2 uses,
        from the read-out seed, softmax(w_h) / |kcs| on every examined KC.
        """
        tables, i = self._key(q, kcs)
        table, start, n = tables.coef_rows[i]
        return E.gather_rows(table, slice(start, start + n))

    def difficulty(self, q: int, kcs: tuple[int, ...]) -> E.Node:
        tables, i = self._key(q, kcs)
        return E.gather_rows(tables.difficulty, slice(i, i + 1))

    def question_term(self, head: str, part: int, q: int,
                      kcs: tuple[int, ...]) -> E.Node:
        """Key (q, kcs)'s (1, d_h) question term in MLP head `head`'s first
        layer: e_bar times W1's rows for the current question (part 0, plus
        the bias b1) or the next one (part 1), from its tables' (K, d_h)
        term, which is built for all their keys on first use."""
        tables, i = self._key(q, kcs)
        if (head, part) not in tables.terms:
            t = E.matmul(tables.e_bar, self.w1_part(head, part + 1))
            if part == 0:
                t = E.add(t, self.bound[f"mlp.{head}.b1"])
            tables.terms[head, part] = t
        return E.gather_rows(tables.terms[head, part], slice(i, i + 1))

    def alpha_col(self, q: int) -> E.Node:
        """The (n_kcs, 1) requirement scores of question `q` for each KC."""
        if q not in self._alpha_col:
            if q in self._question:
                tables, i = self._question[q]
                col = E.gather_submatrix(tables.requirement,
                                         (np.array([[i]]), self._col))
            else:
                col = E.transpose(self.requirement(
                    E.gather_rows(self.bound["emb.q"], [q])))
            self._alpha_col[q] = col
        return self._alpha_col[q]

    def plan_out(self, kcs: tuple[int, ...]) -> Plan:
        return self.model.plan(kcs)


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

    def plan(self, kcs: tuple[int, ...]) -> Plan:
        """The plan for `kcs`, built once; stages 1 and 2 share it."""
        if kcs not in self._plans:
            self._plans[kcs] = plan_outward(self.gt, kcs, self.hp.layers)
        return self._plans[kcs]

    def begin(self, mode: str = "eval") -> tuple[dict[str, E.Node], BatchCache]:
        bound = self.store.bind()
        return bound, BatchCache(self, bound, mode)

    # -- single stages ------------------------------------------------------

    def _check_ids(self, q: int, kcs: tuple[int, ...]) -> None:
        """A stage takes a question and KC set as `Response` holds them."""
        if q < 0 or q >= self.n_questions:
            raise ValueError(f"unknown question id {q}")
        for c in kcs:
            if c < 0 or c >= self.n_kcs:
                raise ValueError(f"unknown KC id {c}")
        if any(a >= b for a, b in zip(kcs, kcs[1:])):
            raise ValueError(f"KC ids must be sorted and distinct, got {kcs}")

    def stage1_predict(self, H: E.Node, q: int, kcs: tuple[int, ...],
                       cache: BatchCache) -> tuple[E.Node, E.Node]:
        """Retrieve memory for a question; returns (p_correct, mastery).

        Mastery is the question's cached read-out applied to the memory rows
        of the examined KCs' L-hop support.
        """
        self._check_ids(q, kcs)
        x0 = E.gather_rows(H, cache.plan_out(kcs).row_arrays[-1])
        mastery = E.sum_all(E.mul(x0, cache.readout(q, kcs)))
        a_hat = E.sigmoid(E.sub(mastery, cache.difficulty(q, kcs)))
        return a_hat, mastery

    def stage2_strengthen(self, H: E.Node, q: int, kcs: tuple[int, ...],
                          a: int, cache: BatchCache) -> E.Node:
        """Apply the signed memory update for one response."""
        self._check_ids(q, kcs)
        head = "gain" if a == 1 else "loss"
        feats = cache.split_mlp(head, E.gather_rows(H, list(kcs)),
                                [cache.question_term(head, 0, q, kcs)])
        plan = cache.plan_out(kcs)
        update_rows = gnn_forward_rows(self.specs[head], feats, plan, self.gt,
                                       cache.weights[head], cache.agg,
                                       cache.alpha_col(q))
        update = E.scatter_rows(update_rows, list(plan.output_rows), self.n_kcs)
        return E.add(H, update)

    def stage3_learn_forget(self, H: E.Node, q_t: int, kcs_t: tuple[int, ...],
                            q_next: int, kcs_next: tuple[int, ...],
                            dt_seconds: float, counters: np.ndarray,
                            cache: BatchCache) -> E.Node:
        """Advance memory across the gap before the next question.

        Mutates `counters` in place (one increment per KC that actually
        received progress).
        """
        self._check_ids(q_t, kcs_t)
        self._check_ids(q_next, kcs_next)
        dt = min(max(dt_seconds, 0.0) / 60.0, DT_CAP_MINUTES)
        candidates = sorted(set(kcs_t) | set(kcs_next))
        memory = E.gather_rows(H, candidates)

        def question_terms(head):
            return [cache.question_term(head, 0, q_t, kcs_t),
                    cache.question_term(head, 1, q_next, kcs_next)]

        pi = E.softmax(cache.split_mlp("dcs", memory, question_terms("dcs")),
                       axis=-1)
        decisions = pi.value.argmax(axis=1)  # hard gate; ties mean no learning
        learned_pos = np.flatnonzero(decisions == 1)
        E.log_gate(decisions.tobytes())

        new_H = H
        learned_mask = np.zeros(self.n_kcs, dtype=bool)
        if len(learned_pos):
            p_all = cache.split_mlp("prg", memory, question_terms("prg"))
            if cache.mode == "train":
                # soft multiplier so the decision head receives gradient
                p_all = E.mul(p_all, E.slice_cols(pi, 1, 2))
            seed = E.gather_rows(p_all, learned_pos)
            learned_idx = tuple(candidates[i] for i in learned_pos)
            plan = cache.plan_out(learned_idx)
            progress_rows = gnn_forward_rows(
                self.specs["prg"], seed, plan,
                self.gt, cache.weights["prg"], cache.agg)
            support = list(plan.output_rows)
            learned_mask[support] = (progress_rows.value != 0).any(axis=1)
            nvec = -(counters[support] + 1.0).reshape(-1, 1) * dt
            rates = E.gather_rows(cache.learn_rates, support)
            learn_fac = E.sub(1.0, E.clamped_exp(
                E.mul(E.as_node(nvec.astype(H.value.dtype)), rates)))
            gained = E.scatter_rows(E.mul(progress_rows, learn_fac),
                                    support, self.n_kcs)
            new_H = E.add(new_H, gained)
        E.log_gate(np.packbits(learned_mask).tobytes())

        nvec_all = -(counters + 1.0).reshape(-1, 1) * dt
        forget_rows = (~learned_mask).astype(H.value.dtype).reshape(-1, 1)
        forget_fac = E.sub(1.0, E.clamped_exp(
            E.mul(E.as_node(nvec_all.astype(H.value.dtype)),
                  cache.forget_rates)))
        decay = E.mul(E.mul(E.as_node(forget_rows), E.sub(H, cache.h0)),
                      forget_fac)
        new_H = E.sub(new_H, decay)

        counters[learned_mask] += 1
        return new_H

    # -- the recurrence -----------------------------------------------------

    def steps(self, responses: Sequence[Response], cache: BatchCache,
              disable_stage3: bool = False) -> Iterator[Step]:
        """Run stages 1 -> 2 -> 3 over `responses`, yielding one Step each.

        Stage 1 predicts each response from the memory so far, stage 2
        strengthens the memory with the observed outcome, and stage 3 (unless
        disabled) carries it across the gap to the next response. The
        generator owns the memory and the per-KC learning counters; a step's
        stage 3 runs when the consumer asks for the next step.
        """
        cache.prepare(responses)
        H = cache.h0
        counters = np.zeros(self.n_kcs, dtype=np.int64)
        for t, r in enumerate(responses):
            a_hat, mastery = self.stage1_predict(H, r.question, r.kcs, cache)
            after = self.stage2_strengthen(H, r.question, r.kcs, r.correct, cache)
            yield Step(r, a_hat, mastery, H, after)
            H = after
            if not disable_stage3 and t + 1 < len(responses):
                nxt = responses[t + 1]
                H = self.stage3_learn_forget(
                    H, r.question, r.kcs, nxt.question, nxt.kcs,
                    float(nxt.timestamp - r.timestamp), counters, cache)

    def trace_step(self, step: Step, t: int, cache: BatchCache) -> TraceStep:
        """Per-KC mastery around the strengthening update of step `t`."""
        r = step.response
        return TraceStep(examined=r.kcs,
                         pre=self._mastery_vector(step.before, cache),
                         post=self._mastery_vector(step.after, cache),
                         step=t, timestamp=r.timestamp,
                         predicted=step.a_hat.value.item(), correct=r.correct)

    def reask(self, step: Step, cache: BatchCache) -> tuple[float, int]:
        """Score the same question asked again right after the response.

        A counterfactual probe: it reads the strengthened memory and changes
        nothing. Returns (score, observed correctness).
        """
        r = step.response
        again, _ = self.stage1_predict(step.after, r.question, r.kcs, cache)
        return again.value.item(), r.correct

    def forward_sequence(self, seq: ResponseSequence, cache: BatchCache,
                         seq_index: int = 0, emit_trace: bool = False,
                         disable_stage3: bool = False) -> SeqResult:
        """Predictions (and optionally a trace) over one sequence's real steps."""
        preds: list[tuple[E.Node, int]] = []
        trace = MasteryTrace(seq.student, seq_index) if emit_trace else None
        for t, step in enumerate(self.steps(seq.real(), cache, disable_stage3)):
            preds.append((step.a_hat, step.response.correct))
            if trace is not None:
                trace.steps.append(self.trace_step(step, t, cache))
        return SeqResult(preds=preds, trace=trace)

    def _mastery_vector(self, H: E.Node, cache: BatchCache) -> np.ndarray:
        return (H.value @ cache.w_h_col.value).ravel().copy()

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


def trace_rows(trace: MasteryTrace) -> list[dict]:
    """Flatten a trace to plot-ready rows, one per (step, KC)."""
    rows = []
    for step in trace.steps:
        for c in range(len(step.pre)):
            rows.append({
                "student": trace.student,
                "seq_index": trace.seq_index,
                "step": step.step,
                "timestamp": step.timestamp,
                "kc": c,
                "mastery_pre": float(step.pre[c]),
                "mastery_post": float(step.post[c]),
                "predicted": step.predicted,
                "correct": step.correct,
            })
    return rows
