"""Acceptance gate: one test per shipped guarantee, run with `pytest -s`.

Each test prints a PASS line once its criterion holds at the stated
tolerance. The final training criterion runs two short trainings on the
bundled synthetic generator and takes several minutes; everything else
finishes in seconds.
"""

import time

import numpy as np
import pytest

from graphkt import engine as E
from graphkt.data import (ColumnSchema, Response, ResponseSequence,
                          make_folds, preprocess)
from graphkt.graphs import KcRelationGraphs
from graphkt.metrics import EvalRecord, UndefinedMetric, accuracy, auc, \
    gaucm, mean_consistency
from graphkt.model import BatchCache, GrktModel, HyperParams
from graphkt.synth import SynthConfig, generate
from graphkt.train import TrainConfig, bce_loss_node, train_fold
from tests.conftest import random_graphs, random_sequence
from tests.oracles import hop_support, repetition, trace_alone, trace_ratios
from tests.test_metrics import (FakeSeq, StubModel, accuracy_oracle,
                                auc_oracle, consistency, consistency_oracle,
                                gaucm_oracle, make_step)
from tests.test_model import randomize


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


# ---------------------------------------------------------------------------
# 1. Consistency is exactly 1.0 on strengthening-boundary traces


def test_acceptance_1_consistency_exactly_one():
    t0 = time.time()
    values = []
    # adversarially random parameters over random graphs and data
    for seed in range(8):
        rng = np.random.default_rng(seed)
        hp = HyperParams(d_e=4, d_k=6, d_h=5, layers=int(rng.integers(1, 3)),
                         seed=seed)
        graphs = random_graphs(rng, 9, p_edges=6, r_edges=5)
        model = GrktModel(hp, 7, 9, graphs)
        randomize(model, scale=4.0, seed=seed + 500)  # adversarial scale
        _, cache = model.begin("eval")
        traces = []
        for s in range(5):
            seq = random_sequence(rng, 7, 9, int(rng.integers(4, 15)), s)
            traces.append(trace_alone(model, seq, cache))
        values.append(mean_consistency(trace_ratios(traces)))

    # and on a trained model over a generated dataset
    res = generate(SynthConfig(n_kcs=12, n_questions=30, n_students=40,
                               seq_len_min=8, seq_len_max=14, seed=2))
    ds = preprocess(res.dataset, seq_len=14, min_len=4)
    fold = make_folds(ds, k=4, val_frac=0.1, seed=0)[0]
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, lr=1e-2, seed=0,
                     batch_size=8, patience=1)
    model, _ = train_fold(ds, fold, TrainConfig(hp=hp, max_epochs=2),
                          graphs=res.graphs, compute_test_metrics=False)
    _, cache = model.begin("eval")
    traces = [trace_alone(model, ds.sequences[i], cache) for i in fold.test]
    values.append(mean_consistency(trace_ratios(traces)))

    assert all(v == 1.0 for v in values), values
    report(1, f"consistency == 1.0 exactly on {len(values)} model/data draws "
              f"({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Oracle equivalence


class StraightLineReference:
    """Independent step-by-step evaluation of the three-stage recurrence.

    Plain numpy written out directly from the update rules (eval-mode
    semantics, equal layer widths); shares nothing with the model code
    beyond reading the same parameter arrays.
    """

    def __init__(self, store, graphs, layers=1):
        self.val = store.value
        self.graphs = graphs
        self.layers = layers
        self.n_kcs = graphs.n_kcs
        self.k = self.val("emb.k")[: self.n_kcs]
        self.e_q = self.val("emb.q")
        w = np.exp(self.val("w_h").ravel())
        self.w_h = w / w.sum()
        self.nbrs = {G: [list(graphs.neighbors(G, c))
                         for c in range(self.n_kcs)]
                     for G in ("P", "S", "R")}
        self.beta = {G: self._sig(self.k @ self.val(f"cor.{G}") @ self.k.T)
                     for G in ("P", "S", "R")}
        self.gamma = self.propagate("lrn", self.k, outer="softplus")
        self.theta = self.propagate("fgt", self.k, outer="softplus")

    @staticmethod
    def _sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def mlp(self, head, x):
        v = self.val
        h = np.maximum(x @ v(f"mlp.{head}.W1") + v(f"mlp.{head}.b1"), 0.0)
        return (h @ v(f"mlp.{head}.W2") + v(f"mlp.{head}.b2")).ravel()

    def alpha(self, q):
        return self._sig(self.e_q[q] @ self.val("req") @ self.k.T)

    def e_bar(self, q, kcs):
        return np.concatenate([self.k[list(kcs)].mean(axis=0), self.e_q[q]])

    def propagate(self, head, x0, q=None, feedforward=True, nonneg=False,
                  outer=None):
        out = np.array(x0, dtype=float)
        for layer in range(1, self.layers + 1):
            nxt = np.zeros_like(out)
            for i in range(self.n_kcs):
                fused = np.zeros(out.shape[1])
                for G in ("P", "S", "R"):
                    lst = self.nbrs[G][i]
                    if not lst:
                        continue
                    w = self.val(f"gnn.{head}.W.{G}.{layer}")
                    if nonneg:
                        e = np.exp(w - w.max(axis=0, keepdims=True))
                        w = e / e.sum(axis=0, keepdims=True)
                    agg = np.zeros(out.shape[1])
                    for j in lst:
                        term = self.beta[G][i, j] * (out[j] @ w)
                        if q is not None:
                            term = self.alpha(q)[j] * term
                        agg += term
                    agg /= len(lst)
                    if feedforward:
                        o = self.val(f"gnn.{head}.O.{G}.{layer}")
                        fused += np.maximum(agg, 0.0) @ o
                    else:
                        fused += agg
                nxt[i] = fused + out[i]  # widths all equal here
            out = nxt
        if outer == "relu":
            out = np.maximum(out, 0.0)
        elif outer == "neg_relu":
            out = -np.maximum(out, 0.0)
        elif outer == "softplus":
            out = np.logaddexp(0.0, out)
        return out

    def predict(self, H, q, kcs):
        rows = self.propagate("rtv", H, q=q, feedforward=False, nonneg=True)
        h_tilde = rows[list(kcs)].mean(axis=0)
        d_q = self.mlp("diff", self.e_bar(q, kcs))[0]
        return self._sig(h_tilde @ self.w_h - d_q)

    def strengthen(self, H, r):
        head = "gain" if r.correct else "loss"
        x0 = np.zeros_like(H)
        for c in r.kcs:
            x0[c] = self.mlp(head, np.concatenate(
                [H[c], self.e_bar(r.question, r.kcs)]))
        update = self.propagate(head, x0, q=r.question,
                                outer="relu" if r.correct else "neg_relu")
        return H + update

    def stage3_progress(self, H, r, nxt):
        """The propagated progress matrix and its learned-row mask."""
        p0 = np.zeros_like(H)
        for c in sorted(set(r.kcs) | set(nxt.kcs)):
            x = np.concatenate([H[c], self.e_bar(r.question, r.kcs),
                                self.e_bar(nxt.question, nxt.kcs)])
            logits = self.mlp("dcs", x)
            if logits[1] > logits[0]:
                p0[c] = self.mlp("prg", x)
        progress = self.propagate("prg", p0, outer="relu")
        return progress, (progress != 0).any(axis=1)

    def learn_forget(self, H, r, nxt, counters):
        dt = min(max(nxt.timestamp - r.timestamp, 0) / 60.0, 43200.0)
        progress, learned = self.stage3_progress(H, r, nxt)
        expo = np.clip(-(counters[:, None] + 1.0) * dt * self.gamma,
                       -60.0, 0.0)
        H = H + np.where(learned[:, None],
                         progress * (1.0 - np.exp(expo)), 0.0)
        expf = np.clip(-(counters[:, None] + 1.0) * dt * self.theta,
                       -60.0, 0.0)
        H = H - np.where(learned[:, None], 0.0,
                         (H - self.val("H0")) * (1.0 - np.exp(expf)))
        return H, counters + learned

    def run(self, sequence):
        H = self.val("H0").copy()
        counters = np.zeros(self.n_kcs)
        preds, trace = [], []
        steps = sequence.responses[: sequence.valid_len]
        for t, r in enumerate(steps):
            preds.append(self.predict(H, r.question, r.kcs))
            pre = H @ self.w_h
            H = self.strengthen(H, r)
            trace.append((pre, H @ self.w_h))
            if t + 1 < len(steps):
                H, counters = self.learn_forget(H, r, steps[t + 1], counters)
        return preds, trace


def hand_instance():
    hp = HyperParams(d_e=2, d_k=2, d_h=2, layers=1, seed=0)
    graphs = KcRelationGraphs(2, {(0, 1): 1.0}, {(0, 1): 1.0})
    model = GrktModel(hp, n_questions=2, n_kcs=2, graphs=graphs)
    rng = np.random.default_rng(2024)  # frozen small parameters
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.uniform(-0.6, 0.6, size=arr.shape)
    seq = ResponseSequence(0, [
        Response(0, (0,), 1, 0),
        Response(1, (1,), 0, 120),
        Response(0, (0,), 1, 420),
    ], 3)
    return model, seq


def test_acceptance_2_forward_matches_straight_line_oracle():
    model, seq = hand_instance()
    _, cache = model.begin("eval")
    trace = trace_alone(model, seq, cache)
    got_preds = trace.scores.tolist()
    ref = StraightLineReference(model.store, model.graphs)
    want_preds, want_trace = ref.run(seq)
    diff = max(abs(a - b) for a, b in zip(got_preds, want_preds))
    for got_pre, got_post, (pre, post) in zip(trace.pre, trace.post,
                                              want_trace):
        diff = max(diff, np.abs(got_pre - pre).max(),
                   np.abs(got_post - post).max())
    assert diff < 1e-10, diff
    report(2, f"hand instance matches the straight-line oracle "
              f"(max abs diff {diff:.2e} < 1e-10)")


def test_acceptance_2_metrics_match_oracles():
    rng = np.random.default_rng(77)
    worst_auc = worst_gaucm = 0.0
    checked = 0
    for trial in range(110):
        n = int(rng.integers(8, 60))
        scores = rng.choice([0.1, 0.3, 0.5, 0.5, 0.8, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[:2] = [0, 1]
        pairs = list(zip(scores.tolist(), labels.tolist()))
        worst_auc = max(worst_auc, abs(auc(pairs) - auc_oracle(pairs)))
        assert accuracy(pairs) == accuracy_oracle(pairs)

        records = [EvalRecord(score=float(s), label=int(y),
                              question=int(rng.integers(5)),
                              mastery=float(rng.choice([0.2, 0.5, 0.8])))
                   for s, y in pairs]
        try:
            worst_gaucm = max(worst_gaucm,
                              abs(gaucm(records) - gaucm_oracle(records)))
        except UndefinedMetric:
            with pytest.raises(UndefinedMetric):
                gaucm_oracle(records)

        steps = []
        for _ in range(int(rng.integers(3, 15))):
            pre = rng.normal(size=5)
            post = pre + rng.normal(scale=0.4, size=5)
            steps.append(make_step(examined=(int(rng.integers(5)),),
                                   pre=pre, post=post))
        assert consistency(steps) == consistency_oracle(steps)

        stub_scores = rng.random(n).tolist()
        stub = StubModel(lambda r, s=iter(stub_scores): next(s))
        want = sum(1 for s, y in zip(stub_scores, labels.tolist())
                   if (1 if s >= 0.5 else 0) == y) / n
        assert repetition(stub, [FakeSeq(labels.tolist())]) == want
        checked += 1
    assert checked >= 100
    assert worst_auc < 1e-12 and worst_gaucm < 1e-12
    report(2, f"five metrics match brute-force oracles on {checked} random "
              f"instances (AUC diff {worst_auc:.1e}, GAUCM diff "
              f"{worst_gaucm:.1e}; ACC/consistency/repetition exact)")


# ---------------------------------------------------------------------------
# 3. Gradient check on the desk configuration


def test_acceptance_3_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(0)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=0)
    graphs = KcRelationGraphs(
        6, {(0, 1): 0.9, (2, 3): 0.8}, {(1, 2): 0.7, (4, 5): 0.9})
    model = GrktModel(hp, 5, 6, graphs)
    randomize(model, scale=0.4, seed=1)
    seqs = [random_sequence(rng, 5, 6, 5, student=s) for s in range(2)]

    def build_loss(bound):
        cache = BatchCache(model, bound, "train")
        preds = []
        for seq in seqs:
            preds.extend(model.forward_sequence(seq, cache).preds)
        return bce_loss_node(preds)

    rep = E.grad_check(model.store, build_loss, np.random.default_rng(3),
                       n_coords=200, h=1e-5, tolerance=1e-4)
    elapsed = time.time() - t0
    assert rep.passed, rep.summary()
    assert rep.n_checked >= 200
    assert elapsed < 60.0
    # the check is not vacuous: most parameter mass carries gradient
    nonzero = sum(int((model.store[n].grad != 0).sum())
                  for n in model.store.names())
    total = sum(model.store.value(n).size for n in model.store.names())
    assert nonzero / total > 0.5, (nonzero, total)
    report(3, f"analytic vs central differences: {rep.n_checked} coordinates, "
              f"max rel err {rep.max_rel_err:.2e} < 1e-4, "
              f"{rep.n_skipped} non-smooth skipped, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Locality of stages II-III


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_acceptance_4_locality(layers):
    checked_rows = 0
    for trial in range(50):
        rng = np.random.default_rng(1000 * layers + trial)
        n_kcs = int(rng.integers(8, 14))
        n_q = int(rng.integers(4, 8))
        graphs = random_graphs(rng, n_kcs, p_edges=int(rng.integers(2, 7)),
                               r_edges=int(rng.integers(2, 6)))
        hp = HyperParams(d_e=3, d_k=4, d_h=5, layers=layers, seed=trial)
        model = GrktModel(hp, n_q, n_kcs, graphs)
        randomize(model, scale=0.8, seed=trial + 7)
        seq = random_sequence(rng, n_q, n_kcs, int(rng.integers(3, 9)))

        involved = {c for r in seq.real() for c in r.kcs}
        support = hop_support(graphs, involved, layers)
        outside = sorted(set(range(n_kcs)) - support)
        if not outside:
            continue

        _, cache = model.begin("eval")
        h0_rows = {c: cache.h0.value[c].tobytes() for c in outside}
        H = cache.h0
        counters = np.zeros(n_kcs, dtype=np.int64)
        for t in range(seq.valid_len):
            r = seq.responses[t]
            H = model.stage2_strengthen(H, [r.question], [r.kcs], [r.correct],
                                        cache)
            for c in outside:
                assert H.value[c].tobytes() == h0_rows[c]
            if t + 1 < seq.valid_len:
                nxt = seq.responses[t + 1]
                H = model.stage3_learn_forget(
                    H, [r.question], [r.kcs], [nxt.question], [nxt.kcs],
                    [float(nxt.timestamp - r.timestamp)], counters, cache)
                for c in outside:
                    assert H.value[c].tobytes() == h0_rows[c]
            checked_rows += len(outside)
    assert checked_rows > 0
    report(4, f"L={layers}: rows outside the BFS support bitwise unchanged "
              f"({checked_rows} row-step checks over 50 draws)")


# ---------------------------------------------------------------------------
# 5. Kernel limits


def test_acceptance_5_kernel_limits():
    # dt = 0 leaves memory unchanged exactly, for random models
    for seed in range(10):
        rng = np.random.default_rng(seed)
        hp = HyperParams(d_e=4, d_k=4, d_h=5, layers=1, seed=seed)
        graphs = random_graphs(rng, 7)
        model = GrktModel(hp, 5, 7, graphs)
        randomize(model, scale=1.0, seed=seed)
        _, cache = model.begin("eval")
        H = E.as_node(rng.normal(0.3, 0.5, size=(7, 4)))
        out = model.stage3_learn_forget(H, [0], [(0, 1)], [1], [(2,)], [0.0],
                                        np.zeros(7, dtype=np.int64), cache)
        assert np.array_equal(out.value, H.value)

    # dt = 1e9 saturates both kernels: learned increments equal the
    # propagated progress matrix (from the independent reference) and
    # forgotten rows land on the initial memory, within 1e-9
    saturated_learn = saturated_forget = 0
    for seed in range(12):
        rng = np.random.default_rng(300 + seed)
        hp = HyperParams(d_e=4, d_k=4, d_h=5, layers=1, seed=seed)
        graphs = random_graphs(rng, 6)
        model = GrktModel(hp, 5, 6, graphs)
        randomize(model, scale=0.6, seed=seed + 40)
        ref = StraightLineReference(model.store, model.graphs)
        r0 = Response(0, (0, 1), 1, 0)
        r1 = Response(1, (2,), 0, 1_000_000_000)
        H = rng.normal(0.4, 0.4, size=(6, 4))
        progress, learned = ref.stage3_progress(H, r0, r1)

        _, cache = model.begin("eval")
        counters = np.zeros(6, dtype=np.int64)
        out = model.stage3_learn_forget(E.as_node(H), [r0.question], [r0.kcs],
                                        [r1.question], [r1.kcs], [1e9],
                                        counters, cache)
        h0 = model.store.value("H0")
        for c in range(6):
            if learned[c]:
                assert np.abs(out.value[c] - (H[c] + progress[c])).max() < 1e-9
                saturated_learn += 1
            else:
                assert np.abs(out.value[c] - h0[c]).max() < 1e-9
                saturated_forget += 1
    assert saturated_learn > 0 and saturated_forget > 0
    report(5, f"dt=0 is an exact identity; dt=1e9 drives {saturated_learn} "
              f"learned rows to memory+progress and {saturated_forget} "
              f"forgotten rows to the initial memory within 1e-9")


# ---------------------------------------------------------------------------
# 7. Stage-3-disabled timestamp invariance (quick; the slow test runs last)


def test_acceptance_7_timestamp_invariance_without_stage3():
    rng = np.random.default_rng(55)
    hp = HyperParams(d_e=4, d_k=4, d_h=5, layers=2, seed=55)
    graphs = random_graphs(rng, 8)
    model = GrktModel(hp, 6, 8, graphs)
    randomize(model, scale=0.7, seed=56)
    seq = random_sequence(rng, 6, 8, 12)

    def predictions(s):
        _, cache = model.begin("eval")
        res = model.forward_sequence(s, cache, disable_stage3=True)
        return [p.value.item() for p, _ in res.preds]

    base = predictions(seq)
    for warp in (lambda t: 2 * t + 17, lambda t: t * t + 3,
                 lambda t: 1000 * t):
        warped = ResponseSequence(seq.student, [
            Response(r.question, r.kcs, r.correct, warp(r.timestamp))
            for r in seq.responses], seq.valid_len)
        assert predictions(warped) == base  # bit-identical floats
    report(7, "with the learning/forgetting stage disabled, predictions are "
              "bit-identical under monotone timestamp reparameterizations")


# ---------------------------------------------------------------------------
# 8. Full-scale reproduction is documented, not gated


def test_acceptance_8_reproduction_recipe_ships():
    from pathlib import Path
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "Reproducing published-scale results" in text
    for needle in ("ASSIST09", "ASSIST12", "Junyi", "0.01", "order_id"):
        assert needle in text, needle
    # the loaders the recipe relies on are importable and handle the
    # order-rank timestamp scheme
    schema = ColumnSchema(timestamp_is_order=True)
    assert schema.timestamp_is_order
    report(8, "published-scale recipe documented (non-gating) and the "
              "loaders it needs are shipped")


# ---------------------------------------------------------------------------
# 6. Synthetic learning and the relation-graph ablation (slow, runs last)


def test_acceptance_6_synthetic_learning_and_ablation():
    t0 = time.time()
    # students differ mainly in ability correlated along the planted graph
    # (smoothed noise) plus cross-KC transfer on practice: per-KC histories
    # are too sparse to recover ability alone, so relation information is
    # what separates the full model from the no-graph ablation
    cfg = SynthConfig(n_kcs=50, n_questions=200, n_students=500,
                      transfer=0.9, seed=11, noise_smoothing=4,
                      mastery_noise=4.0, kcs_per_question_max=2,
                      pre_density=0.16, sim_density=0.16, guess=0.02,
                      slip=0.02, learn_increment=0.15, decay_rate=0.0,
                      depth_penalty=0.0, difficulty_spread=0.3,
                      seq_len_min=30, seq_len_max=50,
                      gap_minutes_min=0.2, gap_minutes_max=2.0)
    res = generate(cfg)
    ds = preprocess(res.dataset, seq_len=50, min_len=10)
    assert len(ds.sequences) == 500
    fold = make_folds(ds, k=5, val_frac=0.1, seed=0)[0]
    hp = HyperParams(d_e=8, d_k=8, d_h=16, layers=1, lr=5e-3, l2=1e-6,
                     eta=0.6, seed=0, batch_size=32, patience=5)

    _, full_report = train_fold(ds, fold, TrainConfig(hp=hp, max_epochs=5),
                                graphs=res.graphs)
    _, ablation_report = train_fold(
        ds, fold, TrainConfig(hp=hp, max_epochs=5, drop_similarity=True,
                              drop_prerequisite=True),
        graphs=res.graphs)

    full_auc = full_report.test_metrics["auc"]
    ablt_auc = ablation_report.test_metrics["auc"]
    elapsed = time.time() - t0
    assert full_auc >= 0.55, (full_auc, ablt_auc)
    assert full_auc > ablt_auc, (full_auc, ablt_auc)
    assert elapsed < 15 * 60
    report(6, f"synthetic training: full AUC {full_auc:.4f} >= 0.55 and "
              f"> no-graph ablation {ablt_auc:.4f} "
              f"(same seed, {elapsed / 60:.1f} min)")
