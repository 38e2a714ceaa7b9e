"""Propagation heads against a direct nested-loop oracle, plus locality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphkt.model
from graphkt import engine as E
from graphkt.data import Response
from graphkt.gnn import (GnnSpec, GraphTensors, Plan, gnn_forward_rows,
                         make_specs, plan_outward, readout_rows)
from graphkt.graphs import KcRelationGraphs
from graphkt.model import BatchCache, GrktModel, HyperParams
from graphkt.train import bce_loss_node
from tests.conftest import random_graphs
from tests import oracles
from tests.oracles import (constrain_nonneg_matrix, constrain_nonneg_vector,
                           edge_correlation, hop_support, question_kc_score)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def brute_force_head(spec, x, graphs, store, q_emb=None):
    """Direct per-node evaluation of one head, written from the layer math."""
    k = store.value("emb.k")[: graphs.n_kcs]
    out = np.array(x, dtype=float)
    for layer in range(1, len(spec.dims)):
        d_prev, d_cur = spec.dims[layer - 1], spec.dims[layer]
        nxt = np.zeros((graphs.n_kcs, d_cur))
        for i in range(graphs.n_kcs):
            fused = np.zeros(d_cur)
            for which in ("P", "S", "R"):
                nbrs = graphs.neighbors(which, i)
                if not nbrs:
                    continue
                w = store.value(f"gnn.{spec.name}.W.{which}.{layer}")
                if spec.nonneg_weights:
                    w = constrain_nonneg_matrix(w)
                w_cor = store.value(f"cor.{which}")
                agg = np.zeros(d_prev)
                for j in nbrs:
                    beta = sigmoid(k[i] @ w_cor @ k[j])
                    term = beta * (out[j] @ w)
                    if spec.use_question_scores:
                        alpha = sigmoid(q_emb @ store.value("req") @ k[j])
                        term = alpha * term
                    agg += term
                agg /= len(nbrs)
                if spec.use_feedforward:
                    o = store.value(f"gnn.{spec.name}.O.{which}.{layer}")
                    fused += np.maximum(agg, 0.0) @ o
                else:
                    fused += agg
            if d_prev == d_cur:
                fused = fused + out[i]
            nxt[i] = fused
        out = nxt
    if spec.output_activation == "relu":
        out = np.maximum(out, 0.0)
    elif spec.output_activation == "neg_relu":
        out = -np.maximum(out, 0.0)
    elif spec.output_activation == "softplus":
        out = np.logaddexp(0.0, out)
    return out


def every_row(model, head, x, cache, alpha_col=None):
    """Run `head` over all KC rows: `gnn_forward_rows` on the all-KC plan."""
    plan = model.plan(tuple(range(model.n_kcs)))
    return gnn_forward_rows(model.specs[head], E.as_node(x), plan, model.gt,
                            cache.weights[head], cache.agg, alpha_col)


def small_model(seed, layers=1, n_kcs=6):
    rng = np.random.default_rng(seed)
    hp = HyperParams(d_e=3, d_k=3, d_h=4, layers=layers, seed=seed)
    graphs = random_graphs(rng, n_kcs)
    model = GrktModel(hp, n_questions=4, n_kcs=n_kcs, graphs=graphs)
    # break the all-equal initializations
    for name in model.store.names():
        if name.startswith(("gnn.rtv.W", "w_h")):
            model.store.value(name)[...] = rng.normal(0, 0.5,
                                                      model.store.value(name).shape)
    return model


@pytest.mark.parametrize("head", ["rtv", "gain", "loss", "prg", "lrn", "fgt"])
@pytest.mark.parametrize("layers", [1, 2])
def test_full_forward_matches_brute_force(head, layers):
    model = small_model(seed=layers * 31 + len(head), layers=layers)
    spec = model.specs[head]
    rng = np.random.default_rng(99)
    x = rng.normal(size=(model.n_kcs, spec.dims[0]))
    _, cache = model.begin("eval")
    alpha_col = oracles.alpha_col(cache, 2) \
        if spec.use_question_scores else None
    got = every_row(model, head, x, cache, alpha_col).value
    q_emb = model.store.value("emb.q")[2] if spec.use_question_scores else None
    want = brute_force_head(spec, x, model.graphs, model.store, q_emb)
    assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("head", ["gain", "prg"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_restricted_outward_matches_full(head, layers):
    model = small_model(seed=layers * 7, layers=layers, n_kcs=7)
    spec = model.specs[head]
    rng = np.random.default_rng(5)
    seeds = (1, 4)
    feats = rng.normal(size=(len(seeds), spec.dims[0]))
    x_full = np.zeros((model.n_kcs, spec.dims[0]))
    x_full[list(seeds)] = feats
    _, cache = model.begin("eval")
    alpha_col = oracles.alpha_col(cache, 1) \
        if spec.use_question_scores else None
    full = every_row(model, head, x_full, cache, alpha_col).value
    plan = plan_outward(model.gt, seeds, layers)
    rows = gnn_forward_rows(spec, E.as_node(feats), plan, model.gt,
                            cache.weights[head], cache.agg,
                            alpha_col).value
    restricted = np.zeros_like(full)
    restricted[list(plan.output_rows)] = rows
    assert np.abs(restricted - full).max() < 1e-12
    # rows outside the support are exactly zero in the full pass too
    outside = sorted(set(range(model.n_kcs)) - set(plan.output_rows))
    assert np.array_equal(full[outside], np.zeros((len(outside), spec.dims[-1])))


# -- stacked graphs: every ablation's graph set -------------------------------

# graph sets with 3, 2 (P and its reverse S), 1 (R) and 0 non-empty graphs
ABLATIONS = {
    "full": ({}, 3),
    "no_sim": ({"similarity": True}, 2),
    "no_pre": ({"prerequisite": True}, 1),
    "no_graphs": ({"similarity": True, "prerequisite": True}, 0),
}


def ablated_model(ablation, layers, seed):
    rng = np.random.default_rng(seed)
    drop, n_graphs = ABLATIONS[ablation]
    hp = HyperParams(d_e=3, d_k=3, d_h=4, layers=layers, seed=seed)
    graphs = random_graphs(rng, 7, p_edges=5, r_edges=5).drop(**drop)
    model = GrktModel(hp, n_questions=4, n_kcs=7, graphs=graphs)
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.normal(0.0, 0.6, size=arr.shape)
    assert len(model.gt.kinds) == n_graphs
    return model


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
@pytest.mark.parametrize("layers", [1, 2])
def test_stacked_layers_match_brute_force_on_every_graph_set(ablation, layers):
    model = ablated_model(ablation, layers, seed=40 + layers)
    rng = np.random.default_rng(41)
    _, cache = model.begin("eval")
    q = 2
    q_emb = model.store.value("emb.q")[q]
    for head, spec in model.specs.items():
        scored = spec.use_question_scores
        x = rng.normal(size=(model.n_kcs, spec.dims[0]))
        want = brute_force_head(spec, x, model.graphs, model.store,
                                q_emb if scored else None)
        alpha_col = oracles.alpha_col(cache, q) if scored else None
        got = every_row(model, head, x, cache, alpha_col).value
        assert np.abs(got - want).max() < 1e-10, head

        if head in ("gain", "loss", "prg"):  # seeded: zero outside seeds
            seeds = (0, 4)
            x_seeded = np.zeros_like(x)
            x_seeded[list(seeds)] = x[list(seeds)]
            want = brute_force_head(spec, x_seeded, model.graphs, model.store,
                                    q_emb if scored else None)
            plan = plan_outward(model.gt, seeds, layers)
            rows = gnn_forward_rows(spec, E.as_node(x[list(seeds)]), plan,
                                    model.gt, cache.weights[head], cache.agg,
                                    alpha_col).value
            support = list(plan.output_rows)
            assert np.abs(rows - want[support]).max() < 1e-10, head
            outside = sorted(set(range(model.n_kcs)) - set(support))
            assert not want[outside].any(), head


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
def test_strengthening_leaves_rows_outside_the_hop_support_bitwise(ablation):
    layers = 2
    model = ablated_model(ablation, layers, seed=45)
    rng = np.random.default_rng(46)
    _, cache = model.begin("eval")
    H = E.as_node(rng.normal(size=(model.n_kcs, 3)))
    for kcs in ((0,), (2, 6), (3,)):
        for a in (0, 1):
            new_H = model.stage2_strengthen(H, [1], [kcs], [a], cache).value
            outside = sorted(set(range(model.n_kcs))
                             - hop_support(model.graphs, kcs, layers))
            assert np.array_equal(new_H[outside], H.value[outside])
            if ablation == "no_graphs":  # only the examined rows can move
                assert outside == sorted(set(range(model.n_kcs)) - set(kcs))


# -- stage-1 read-out: the retrieval head run transposed ------------------------


def scattered_readout(model, cache, q, kcs):
    """The read-out coefficients of (q, kcs) placed on all C rows."""
    full = np.zeros((model.n_kcs, model.hp.d_k))
    full[list(model.plan(kcs).output_rows)] = \
        oracles.readout(cache, q, kcs).value
    return full


@pytest.mark.parametrize("n_examined", [1, 2, 3])
@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
@pytest.mark.parametrize("layers", [1, 2])
def test_readout_is_the_retrieval_oracle_read_out_exactly(ablation, layers,
                                                          n_examined):
    model = ablated_model(ablation, layers, seed=50 + layers + 3 * n_examined)
    rng = np.random.default_rng(51)
    w_h = constrain_nonneg_vector(model.store.value("w_h")).ravel()
    _, cache = model.begin("eval")
    for q in range(model.n_questions):
        kcs = tuple(sorted(rng.choice(model.n_kcs, size=n_examined,
                                      replace=False).tolist()))
        H = rng.normal(size=(model.n_kcs, 3))
        retrieved = brute_force_head(model.specs["rtv"], H, model.graphs,
                                     model.store, model.store.value("emb.q")[q])
        want = retrieved[list(kcs)].mean(axis=0) @ w_h
        _, mastery = model.stage1_predict(E.as_node(H), [q], [kcs], cache)
        assert abs(mastery.value.item() - want) <= 1e-12 * abs(want), q

        coef = scattered_readout(model, cache, q, kcs)
        assert (coef >= 0).all()
        outside = sorted(set(range(model.n_kcs))
                         - hop_support(model.graphs, kcs, layers))
        assert not coef[outside].any()
        per_kc = (coef * H).sum(axis=1)  # each KC's contribution <a_c, H_c>
        assert not per_kc[outside].any()
        assert abs(per_kc.sum() - mastery.value.item()) \
            <= 1e-12 * abs(mastery.value.item())


def read_out(model, cache, plans, seeds, questions, agg_t=None,
             spec=None):
    """`readout_rows` over a batch of plans: the seed rows of each plan
    padded into one block, the requirement rows of `questions[i]` stacked
    (none when `questions` is None); returns the (K, width, d) coefficient
    node. `spec` defaults to the retrieval head."""
    width = max(len(p.row_sets[0]) for p in plans)
    padded = np.zeros((len(plans), width, model.hp.d_k))
    for i, seed in enumerate(seeds):
        padded[i, :len(seed)] = seed
    alpha = None if questions is None else E.concat(
        [E.transpose(oracles.alpha_col(cache, q)) for q in questions], axis=0)
    return readout_rows(spec or model.specs["rtv"], E.as_node(padded), plans,
                        cache.rtv_t, cache.agg, agg_t, alpha)


def test_readout_weighs_the_forward_output_rows_on_any_plan():
    # the retrieval head, and a linear head on its weights without the
    # requirement scores (padded rows are then zeroed by the mask alone)
    for scored in (True, False):
        check_readout_weighs_the_forward_output_rows(scored)


def check_readout_weighs_the_forward_output_rows(scored):
    model = ablated_model("full", 2, seed=55)
    rng = np.random.default_rng(56)
    _, cache = model.begin("eval")
    spec = model.specs["rtv"] if scored else GnnSpec(
        "rtv", (3, 3, 3), use_feedforward=False, use_question_scores=False,
        nonneg_weights=True, output_activation="none")
    questions = [3] if scored else None
    kc_sets = ((1, 4), (0, 6), (3,))
    plans = [model.plan(kcs) for kcs in kc_sets]
    seeds = [rng.normal(size=(len(kcs), 3)) for kcs in kc_sets]
    x = rng.normal(size=(model.n_kcs, 3))
    out = gnn_forward_rows(spec, E.as_node(x), model.plan(tuple(range(7))),
                           model.gt, cache.weights["rtv"], cache.agg,
                           oracles.alpha_col(cache, 3) if scored else None).value
    # one batch of the three plans, and each plan alone
    batch = read_out(model, cache, plans, seeds, questions and questions * 3,
                     E.transpose(cache.agg), spec).value
    assert len({len(p.output_rows) for p in plans}) > 1  # padded rows
    for i, (kcs, plan, seed) in enumerate(zip(kc_sets, plans, seeds)):
        n_out = len(plan.output_rows)
        alone = read_out(model, cache, [plan], [seed], questions,
                         E.transpose(cache.agg), spec).value[0]
        for coef in (batch[i, :n_out], alone):
            weighed = seed * out[list(kcs)]
            assert abs((coef * x[list(plan.output_rows)]).sum()
                       - weighed.sum()) < 1e-12 * np.abs(weighed).sum()
        assert not batch[i, n_out:].any()  # padded rows are exactly zero


def test_readout_refuses_a_nonlinear_head_and_a_wrong_seed():
    model = small_model(seed=57, layers=2)
    _, cache = model.begin("eval")
    plans = [model.plan((2,))]
    seed = E.as_node(np.ones((1, 1, 3)))
    alpha = E.transpose(oracles.alpha_col(cache, 0))
    for head in ("gain", "loss", "prg", "lrn", "fgt"):
        with pytest.raises(ValueError, match="not linear"):
            readout_rows(model.specs[head], seed, plans, cache.rtv_t,
                         cache.agg, None, alpha)
    with pytest.raises(ValueError, match="requires"):
        readout_rows(model.specs["rtv"], seed, plans, cache.rtv_t, cache.agg,
                     None)
    for wrong in ((1, 2, 3), (2, 1, 3), (1, 3)):
        with pytest.raises(ValueError, match="seed"):
            readout_rows(model.specs["rtv"], E.as_node(np.ones(wrong)), plans,
                         cache.rtv_t, cache.agg, None, alpha)


# -- sign and locality properties --------------------------------------------


def test_output_sign_constraints():
    model = small_model(seed=3, layers=2)
    rng = np.random.default_rng(0)
    _, cache = model.begin("eval")
    x_mem = rng.normal(size=(model.n_kcs, 3))
    gain = every_row(model, "gain", x_mem, cache, oracles.alpha_col(cache, 0))
    assert (gain.value >= 0).all()
    loss = every_row(model, "loss", x_mem, cache, oracles.alpha_col(cache, 0))
    assert (loss.value <= 0).all()
    for head in ("lrn", "fgt"):
        k_emb = model.store.value("emb.k")[: model.n_kcs]
        out = every_row(model, head, k_emb, cache)
        assert (out.value > 0).all()


def test_zero_input_gives_zero_output():
    model = small_model(seed=4, layers=2)
    _, cache = model.begin("eval")
    zeros = np.zeros((model.n_kcs, 3))
    for head in ("gain", "prg"):
        alpha_col = oracles.alpha_col(cache, 0) \
            if model.specs[head].use_question_scores else None
        out = every_row(model, head, zeros, cache, alpha_col)
        assert np.array_equal(out.value, zeros)


def path_graph_model(layers):
    hp = HyperParams(d_e=3, d_k=3, d_h=4, layers=layers, seed=0)
    graphs = KcRelationGraphs(3, {}, {(0, 1): 0.9, (1, 2): 0.9})
    return GrktModel(hp, n_questions=2, n_kcs=3, graphs=graphs)


@pytest.mark.parametrize("layers,expected", [(1, {0, 1}), (2, {0, 1, 2})])
def test_path_graph_locality(layers, expected):
    model = path_graph_model(layers)
    rng = np.random.default_rng(1)
    x = np.zeros((3, 3))
    x[0] = rng.normal(size=3)
    _, cache = model.begin("eval")
    out = every_row(model, "prg", x, cache).value
    nonzero = {i for i in range(3) if np.abs(out[i]).max() > 0}
    assert nonzero <= expected
    # the brute-force oracle agrees on which rows can be reached
    want = brute_force_head(model.specs["prg"], x, model.graphs, model.store)
    assert np.abs(out - want).max() < 1e-12
    assert {i for i in range(3) if np.abs(want[i]).max() > 0} == nonzero


def test_isolated_node_passes_residual():
    hp = HyperParams(d_e=3, d_k=3, d_h=4, layers=2, seed=0)
    graphs = KcRelationGraphs(4, {(0, 1): 0.9}, {})
    model = GrktModel(hp, n_questions=2, n_kcs=4, graphs=graphs)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    _, cache = model.begin("eval")
    out = every_row(model, "rtv", x, cache, oracles.alpha_col(cache, 0))
    # nodes 2 and 3 have no neighbors in any graph: pure residual identity
    assert np.array_equal(out.value[2], x[2])
    assert np.array_equal(out.value[3], x[3])


def test_question_context_contract():
    model = small_model(seed=5)
    _, cache = model.begin("eval")
    x = np.zeros((model.n_kcs, 3))
    with pytest.raises(ValueError, match="requires"):
        every_row(model, "rtv", x, cache, None)
    with pytest.raises(ValueError, match="rejects"):
        every_row(model, "prg", x, cache, oracles.alpha_col(cache, 0))


def test_retrieval_monotonicity():
    """Raising any coordinate of any memory row never lowers rtv output."""
    model = small_model(seed=6, layers=2)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(model.n_kcs, 3))
    _, cache = model.begin("eval")

    def run(mem):
        return every_row(model, "rtv", mem, cache,
                         oracles.alpha_col(cache, 1)).value

    base = run(x)
    for trial in range(30):
        i = int(rng.integers(model.n_kcs))
        d = int(rng.integers(3))
        bumped = x.copy()
        bumped[i, d] += float(rng.uniform(0.1, 2.0))
        assert (run(bumped) - base).min() > -1e-12


# -- pairwise learned scores -----------------------------------------------------


def test_edge_correlation_zero_embeddings():
    model = small_model(seed=11)
    model.store.value("emb.k")[...] = 0.0
    assert edge_correlation(model.store, 0, 1, "P") == 0.5


def test_edge_correlation_closed_form():
    model = small_model(seed=12)
    model.store.value("emb.k")[...] = 0.0
    model.store.value("emb.k")[0, 0] = 1.0
    model.store.value("emb.k")[1, 0] = 1.0
    model.store.value("cor.R")[...] = np.eye(3)
    got = edge_correlation(model.store, 0, 1, "R")
    assert abs(got - 1.0 / (1.0 + np.exp(-1.0))) < 1e-12
    assert abs(got - 0.7311) < 5e-5


def test_edge_correlation_in_open_interval():
    model = small_model(seed=13)
    rng = np.random.default_rng(0)
    model.store.value("emb.k")[...] = rng.normal(0, 2, size=(7, 3))
    for i in range(6):
        s = edge_correlation(model.store, i, i + 1, "S")
        assert 0.0 < s < 1.0


def test_question_kc_score_closed_form():
    model = small_model(seed=14)
    model.store.value("emb.q")[...] = 0.0
    model.store.value("emb.k")[...] = 0.0
    assert question_kc_score(model.store, 1, 2) == 0.5
    model.store.value("emb.q")[1, 0] = 2.0
    model.store.value("emb.k")[2, 0] = 2.0
    model.store.value("req")[...] = np.eye(3)
    got = question_kc_score(model.store, 1, 2)
    assert abs(got - 1.0 / (1.0 + np.exp(-4.0))) < 1e-12
    assert abs(got - 0.9820) < 5e-5


def test_question_kc_score_local_to_its_rows():
    model = small_model(seed=15)
    before = question_kc_score(model.store, 2, 3)
    # permuting unrelated KC rows leaves the score unchanged
    k = model.store.value("emb.k")
    k[[0, 1]] = k[[1, 0]]
    assert question_kc_score(model.store, 2, 3) == before


def test_pairwise_scores_match_cached_matrices():
    model = small_model(seed=16)
    _, cache = model.begin("eval")
    beta = E.sigmoid(E.matmul(E.matmul(cache.k_active,
                                       model.store.bind()["cor.P"]),
                              E.transpose(cache.k_active))).value
    for i in range(model.n_kcs):
        for j in range(model.n_kcs):
            assert abs(edge_correlation(model.store, i, j, "P")
                       - beta[i, j]) < 1e-12
    alpha = oracles.alpha_col(cache, 1).value.ravel()
    for c in range(model.n_kcs):
        assert abs(question_kc_score(model.store, 1, c) - alpha[c]) < 1e-12


# -- hop support ---------------------------------------------------------------


def plan_support(graphs, seeds, hops):
    """The hop support as the plan builds it (a sorted tuple)."""
    return plan_outward(GraphTensors(graphs), seeds, hops).output_rows


def test_hop_support_zero_is_seeds():
    g = KcRelationGraphs(5, {(0, 1): 0.9}, {})
    assert plan_support(g, {0, 2}, 0) == (0, 2)
    assert hop_support(g, {0, 2}, 0) == {0, 2}


def test_hop_support_path():
    g = KcRelationGraphs(3, {}, {(0, 1): 0.9, (1, 2): 0.9})
    assert plan_support(g, {0}, 1) == (0, 1)
    assert plan_support(g, {0}, 2) == (0, 1, 2)
    assert hop_support(g, {0}, 1) == {0, 1}
    assert hop_support(g, {0}, 2) == {0, 1, 2}


@given(st.integers(0, 10_000), st.integers(0, 3), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_hop_support_matches_bfs(seed, hops, n_seeds):
    rng = np.random.default_rng(seed)
    g = random_graphs(rng, 8, p_edges=int(rng.integers(0, 12)),
                      r_edges=int(rng.integers(0, 10)))
    seeds = {int(x) for x in rng.choice(8, size=n_seeds, replace=False)}
    want = tuple(sorted(hop_support(g, seeds, hops)))
    assert plan_support(g, seeds, hops) == want
    # every layer of the plan, not only the widest
    row_sets = plan_outward(GraphTensors(g), seeds, hops).row_sets
    for hop in range(hops + 1):
        assert row_sets[hop] == tuple(sorted(hop_support(g, seeds, hop)))


# -- whole-adjacency layers ------------------------------------------------------


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_plan_skips_the_gather_exactly_when_the_layer_output_is_all_kcs(
        seed, layers):
    rng = np.random.default_rng(seed)
    gt = GraphTensors(random_graphs(rng, 6, p_edges=4, r_edges=4))
    kcs = {int(x) for x in rng.choice(6, size=int(rng.integers(1, 7)),
                                      replace=False)}
    every_kc = plan_outward(gt, range(6), layers)
    for plan in (plan_outward(gt, kcs, layers), every_kc):
        batch = plan.batch
        for layer in range(1, layers + 1):
            rows_in, rows_out = plan.row_sets[layer - 1], plan.row_sets[layer]
            assert batch.whole[layer] == (len(rows_out) == 6)
            if not batch.whole[layer]:
                lay = batch.layers[layer - 1]
                assert lay.cur.ravel().tolist() == list(rows_out)
                assert lay.prev.ravel().tolist() == list(rows_in)
    assert every_kc.batch.whole[1:] == (True,) * layers
    assert not Plan([(0, 1), (0, 1)], 3).batch.whole[1]
    assert Plan([(0,), (0, 1, 2)], 3).batch.whole[1]


def test_plan_embeds_each_layer_in_the_next():
    growing = Plan([(1, 4), (1, 4), (0, 1, 3, 4)], 5)
    assert growing.align[0] is None  # equal sets: the residual is the input
    assert growing.align[1].tolist() == [1, 3]


def test_plan_refuses_row_sets_that_shrink_or_are_not_nested():
    for row_sets in ([(0, 1, 2), (0, 1)],     # shrinks
                     [(0, 1), (1, 2)],        # not nested
                     [(2,), (0, 1, 3)],       # not nested, grows
                     [(1, 0), (0, 1)]):       # not sorted
        with pytest.raises(ValueError, match="row sets"):
            Plan(row_sets, 3)


def dense_model(layers=2, n_kcs=5):
    """Every KC pair related in every graph: one hop reaches every KC."""
    rng = np.random.default_rng(17)
    hp = HyperParams(d_e=3, d_k=3, d_h=4, layers=layers, seed=17)
    pairs = [(i, j) for i in range(n_kcs) for j in range(i + 1, n_kcs)]
    graphs = KcRelationGraphs(n_kcs, {p: 0.9 for p in pairs},
                              {p: 0.8 for p in pairs})
    model = GrktModel(hp, n_questions=3, n_kcs=n_kcs, graphs=graphs)
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.normal(0.0, 0.6, size=arr.shape)
    return model


def embedded_layers(plan, n_kcs):
    """Layers reading the whole adjacency from fewer input rows than KCs.

    Layer l, forward or read out, reads rows l-1 and writes rows l.
    """
    return [layer for layer in range(1, len(plan.row_sets))
            if plan.batch.whole[layer]
            and len(plan.row_sets[layer - 1]) < n_kcs]


def head_with_grads(model, head, plan, x0, mix):
    """One head over `plan`, its value and every parameter gradient of
    sum(mix * output)."""
    spec = model.specs[head]
    model.store.zero_grad()
    bound = model.store.bind()
    cache = BatchCache(model, bound, "train")
    alpha_col = oracles.alpha_col(cache, 1) \
        if spec.use_question_scores else None
    out = gnn_forward_rows(spec, E.as_node(x0), plan, model.gt,
                           cache.weights[head], cache.agg, alpha_col)
    model.store.backward(E.sum_all(E.mul(out, mix)))
    return out.value, {name: model.store[name].grad.copy()
                       for name in model.store.names()}


def readout_with_grads(model, plan, seed, x0):
    """The retrieval read-out over `plan`, its value and every parameter
    gradient of sum(coefficients * x0)."""
    model.store.zero_grad()
    bound = model.store.bind()
    cache = BatchCache(model, bound, "train")
    coef = read_out(model, cache, [plan], [seed], [1], E.transpose(cache.agg))
    model.store.backward(E.sum_all(E.mul(coef, x0)))
    return coef.value[0], {name: model.store[name].grad.copy()
                           for name in model.store.names()}


# every layer of the all-KC plan: both row sets hold every KC
@pytest.mark.parametrize("head", ["rtv", "gain", "loss", "prg", "lrn", "fgt"])
def test_whole_adjacency_layers_match_the_gathered_block_bitwise(head):
    model = dense_model()
    plan = model.plan(tuple(range(model.n_kcs)))
    gathering = Plan(plan.row_sets, model.n_kcs + 1)  # never all KCs
    assert any(plan.batch.whole) and not any(gathering.batch.whole)
    assert embedded_layers(plan, model.n_kcs) == []
    spec = model.specs[head]
    rng = np.random.default_rng(18)
    x0 = rng.normal(size=(len(plan.row_sets[0]), spec.dims[0]))
    mix = rng.normal(size=(len(plan.output_rows), spec.dims[-1]))

    out_skip, grads_skip = head_with_grads(model, head, plan, x0, mix)
    out_gather, grads_gather = head_with_grads(model, head, gathering, x0, mix)
    assert np.array_equal(out_skip, out_gather)
    assert any(g.any() for g in grads_skip.values())
    for name in grads_skip:
        assert np.array_equal(grads_skip[name], grads_gather[name]), name


def test_whole_adjacency_readout_matches_the_gathered_block_bitwise():
    model = dense_model()
    plan = model.plan(tuple(range(5)))  # both row sets of every layer
    gathering = Plan(plan.row_sets, model.n_kcs + 1)  # never all KCs
    assert any(plan.batch.whole) and not any(gathering.batch.whole)
    assert embedded_layers(plan, model.n_kcs) == []
    rng = np.random.default_rng(19)
    seed = rng.normal(size=(5, 3))
    x0 = rng.normal(size=(model.n_kcs, 3))

    coef_skip, grads_skip = readout_with_grads(model, plan, seed, x0)
    coef_gather, grads_gather = readout_with_grads(model, gathering, seed, x0)
    assert np.array_equal(coef_skip, coef_gather)
    assert grads_skip["cor.P"].any() and grads_skip["gnn.rtv.W.R.1"].any()
    for name in grads_skip:
        assert np.array_equal(grads_skip[name], grads_gather[name]), name


def assert_close(got, want, rel):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("head,kcs", [("gain", (0, 3)), ("loss", (2,)),
                                      ("prg", (4,)), ("rtv", (1, 3))])
def test_embedded_whole_layers_match_the_gathered_block_closely(head, kcs):
    # a whole layer fed from fewer rows contracts over all C rows, zeros
    # included, so BLAS may round differently from the gathered block
    model = dense_model()
    rng = np.random.default_rng(23)
    plan = model.plan(kcs)
    assert embedded_layers(plan, model.n_kcs) == [1]
    if head == "rtv":  # the read-out
        seed = rng.normal(size=(len(kcs), 3))
        x0 = rng.normal(size=(model.n_kcs, 3))

        def run(p):
            return readout_with_grads(model, p, seed, x0)
    else:
        x0 = rng.normal(size=(len(kcs), 3))
        mix = rng.normal(size=(model.n_kcs, 3))

        def run(p):
            return head_with_grads(model, head, p, x0, mix)

    value, grads = run(plan)
    value_gather, grads_gather = run(Plan(plan.row_sets, model.n_kcs + 1))
    assert_close(value, value_gather, 1e-13)
    assert grads[f"gnn.{head}.W.R.1"].any() and grads["cor.S"].any()
    for name in grads:
        assert_close(grads[name], grads_gather[name], 1e-13)


def star_model(layers):
    """KC 0 is related to every KC, and 1 to 2: seeds next to 0 reach every
    KC in one hop, others in two."""
    rng = np.random.default_rng(60 + layers)
    hp = HyperParams(d_e=4, d_k=3, d_h=4, layers=layers, seed=60)
    graphs = KcRelationGraphs(6, {(0, j): 0.9 for j in range(1, 6)},
                              {(1, 2): 0.8})
    model = GrktModel(hp, n_questions=3, n_kcs=6, graphs=graphs)
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.normal(0.0, 0.6, size=arr.shape)
    return model


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_embedded_whole_layers_match_the_straight_line_oracle(layers):
    model = star_model(layers)
    rng = np.random.default_rng(62)
    _, cache = model.begin("eval")
    q = 1
    q_emb = model.store.value("emb.q")[q]
    embedded = 0
    for head, spec in model.specs.items():
        scored = spec.use_question_scores
        alpha_col = oracles.alpha_col(cache, q) if scored else None
        if head in ("lrn", "fgt"):  # every KC, every layer whole
            x = rng.normal(size=(model.n_kcs, spec.dims[0]))
            want = brute_force_head(spec, x, model.graphs, model.store)
            got = every_row(model, head, x, cache).value
            assert np.abs(got - want).max() < 1e-10, head
        for kcs in ((0,), (4,), (1, 2)):  # lrn/fgt: widths change at layer 1
            support = sorted(hop_support(model.graphs, kcs, layers))
            outside = sorted(set(range(model.n_kcs)) - set(support))
            if head == "rtv":  # read out, as stage 1 does
                x = rng.normal(size=(model.n_kcs, 3))
                retrieved = brute_force_head(spec, x, model.graphs,
                                             model.store, q_emb)
                w_h = constrain_nonneg_vector(model.store.value("w_h"))
                want = retrieved[list(kcs)].mean(axis=0) @ w_h.ravel()
                _, mastery = model.stage1_predict(E.as_node(x), [q], [kcs],
                                                  cache)
                assert abs(mastery.value.item() - want) <= 1e-10 * abs(want)
                coef = scattered_readout(model, cache, q, kcs)
                assert not coef[outside].any()
                embedded += len(embedded_layers(model.plan(kcs), model.n_kcs))
                continue
            x = np.zeros((model.n_kcs, spec.dims[0]))
            x[list(kcs)] = rng.normal(size=(len(kcs), spec.dims[0]))
            want = brute_force_head(spec, x, model.graphs, model.store,
                                    q_emb if scored else None)
            plan = model.plan(kcs)
            rows = gnn_forward_rows(spec, E.as_node(x[list(kcs)]), plan,
                                    model.gt, cache.weights[head], cache.agg,
                                    alpha_col).value
            assert list(plan.output_rows) == support
            assert np.abs(rows - want[support]).max() < 1e-10, head
            if spec.output_activation != "softplus":  # softplus(0) > 0
                assert not want[outside].any(), head
            embedded += len(embedded_layers(plan, model.n_kcs))
    assert embedded > 0


def test_whole_transposed_adjacency_is_built_once_and_only_for_a_whole_layer():
    sparse = path_graph_model(layers=1)
    _, cache = sparse.begin("eval")
    oracles.readout(cache, 0, (0,))
    assert not any(sparse.plan((0,)).batch.whole) and cache.agg_t is None

    model = dense_model()
    rng = np.random.default_rng(20)
    H = rng.normal(size=(model.n_kcs, 3))
    _, cache = model.begin("eval")
    for kcs in ((1, 3), (0,)):  # each plan's first layer is whole
        assert model.plan(kcs).batch.whole[1]
        _, mastery = model.stage1_predict(E.as_node(H), [1], [kcs], cache)
        if kcs == (1, 3):
            built = cache.agg_t
        assert cache.agg_t is built is not None
        retrieved = brute_force_head(model.specs["rtv"], H, model.graphs,
                                     model.store, model.store.value("emb.q")[1])
        want = retrieved[list(kcs)].mean(axis=0) \
            @ constrain_nonneg_vector(model.store.value("w_h")).ravel()
        assert abs(mastery.value.item() - want) <= 1e-12 * abs(want)


# -- batched question-side tables -----------------------------------------------


def kc_set_keys(model, rng, kc_sets):
    """(question, KC set) keys over `kc_sets`, each with a random question,
    plus every question on the first KC set."""
    keys = [(int(rng.integers(model.n_questions)), kcs) for kcs in kc_sets]
    keys += [(q, kc_sets[0]) for q in range(model.n_questions)]
    return list(dict.fromkeys(keys))


def read_out_batches(model, keys):
    """The plans of `keys` as `prepare` reads them out: one batch per
    power-of-two class of output row counts."""
    batches = {}
    for _, kcs in keys:
        plan = model.plan(kcs)
        batches.setdefault(len(plan.output_rows).bit_length(), []).append(plan)
    return list(batches.values())


def batch_layers(plans, n_layers):
    """Per read-out layer of a batch: 'whole' when every plan's output holds
    every KC, else 'gathered'."""
    return ["whole" if all(p.batch.whole[k + 1] for p in plans) else "gathered"
            for k in range(n_layers)]


def padded(plans):
    """Whether some layer's row sets differ in size within the batch."""
    return any(len({len(p.row_sets[k]) for p in plans}) > 1
               for k in range(len(plans[0].row_sets)))


def check_prepared_tables(model, keys, monkeypatch):
    """One `prepare` reads every key out in one call per size class; each
    key's rows equal its batch-of-one build and the brute-force retrieval
    oracle."""
    calls = []
    monkeypatch.setattr(graphkt.model, "readout_rows", lambda *args: (
        calls.append(len(args[2])) or readout_rows(*args)))
    rng = np.random.default_rng(80)
    responses = [Response(q, kcs, 1, t) for t, (q, kcs) in enumerate(keys)]
    _, batched = model.begin("eval")
    batched.prepare(responses)
    batches = read_out_batches(model, keys)
    assert sorted(calls) == sorted(map(len, batches))
    n_prepared = len(calls)
    _, alone = model.begin("eval")  # no prepare: a batch of one per key
    w_h = constrain_nonneg_vector(model.store.value("w_h")).ravel()
    H = rng.normal(size=(model.n_kcs, model.hp.d_k))
    for q, kcs in keys:
        # a product over K rows may round apart from one over a single row
        for read in (lambda c: oracles.readout(c, q, kcs),
                     lambda c: oracles.alpha_col(c, q),
                     lambda c: oracles.difficulty(c, q, kcs),
                     *(lambda c, h=h, p=p: oracles.question_term(c, h, p, q,
                                                                  kcs)
                       for h, p in (("gain", 0), ("loss", 0), ("dcs", 1),
                                    ("prg", 0)))):
            got, want = read(batched).value, read(alone).value
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        retrieved = brute_force_head(model.specs["rtv"], H, model.graphs,
                                     model.store, model.store.value("emb.q")[q])
        want = retrieved[list(kcs)].mean(axis=0) @ w_h
        _, mastery = model.stage1_predict(E.as_node(H), [q], [kcs], batched)
        assert abs(mastery.value.item() - want) <= 1e-12 * abs(want)
        coef = scattered_readout(model, batched, q, kcs)
        outside = sorted(set(range(model.n_kcs))
                         - hop_support(model.graphs, kcs, model.hp.layers))
        assert (coef >= 0).all() and not coef[outside].any()
    # the prepared cache read every key from its batches; the other built
    # one batch of one per key
    assert calls[n_prepared:] == [1] * len(keys)


@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
@pytest.mark.parametrize("layers", [1, 2])
def test_prepared_tables_match_batches_of_one_and_the_oracle(
        ablation, layers, monkeypatch):
    model = ablated_model(ablation, layers, seed=70 + layers)
    rng = np.random.default_rng(71)
    kc_sets = [(0,), (2, 6), (1, 3, 5), (4,), (0, 1, 2), (5, 6)]
    keys = kc_set_keys(model, rng, kc_sets)
    assert any(padded(plans) for plans in read_out_batches(model, keys))
    check_prepared_tables(model, keys, monkeypatch)


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_prepared_tables_mix_whole_and_gathered_layers(layers, monkeypatch):
    # on the star, (0,) reaches every KC in one hop and (1,), (4,) and
    # (1, 2) in two: the batch's first layer gathers padded blocks, later
    # ones take the whole adjacency with each key's rows embedded (at
    # L = 1, (0,) is a batch of its own with one whole layer)
    model = star_model(layers)
    keys = kc_set_keys(model, np.random.default_rng(72),
                       [(4,), (0,), (1, 2), (1,), (3, 5)])
    batches = read_out_batches(model, keys)
    assert any(padded(plans) for plans in batches)
    kinds = [batch_layers(plans, layers) for plans in batches]
    if layers > 1:  # every key's output holds every KC: one batch
        assert kinds == [["gathered"] + ["whole"] * (layers - 1)]
    else:  # (0,) alone in the all-KC size class
        assert sorted(kinds) == [["gathered"], ["whole"]]
    check_prepared_tables(model, keys, monkeypatch)


def test_gradient_check_through_one_batched_build_with_unequal_supports(
        monkeypatch):
    model = ablated_model("full", 2, seed=73)
    keys = [(1, (0,)), (2, (2, 6)), (0, (1, 3, 5)), (3, (4,))]
    batches = read_out_batches(model, keys)
    assert any(padded(plans) for plans in batches)
    calls = []
    monkeypatch.setattr(graphkt.model, "readout_rows", lambda *args: (
        calls.append(len(args[2])) or readout_rows(*args)))
    responses = [Response(q, kcs, t % 2, 60 * t)
                 for t, (q, kcs) in enumerate(keys)]

    def build_loss(bound):
        cache = BatchCache(model, bound, "train")
        cache.prepare(responses)
        H = E.add(cache.h0, 0.3)
        preds = [(model.stage1_predict(H, [r.question], [r.kcs], cache)[0],
                  r.correct) for r in responses]
        return bce_loss_node(preds)

    rep = E.grad_check(model.store, build_loss, np.random.default_rng(74),
                       n_coords=200)
    assert rep.passed, rep.summary()
    # every loss read its keys out in one batch per size class, and none
    # in a batch of one
    per_loss = calls[:len(batches)]
    assert sorted(per_loss) == sorted(map(len, batches))
    assert calls == per_loss * (len(calls) // len(batches))
    assert any(name.startswith("gnn.rtv.") for name in rep.group_errors)
    # every question-side parameter reaches the loss through the batch
    for prefix in ("gnn.rtv.", "cor.", "req", "emb.q", "emb.k", "w_h",
                   "mlp.diff."):
        assert any(model.store[name].grad.any() for name in model.store.names()
                   if name.startswith(prefix)), prefix


# -- spec construction -----------------------------------------------------------


def test_make_specs_shapes():
    specs = make_specs(d_e=8, d_k=4, layers=2)
    assert specs["rtv"].dims == (4, 4, 4)
    assert not specs["rtv"].use_feedforward
    assert specs["rtv"].nonneg_weights
    assert specs["lrn"].dims == (8, 4, 4)
    assert specs["fgt"].output_activation == "softplus"
    assert specs["gain"].use_question_scores
    assert not specs["prg"].use_question_scores


def test_spec_validation():
    with pytest.raises(ValueError):
        GnnSpec("x", (4, 4), True, False, True, "relu")
    with pytest.raises(ValueError):
        GnnSpec("x", (4, 4), True, False, False, "tanh")
    with pytest.raises(ValueError):
        GnnSpec("x", (4,), True, False, False, "relu")
