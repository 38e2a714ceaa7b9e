"""Three-stage model semantics: signs, locality, kernels, replay."""

import json
import math

import numpy as np
import pytest

import graphkt.gnn
import graphkt.model
from graphkt import engine as E
from graphkt.data import Response, ResponseSequence
from graphkt.graphs import KcRelationGraphs
from graphkt.gnn import PlanBatch, gnn_forward_rows, readout_rows
from graphkt.metrics import mean_consistency
from graphkt.model import (DT_CAP_MINUTES, BatchCache, GrktModel, HyperParams,
                           Step, StepArrays)
from graphkt.train import TrainConfig, bce_loss_node, evaluate
from tests.conftest import make_dataset, random_graphs, random_sequence
from tests import oracles
from tests.oracles import (constrain_nonneg_vector, hop_support, predict_next,
                           trace_alone, trace_ratios, trace_rows)
from tests.oracles import mastery as mastery_oracle


def randomize(model, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.normal(0.0, scale, size=arr.shape)
    return model


# -- mastery projection --------------------------------------------------------


def traced_mastery(model, H):
    """Per-KC mastery of memory H, projected as `StepArrays` projects it."""
    with E.no_grad():
        _, cache = model.begin("eval")
        memory = E.as_node(H)
        step = Step([Response(0, (0,), 1, 0)], [0], E.as_node([0.5]),
                    E.as_node([0.0]), memory, memory)
        return StepArrays(model, step, cache).pre[0]


def test_mastery_zero_memory(desk_model):
    H = np.zeros((6, 4))
    assert traced_mastery(desk_model, H)[2] == 0.0
    assert mastery_oracle(desk_model.store, H, 2) == 0.0


def test_mastery_uniform_weights(desk_model):
    # raw projection weights start at zero: uniform softmax = 0.25 each
    H = np.zeros((6, 4))
    H[1] = [1.0, 2.0, 3.0, 4.0]
    assert abs(traced_mastery(desk_model, H)[1] - 2.5) < 1e-12
    assert abs(mastery_oracle(desk_model.store, H, 1) - 2.5) < 1e-12


def test_mastery_strictly_monotone(desk_model):
    rng = np.random.default_rng(0)
    desk_model.store.value("w_h")[...] = rng.normal(size=(1, 4))
    H = rng.normal(size=(6, 4))
    base = traced_mastery(desk_model, H)[3]
    assert abs(base - mastery_oracle(desk_model.store, H, 3)) < 1e-12
    for d in range(4):
        bumped = H.copy()
        bumped[3, d] += 1.0
        assert traced_mastery(desk_model, bumped)[3] > base


# -- stage 1 ---------------------------------------------------------------------


def test_stage1_equal_mastery_and_difficulty_gives_half(desk_model):
    # difficulty MLP initialized with zero biases and memory at zero after
    # zeroing H0: mastery = 0 and d_q = relu(e W1) W2; force both to zero
    model = desk_model
    model.store.value("H0")[...] = 0.0
    for name in ("mlp.diff.W1", "mlp.diff.W2"):
        model.store.value(name)[...] = 0.0
    _, cache = model.begin("eval")
    a_hat, mastery = model.stage1_predict(cache.h0, [0], [(0,)], cache)
    assert mastery.value.item() == 0.0
    assert a_hat.value.item() == 0.5


def test_stage1_isolated_kc_uses_own_memory():
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=2, seed=1)
    graphs = KcRelationGraphs(5, {(0, 1): 0.8}, {})  # KC 4 isolated
    model = randomize(GrktModel(hp, 3, 5, graphs), scale=0.4, seed=3)
    _, cache = model.begin("eval")
    H = cache.h0
    a_hat, _ = model.stage1_predict(H, [1], [(4,)], cache)
    # the read-out weighs KC 4's own memory by softmax(w_h) and nothing else
    coef = np.zeros((5, 4))
    coef[list(model.plan((4,)).output_rows)] = \
        oracles.readout(cache, 1, (4,)).value
    w = constrain_nonneg_vector(model.store.value("w_h")).ravel()
    assert np.array_equal(coef[4], cache.w_h_row.value.ravel())
    assert np.abs(coef[4] - w).max() < 1e-15
    assert not coef[:4].any()
    d_q = oracles.difficulty(cache, 1, (4,)).value.item()
    expect = 1.0 / (1.0 + math.exp(-(H.value[4] @ w - d_q)))
    assert abs(a_hat.value.item() - expect) < 1e-12


def test_stage1_monotone_in_examined_memory(desk_model):
    model = randomize(desk_model, scale=0.5, seed=5)
    _, cache = model.begin("eval")
    H = cache.h0
    base, _ = model.stage1_predict(H, [1], [(1,)], cache)
    rng = np.random.default_rng(0)
    for _ in range(10):
        bump = np.zeros((6, 4))
        bump[1, int(rng.integers(4))] = float(rng.uniform(0.1, 1.0))
        up, _ = model.stage1_predict(E.add(H, bump), [1], [(1,)], cache)
        assert up.value.item() >= base.value.item() - 1e-14


def forward_mastery(model, cache, H, q, kcs):
    """Stage-1 mastery from the retrieval head run forward over every KC
    (the oracle)."""
    plan = model.plan(tuple(range(model.n_kcs)))
    rows = gnn_forward_rows(model.specs["rtv"], E.as_node(H), plan, model.gt,
                            cache.weights["rtv"], cache.agg,
                            oracles.alpha_col(cache, q)).value
    return rows[list(kcs)].mean(axis=0) @ cache.w_h_col.value.ravel()


def test_evaluate_reads_out_each_distinct_question_once(monkeypatch):
    rng = np.random.default_rng(62)
    rows = [(s, r.question, r.kcs, r.correct, r.timestamp)
            for s in range(6)
            for r in random_sequence(rng, 5, 7, 10, max_kcs=3).responses]
    ds = make_dataset(rows, n_questions=5, n_kcs=7)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=2, seed=62)
    model = randomize(GrktModel(hp, 5, 7, random_graphs(rng, 7)), 0.6,
                      seed=63)
    built = []
    monkeypatch.setattr(graphkt.model, "readout_rows",
                        lambda *args: built.append(args) or readout_rows(*args))
    evaluate(model, ds, range(6), TrainConfig(hp=hp))
    keys = {(r.question, r.kcs) for seq in ds.sequences for r in seq.real()}
    assert len(keys) < len(rows)  # questions repeat, and each is re-asked
    # a call reads out a batch of keys (argument 2 holds their plans);
    # every key needs its read-out, so keys read out == distinct keys means
    # no key was built twice
    assert len(built) < len(keys)
    assert sum(len(args[2]) for args in built) == len(keys)


def test_begin_after_an_optimizer_step_rebuilds_the_readout():
    rng = np.random.default_rng(64)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=2, seed=64)
    model = randomize(GrktModel(hp, 5, 7, random_graphs(rng, 7)), 0.5,
                      seed=65)
    seq = random_sequence(rng, 5, 7, 6, max_kcs=3)
    q, kcs = seq.responses[0].question, seq.responses[0].kcs
    H = rng.normal(size=(7, 4))

    model.store.zero_grad()
    _, cache = model.begin("train")
    stale = oracles.readout(cache, q, kcs).value.copy()
    model.store.backward(bce_loss_node(model.forward_sequence(seq, cache).preds))
    model.store.adam_step(lr=0.05)

    with E.no_grad():
        _, fresh = model.begin("eval")
        _, mastery = model.stage1_predict(E.as_node(H), [q], [kcs], fresh)
        want = forward_mastery(model, fresh, H, q, kcs)
    assert not np.array_equal(oracles.readout(fresh, q, kcs).value, stale)
    assert abs(mastery.value.item() - want) <= 1e-12 * abs(want)


def test_gradient_check_through_one_readout_read_at_two_memories(monkeypatch):
    rng = np.random.default_rng(66)
    hp = HyperParams(d_e=4, d_k=3, d_h=5, layers=2, seed=66)
    model = randomize(GrktModel(hp, 4, 7, random_graphs(rng, 7, 5, 5)), 0.5,
                      seed=67)
    q, kcs = 2, (1, 4)
    built = []
    monkeypatch.setattr(graphkt.model, "readout_rows",
                        lambda *args: built.append(args) or readout_rows(*args))

    def build_loss(bound):
        cache = BatchCache(model, bound, "train")
        first, _ = model.stage1_predict(cache.h0, [q], [kcs], cache)
        later = model.stage2_strengthen(cache.h0, [q], [kcs], [1], cache)
        again, _ = model.stage1_predict(later, [q], [kcs], cache)
        return bce_loss_node([(first, 1), (again, 0)])

    rep = E.grad_check(model.store, build_loss, np.random.default_rng(68),
                       n_coords=200)
    assert rep.passed, rep.summary()
    assert any(name.startswith("gnn.rtv.") for name in rep.group_errors)
    # each loss built the read-out of its one key once (a batch of one)
    # and read it at both memories
    assert sum(len(args[2]) for args in built) \
        == 1 + 2 * (rep.n_checked + rep.n_skipped)
    for prefix in ("gnn.rtv.", "cor.", "req", "emb.q", "emb.k", "w_h", "H0"):
        assert any(model.store[name].grad.any() for name in model.store.names()
                   if name.startswith(prefix)), prefix


@pytest.mark.parametrize("dtype", ["int64", "bool", "float16", "complex128",
                                   "no-such-type"])
def test_hyperparams_reject_a_dtype_other_than_float32_or_float64(dtype):
    with pytest.raises(ValueError, match="float32 or float64"):
        HyperParams(dtype=dtype)
    for ok in ("float32", "float64", np.float64):
        assert HyperParams(dtype=ok).dtype == ok


def test_a_second_pass_over_a_sequence_builds_no_batch_of_one(monkeypatch):
    # batch-1 training runs each sequence with a fresh BatchCache per step:
    # a plan keeps its batch of one, so once every KC set of the sequence
    # has been seen no stage builds batch indices again
    rng = np.random.default_rng(31)
    hp = HyperParams(d_e=4, d_k=4, d_h=5, layers=2, seed=31)
    model = GrktModel(hp, 12, 10, random_graphs(rng, 10, 6, 6))
    force_learning(model)  # stage 3 propagates progress on every step
    seq = random_sequence(rng, 12, 10, 15, max_kcs=3)
    model.forward_sequence(seq, model.begin("train")[1])
    sizes = []
    init = PlanBatch.__init__

    def spy(self, plans):
        sizes.append(len(plans))
        init(self, plans)

    heads = []

    def rows(spec, *rest):
        heads.append(spec.name)
        return gnn_forward_rows(spec, *rest)

    monkeypatch.setattr(PlanBatch, "__init__", spy)
    monkeypatch.setattr(graphkt.model, "gnn_forward_rows", rows)
    model.forward_sequence(seq, model.begin("train")[1])
    model.store.release()
    assert {"gain", "loss", "prg"} <= set(heads)
    assert 1 not in sizes


def reuse_corpus(seed=71, dtype="float64"):
    """Eight sequences of uneven lengths over 9 KCs, on a model whose
    stage-3 gate always opens: every stage runs multi-plan batches."""
    rng = np.random.default_rng(seed)
    rows = [(s, r.question, r.kcs, r.correct, r.timestamp)
            for s in range(8)
            for r in random_sequence(rng, 6, 9, 6 + s, max_kcs=3).responses]
    ds = make_dataset(rows, n_questions=6, n_kcs=9)
    hp = HyperParams(d_e=4, d_k=4, d_h=5, layers=2, seed=seed, dtype=dtype)
    model = randomize(GrktModel(hp, 6, 9, random_graphs(rng, 9, 6, 6)), 0.6,
                      seed=seed + 1)
    force_learning(model)
    return ds, model, TrainConfig(hp=hp)


def count_plan_batches(monkeypatch) -> list[int]:
    """The plan count of every `PlanBatch` built from now on."""
    built = []
    init = PlanBatch.__init__

    def spy(self, plans):
        built.append(len(plans))
        init(self, plans)

    monkeypatch.setattr(PlanBatch, "__init__", spy)
    return built


def test_a_second_evaluation_pass_builds_no_plan_batch(monkeypatch):
    ds, model, cfg = reuse_corpus()
    built = count_plan_batches(monkeypatch)
    first = evaluate(model, ds, range(8), cfg).to_dict()
    assert any(size > 1 for size in built)
    built.clear()
    assert evaluate(model, ds, range(8), cfg).to_dict() == first
    assert not built


def test_train_mode_builds_its_plan_batches_afresh(monkeypatch):
    ds, model, cfg = reuse_corpus()
    evaluate(model, ds, range(8), cfg)  # every plan's batch of one exists
    held, held_batches = model._eval_batches, dict(model._eval_batches)
    built = count_plan_batches(monkeypatch)
    counts = []
    for _ in range(2):
        built.clear()
        _, cache = model.begin("train")
        for _ in model.steps([seq.real() for seq in ds.sequences], cache):
            pass
        model.store.release()
        counts.append(len(built))
    assert counts[0] == counts[1] > 0
    assert model._eval_batches is held and held == held_batches


def count_edge_positions(monkeypatch) -> list[int]:
    """The plan count of every batch whose blocks' edge positions are
    built from now on, once per layer and direction."""
    built = []
    build = graphkt.gnn._edge_positions

    def spy(edges, out_ids, *rest):
        built.append(len(out_ids))
        return build(edges, out_ids, *rest)

    monkeypatch.setattr(graphkt.gnn, "_edge_positions", spy)
    return built


def test_a_second_evaluation_pass_builds_no_edge_positions(monkeypatch):
    ds, model, cfg = reuse_corpus()
    built = count_edge_positions(monkeypatch)
    first = evaluate(model, ds, range(8), cfg).to_dict()
    assert any(size > 1 for size in built)
    built.clear()
    assert evaluate(model, ds, range(8), cfg).to_dict() == first
    assert not built


def test_a_plan_builds_its_edge_positions_once_across_training_steps(
        monkeypatch):
    ds, model, _ = reuse_corpus()
    built = count_edge_positions(monkeypatch)
    steps = []
    for _ in range(2):
        built.clear()
        _, cache = model.begin("train")
        model.store.zero_grad()
        model.store.backward(bce_loss_node(
            model.forward_sequence(ds.sequences[0], cache).preds))
        model.store.adam_step(lr=0.01)
        steps.append(sorted(built))
    first, second = steps
    # a plan's batch of one keeps its positions; a train-mode batch of
    # several plans lives for one step and builds them again
    assert 1 in first and 1 not in second
    assert [k for k in first if k > 1] == second and second


def test_the_model_holds_one_evaluation_pass_of_plan_batches():
    first, second = range(0, 5), range(4, 8)

    def held(model):
        """The row sets of the plans of each batch the model holds."""
        return sorted(tuple(p.row_sets for p in plans)
                      for plans in model._eval_batches)

    def fresh_pass(indices):
        ds, model, cfg = reuse_corpus()
        evaluate(model, ds, indices, cfg)
        return held(model)

    want_first, want_second = fresh_pass(first), fresh_pass(second)
    assert want_first != want_second
    ds, model, cfg = reuse_corpus()
    evaluate(model, ds, first, cfg)
    assert held(model) == want_first
    keys = set(model._eval_batches)
    evaluate(model, ds, second, cfg)
    assert held(model) == want_second
    for _ in range(3):
        evaluate(model, ds, first, cfg)
        assert held(model) == want_first
        assert set(model._eval_batches) == keys


def test_float32_evaluation_passes_report_identically():
    ds, model, cfg = reuse_corpus(dtype="float32")
    assert model.store.dtype == np.float32
    first = evaluate(model, ds, range(8), cfg).to_dict()
    assert evaluate(model, ds, range(8), cfg).to_dict() == first


def test_stage1_rejects_unknown_question(desk_model):
    _, cache = desk_model.begin("eval")
    with pytest.raises(ValueError, match="unknown question"):
        desk_model.stage1_predict(cache.h0, [99], [(0,)], cache)


@pytest.mark.parametrize("bad", [-1, 6])
def test_every_stage_rejects_a_kc_id_outside_the_model(desk_model, bad):
    # -1 would read emb.k's padding row and H's last row; 6 == n_kcs
    _, cache = desk_model.begin("eval")
    H = cache.h0
    counters = np.zeros(6, dtype=np.int64)
    match = f"unknown KC id {bad}$"
    with pytest.raises(ValueError, match=match):
        desk_model.stage1_predict(H, [0], [(bad,)], cache)
    with pytest.raises(ValueError, match=match):
        desk_model.stage2_strengthen(H, [0], [(1, bad)], [1], cache)
    with pytest.raises(ValueError, match=match):
        desk_model.stage3_learn_forget(H, [0], [(0,)], [1], [(bad,)], [60.0],
                                       counters, cache)
    seq = ResponseSequence(0, [Response(0, (0,), 1, 0),
                               Response(1, (bad, 2), 0, 60)], 2)
    with pytest.raises(ValueError, match=match):
        desk_model.forward_sequence(seq, cache)
    with pytest.raises(ValueError, match="sorted and distinct"):
        desk_model.stage1_predict(H, [0], [(3, 1)], cache)


def test_prepare_checks_every_id_before_building_a_table(desk_model,
                                                        monkeypatch):
    built = []
    monkeypatch.setattr(graphkt.model, "readout_rows",
                        lambda *args: built.append(args) or readout_rows(*args))
    _, cache = desk_model.begin("eval")
    good = [Response(0, (0,), 1, 0), Response(2, (1, 3), 0, 30)]
    for bad, match in ((Response(1, (2, 6), 0, 60), "unknown KC id 6$"),
                       (Response(5, (1,), 0, 60), "unknown question id 5$")):
        with pytest.raises(ValueError, match=match):
            cache.prepare([*good, bad])
    assert not built  # the good keys were not built either
    cache.prepare(good)
    assert sum(len(args[2]) for args in built) == 2


def test_prepare_checks_each_new_key_once(desk_model, monkeypatch):
    checked = []
    check = desk_model._check_ids
    monkeypatch.setattr(desk_model, "_check_ids",
                        lambda q, kcs: checked.append((q, kcs)) or check(q, kcs))
    _, cache = desk_model.begin("eval")
    a, b, c = (Response(0, (0,), 1, 0), Response(2, (1, 3), 0, 30),
               Response(1, (2,), 1, 60))
    cache.prepare([a, b, a, b, c, a])
    assert checked == [(0, (0,)), (2, (1, 3)), (1, (2,))]
    cache.prepare([b, Response(4, (5,), 0, 90), c])
    assert checked[3:] == [(4, (5,))]


def test_prepare_names_the_first_bad_response_among_repeated_keys(desk_model):
    _, cache = desk_model.begin("eval")
    good = [Response(0, (0,), 1, 0), Response(2, (1, 3), 0, 30)]
    with pytest.raises(ValueError, match="unknown KC id 7$"):
        cache.prepare([*good, Response(1, (2, 7), 0, 60), *good,
                       Response(9, (1,), 0, 90)])


def test_repeated_and_unsorted_kcs_predict_bitwise_as_the_kc_set():
    model = randomize(GrktModel(HyperParams(d_e=4, d_k=3, d_h=5, layers=2,
                                            seed=1),
                                5, 6, random_graphs(np.random.default_rng(3),
                                                    6)), scale=0.7, seed=4)
    # stage 3 always grants progress, which reads both questions' e_bar
    model.store.value("mlp.dcs.b2")[...] = [[-5.0, 5.0]]

    def predictions(kcs):
        seq = ResponseSequence(0, [Response(0, (0, 2), 1, 0),
                                   Response(1, kcs, 0, 600),
                                   Response(2, (1, 3), 1, 900),
                                   Response(1, kcs, 1, 4000)], 4)
        _, cache = model.begin("eval")
        return [p.value.item() for p, _ in model.forward_sequence(seq, cache)
                .preds]

    raw = predictions((3, 1, 3))
    assert raw == predictions((1, 3))
    assert raw != predictions((1,)) and raw != predictions((3,))


# -- stage 2 ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_stage2_signs(seed):
    rng = np.random.default_rng(seed)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=2, seed=seed)
    graphs = random_graphs(rng, 6)
    model = randomize(GrktModel(hp, 5, 6, graphs), scale=1.0, seed=seed)
    _, cache = model.begin("eval")
    H = cache.h0
    up = model.stage2_strengthen(H, [0], [(1, 3)], [1], cache)
    assert (up.value - H.value >= 0).all()
    down = model.stage2_strengthen(H, [0], [(1, 3)], [0], cache)
    assert (down.value - H.value <= 0).all()
    # mastery moves the same direction for every KC
    w = constrain_nonneg_vector(model.store.value("w_h")).ravel()
    assert ((up.value - H.value) @ w >= 0).all()
    assert ((down.value - H.value) @ w <= 0).all()


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_stage2_locality_matches_bfs(layers):
    rng = np.random.default_rng(layers)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=layers, seed=layers)
    graphs = random_graphs(rng, 8, p_edges=5, r_edges=4)
    model = randomize(GrktModel(hp, 5, 8, graphs), scale=0.8, seed=layers)
    _, cache = model.begin("eval")
    H = cache.h0
    kcs = (0, 2)
    new_H = model.stage2_strengthen(H, [0], [kcs], [1], cache)
    support = hop_support(graphs, kcs, layers)
    for c in range(8):
        if c not in support:
            assert np.array_equal(new_H.value[c], H.value[c]), c


# -- stage 3 ---------------------------------------------------------------------


def empty_graph_model(d_e=4, d_k=4, layers=1, n_kcs=4, seed=0):
    hp = HyperParams(d_e=d_e, d_k=d_k, d_h=5, layers=layers, seed=seed)
    graphs = KcRelationGraphs.empty(n_kcs)
    return GrktModel(hp, 4, n_kcs, graphs)


def force_learning(model, learn=True):
    model.store.value("mlp.dcs.W1")[...] = 0.0
    model.store.value("mlp.dcs.W2")[...] = 0.0
    model.store.value("mlp.dcs.b2")[...] = [0.0, 10.0] if learn else [10.0, 0.0]


@pytest.mark.parametrize("layers", [1, 2])
def test_kernel_rates_run_on_the_all_kc_plan_without_gathering(monkeypatch,
                                                               layers):
    rng = np.random.default_rng(layers)
    hp = HyperParams(d_e=4, d_k=4, d_h=5, layers=layers, seed=layers)
    model = GrktModel(hp, 4, 7, random_graphs(rng, 7, p_edges=5, r_edges=5))
    calls = []

    def rows(spec, x0, plan, *rest):
        calls.append((spec.name, plan))
        return gnn_forward_rows(spec, x0, plan, *rest)

    def no_gather(*args):
        raise AssertionError("the kernel-rate heads gathered an adjacency block")

    monkeypatch.setattr(graphkt.model, "gnn_forward_rows", rows)
    monkeypatch.setattr(E, "gather_submatrix", no_gather)
    _, cache = model.begin("train")
    every_kc = model.plan(tuple(range(7)))
    assert calls == [("lrn", every_kc), ("fgt", every_kc)]
    assert every_kc.batch.whole[1:] == (True,) * layers
    assert cache.learn_rates.value.shape == cache.forget_rates.value.shape \
        == (7, 4)


def test_stage3_dt_zero_is_identity(desk_model):
    model = randomize(desk_model, scale=0.8, seed=9)
    _, cache = model.begin("eval")
    counters = np.zeros(6, dtype=np.int64)
    out = model.stage3_learn_forget(cache.h0, [0], [(0,)], [1], [(1, 2)], [0.0],
                                    counters, cache)
    assert np.array_equal(out.value, cache.h0.value)


def test_stage3_unit_kernel_value():
    # gamma forced to exactly 1 via the residual path: with equal embedding
    # and memory widths and no edges, the rate head returns
    # softplus(k_c) = 1 when k_c = ln(e - 1); progress forced to 1; then a
    # one-minute gap with n=0 yields an increment of exactly 1 - e^{-1}.
    model = empty_graph_model(d_e=4, d_k=4)
    for name in model.store.names():
        model.store.value(name)[...] = 0.0
    model.store.value("emb.k")[...] = math.log(math.e - 1.0)
    force_learning(model, True)
    model.store.value("mlp.prg.b2")[...] = 1.0
    model.store.value("H0")[...] = 0.1
    _, cache = model.begin("eval")
    assert np.allclose(cache.learn_rates.value, 1.0, atol=1e-15)
    counters = np.zeros(4, dtype=np.int64)
    out = model.stage3_learn_forget(cache.h0, [0], [(0,)], [1], [(0,)], [60.0],
                                    counters, cache)
    inc = out.value[0] - 0.1
    assert np.allclose(inc, 1.0 - math.exp(-1.0), atol=1e-12)
    assert counters[0] == 1


def test_stage3_half_life_kernel():
    # softplus(0) = ln 2, so a one-minute gap decays exactly half of the
    # accumulated memory when the rate head sees zero input
    model = empty_graph_model(d_e=3, d_k=4)  # d_e != d_k kills the residual
    for name in model.store.names():
        model.store.value(name)[...] = 0.0
    force_learning(model, False)
    model.store.value("H0")[...] = 0.1
    _, cache = model.begin("eval")
    assert np.allclose(cache.forget_rates.value, math.log(2.0), atol=1e-15)
    H = E.as_node(np.full((4, 4), 0.9))
    counters = np.zeros(4, dtype=np.int64)
    out = model.stage3_learn_forget(H, [0], [(0,)], [1], [(1,)], [60.0],
                                    counters, cache)
    assert np.allclose(out.value, 0.1 + 0.8 * 0.5, atol=1e-12)
    assert counters.sum() == 0


def test_stage3_limits_at_huge_gap():
    rng = np.random.default_rng(3)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=3)
    graphs = random_graphs(rng, 6)
    model = randomize(GrktModel(hp, 5, 6, graphs), scale=0.5, seed=4)
    force_learning(model, True)
    _, cache = model.begin("eval")
    H = E.as_node(rng.normal(0.5, 0.3, size=(6, 4)))
    counters = np.zeros(6, dtype=np.int64)

    # capture the propagated progress by diffing a dt where forgetting is
    # also saturated: learned rows gain exactly the progress, others hit H0
    out = model.stage3_learn_forget(H, [0], [(0,)], [1], [(1,)], [1e9],
                                    counters, cache)
    learned = counters > 0
    assert learned.any() and not learned.all()
    h0 = model.store.value("H0")
    for c in range(6):
        if not learned[c]:
            assert np.abs(out.value[c] - h0[c]).max() < 1e-9

    # learned increment equals the progress matrix exactly: replay with the
    # progress reconstructed from a fresh pass at dt -> saturation
    again = model.stage3_learn_forget(H, [0], [(0,)], [1], [(1,)], [2e9],
                                      np.zeros(6, dtype=np.int64), cache)
    assert np.allclose(out.value[learned], again.value[learned], atol=1e-12)


def test_stage3_forgetting_contracts_toward_h0():
    rng = np.random.default_rng(8)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=8)
    model = randomize(GrktModel(hp, 5, 6, random_graphs(rng, 6)), 0.6, 8)
    force_learning(model, False)
    _, cache = model.begin("eval")
    h0 = model.store.value("H0")
    H = E.as_node(h0 + rng.normal(0, 1.0, size=(6, 4)))
    counters = np.zeros(6, dtype=np.int64)
    out = model.stage3_learn_forget(H, [0], [(0,)], [1], [(1,)], [600.0],
                                    counters, cache)
    gap_before = np.abs(H.value - h0)
    gap_after = np.abs(out.value - h0)
    assert (gap_after <= gap_before + 1e-15).all()
    assert (gap_after < gap_before).all()  # dt > 0 shrinks every coordinate
    same = model.stage3_learn_forget(H, [0], [(0,)], [1], [(1,)], [0.0],
                                     np.zeros(6, dtype=np.int64), cache)
    assert np.array_equal(same.value, H.value)  # equality iff dt = 0


def test_stage3_learned_rows_strictly_increase():
    # wherever a learned KC's progress coordinate is positive and dt > 0,
    # its memory coordinate strictly increases
    hits = 0
    for seed in range(8):
        rng = np.random.default_rng(60 + seed)
        hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=seed)
        model = randomize(GrktModel(hp, 5, 6, random_graphs(rng, 6)), 0.8,
                          seed + 70)
        _, cache = model.begin("eval")
        H = E.as_node(rng.normal(0.2, 0.4, size=(6, 4)))
        counters = np.zeros(6, dtype=np.int64)
        out = model.stage3_learn_forget(H, [0], [(0, 1)], [1], [(2,)], [45.0],
                                        counters, cache)
        for c in np.flatnonzero(counters):
            delta = out.value[c] - H.value[c]
            assert (delta > 0).any()
            hits += 1
    assert hits > 0


def test_stage3_counters_monotone():
    rng = np.random.default_rng(12)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=12)
    model = randomize(GrktModel(hp, 5, 6, random_graphs(rng, 6)), 1.0, 12)
    _, cache = model.begin("eval")
    counters = np.zeros(6, dtype=np.int64)
    H = cache.h0
    for t in range(6):
        before = counters.copy()
        H = model.stage3_learn_forget(H, [t % 5], [(t % 6,)], [(t + 1) % 5],
                                      [((t + 1) % 6,)], [120.0], counters,
                                      cache)
        assert (counters >= before).all()


def test_stage3_gap_cap():
    assert DT_CAP_MINUTES == 43200.0


# -- forward over sequences -------------------------------------------------------


def test_forward_single_step_skips_stage3(desk_model):
    model = randomize(desk_model, 0.5, seed=20)
    seq = ResponseSequence(0, [Response(0, (0,), 1, 100)], 1)
    _, cache = model.begin("eval")
    res = trace_alone(model, seq, cache)
    assert len(res.scores) == 1
    assert len(res.pre) == len(res.post) == 1


def test_forward_deterministic(desk_model, desk_sequence):
    model = randomize(desk_model, 0.5, seed=21)

    def run():
        _, cache = model.begin("eval")
        res = trace_alone(model, desk_sequence, cache)
        return res.scores.tolist(), res

    p1, t1 = run()
    p2, t2 = run()
    assert p1 == p2
    assert np.array_equal(t1.pre, t2.pre) and np.array_equal(t1.post, t2.post)


def test_forward_ignores_padding(desk_model, desk_sequence):
    model = randomize(desk_model, 0.5, seed=22)
    padded = ResponseSequence(
        0, desk_sequence.responses + [Response(4, (5,), 0, 9000)] * 3, 5)
    _, cache = model.begin("eval")
    res = model.forward_sequence(padded, cache)
    _, cache2 = model.begin("eval")
    res2 = model.forward_sequence(desk_sequence, cache2)
    assert [p.value.item() for p, _ in res.preds] == \
        [p.value.item() for p, _ in res2.preds]


@pytest.mark.parametrize("seed", range(6))
def test_consistency_is_exactly_one_for_any_parameters(seed):
    """Strengthening moves every mastery the same direction, so the
    consistency metric is exactly 1.0 even for adversarial parameters."""
    rng = np.random.default_rng(seed)
    hp = HyperParams(d_e=3, d_k=5, d_h=4, layers=int(rng.integers(1, 3)),
                     seed=seed)
    graphs = random_graphs(rng, 7)
    model = randomize(GrktModel(hp, 6, 7, graphs), scale=3.0, seed=seed + 100)
    _, cache = model.begin("eval")
    traces = []
    for s in range(4):
        seq = random_sequence(rng, 6, 7, int(rng.integers(3, 12)), student=s)
        traces.append(trace_alone(model, seq, cache))
    assert mean_consistency(trace_ratios(traces)) == 1.0


def test_trace_rows_flatten(desk_model, desk_sequence):
    model = randomize(desk_model, 0.5, seed=30)
    _, cache = model.begin("eval")
    rows = trace_rows(trace_alone(model, desk_sequence, cache, seq_index=3))
    assert len(rows) == 5 * 6
    assert {r["seq_index"] for r in rows} == {3}
    assert all(set(r) == {"student", "seq_index", "step", "timestamp", "kc",
                          "mastery_pre", "mastery_post", "predicted",
                          "correct"} for r in rows)


# -- predict_next -----------------------------------------------------------------


def test_predict_next_empty_history(desk_model):
    model = randomize(desk_model, 0.5, seed=23)
    _, cache = model.begin("eval")
    direct, _ = model.stage1_predict(cache.h0, [2], [(3,)], cache)
    assert predict_next(model, [], 2, (3,), 500, cache) == direct.value.item()


def test_predict_next_matches_two_step_replay(desk_model):
    model = randomize(desk_model, 0.5, seed=24)
    _, cache = model.begin("eval")
    r0 = Response(0, (0,), 1, 1000)
    # re-ask the same question immediately: dt = 0 for the interposed gap
    got = predict_next(model, [r0], 0, (0,), 1000, cache)
    H = model.stage2_strengthen(cache.h0, [0], [(0,)], [1], cache)
    counters = np.zeros(6, dtype=np.int64)
    H = model.stage3_learn_forget(H, [0], [(0,)], [0], [(0,)], [0.0], counters,
                                  cache)
    want, _ = model.stage1_predict(H, [0], [(0,)], cache)
    assert got == want.value.item()


@pytest.mark.parametrize("disable_stage3", [False, True])
def test_predict_next_is_the_last_prediction_of_forward_sequence(
        disable_stage3):
    rng = np.random.default_rng(42)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=2, seed=42)
    model = randomize(GrktModel(hp, 5, 7, random_graphs(rng, 7)), 0.6,
                      seed=43)
    seq = random_sequence(rng, 5, 7, 9, max_kcs=3)
    *history, probe = seq.responses
    with E.no_grad():
        _, cache = model.begin("eval")
        got = predict_next(model, history, probe.question, probe.kcs,
                           probe.timestamp, cache,
                           disable_stage3=disable_stage3)
        res = model.forward_sequence(seq, cache,
                                     disable_stage3=disable_stage3)
    assert got == res.preds[-1][0].value.item()


def test_predict_next_invariant_outside_support():
    rng = np.random.default_rng(40)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=2, seed=40)
    graphs = random_graphs(rng, 9, p_edges=4, r_edges=3)
    model = randomize(GrktModel(hp, 5, 9, graphs), 0.6, seed=41)
    history = [Response(0, (0,), 1, 100), Response(1, (2,), 0, 700)]
    q_next, kcs_next = 2, (1,)
    involved = {0, 2, 1}
    support = hop_support(graphs, involved, 2)
    outside = sorted(set(range(9)) - support)
    if not outside:
        pytest.skip("random graph left no KC outside the support")
    _, cache = model.begin("eval")
    base = predict_next(model, history, q_next, kcs_next, 1300, cache)
    model.store.value("H0")[outside] += rng.normal(0, 2.0,
                                                   size=(len(outside), 4))
    _, cache2 = model.begin("eval")
    assert predict_next(model, history, q_next, kcs_next, 1300, cache2) == base


# -- persistence --------------------------------------------------------------------


def test_float32_store_stays_float32(desk_sequence):
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=7, dtype="float32")
    graphs = KcRelationGraphs(
        6, {(0, 1): 0.9, (2, 3): 0.8}, {(1, 2): 0.7, (4, 5): 0.9})
    model = GrktModel(hp, n_questions=5, n_kcs=6, graphs=graphs)
    _, cache = model.begin("train")
    res = model.forward_sequence(desk_sequence, cache)
    assert all(p.value.dtype == np.float32 for p, _ in res.preds)
    from graphkt.train import bce_loss_node
    loss = bce_loss_node(res.preds)
    model.store.backward(loss)
    model.store.adam_step(1e-3, l2=1e-5)
    assert model.store.value("emb.k").dtype == np.float32


# how a checkpoint's model was trained: the stage-3 ablation and data split
RUN = {"disable_stage3": False, "seq_len": 12, "min_len": 4, "k": 3,
       "val_frac": 0.2, "fold": 1}


def test_model_save_load_roundtrip(tmp_path, desk_model, desk_sequence):
    model = randomize(desk_model, 0.5, seed=50)
    path = tmp_path / "model.npz"
    model.save(path, **RUN)
    loaded, run = GrktModel.load(path)
    assert loaded.hp == model.hp and run == RUN
    _, c1 = model.begin("eval")
    _, c2 = loaded.begin("eval")
    p1 = [p.value.item() for p, _ in
          model.forward_sequence(desk_sequence, c1).preds]
    p2 = [p.value.item() for p, _ in
          loaded.forward_sequence(desk_sequence, c2).preds]
    assert p1 == p2


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("disable_stage3", [False, True])
def test_checkpoint_is_the_whole_model(tmp_path, dtype, disable_stage3):
    rng = np.random.default_rng(51)
    hp = HyperParams(d_e=4, d_k=3, d_h=5, layers=2, seed=51, dtype=dtype)
    # scores that decimal formatting would round
    p = {(0, 1): 0.1 + 0.2, (3, 2): 2.0 / 3.0, (4, 6): 1e-300}
    r = {(1, 5): np.nextafter(0.7, 1.0), (6, 2): 5.0 / 7.0}
    graphs = KcRelationGraphs(7, p, r)
    model = randomize(GrktModel(hp, 5, 7, graphs), 0.5, seed=52)
    model.store.step_count = 17
    path = tmp_path / "checkpoint"  # no suffix is appended
    run = {**RUN, "disable_stage3": disable_stage3}
    model.save(path, **run)
    loaded, loaded_run = GrktModel.load(path)

    assert (loaded.hp, loaded_run) == (hp, run)
    assert (loaded.n_questions, loaded.n_kcs) == (5, 7)
    assert loaded.store.names() == model.store.names()
    assert loaded.store.dtype == np.dtype(dtype)
    assert loaded.store.step_count == 17
    for name in model.store.names():
        want, got = model.store.value(name), loaded.store.value(name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    g = loaded.graphs
    assert g.n_kcs == 7
    assert g.p_scores == graphs.p_scores and g.r_scores == graphs.r_scores
    for which in ("P", "S", "R"):
        for c in range(7):
            assert g.neighbors(which, c) == graphs.neighbors(which, c)


@pytest.mark.parametrize("edge,message", [
    ("R 2 2 0.7", "self loop on KC 2"),
    ("P 0 9 0.7", "edge (0, 9) outside KC range"),
])
def test_checkpoint_refuses_a_malformed_graph(tmp_path, edge, message):
    model = GrktModel(HyperParams(d_e=3, d_k=3, d_h=4, layers=1), 5, 7,
                      KcRelationGraphs(7, {(0, 1): 0.5}, {}))
    path = tmp_path / "checkpoint.npz"
    model.save(path, **RUN)
    with np.load(path) as archive:
        arrays = dict(archive)
    header = json.loads(arrays[E._HEADER].item())
    assert header["graphs"] == "graphkt-graphs 1 n_kcs=7\nP 0 1 0.5\n"
    header["graphs"] += edge + "\n"  # line 3 of the graph text
    arrays[E._HEADER] = np.array(json.dumps(header))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ValueError) as exc:
        GrktModel.load(path)
    assert str(exc.value) == (f"{path}: malformed model fields "
                              f"(graphs:3: {message})")
