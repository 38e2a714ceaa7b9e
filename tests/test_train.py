"""Loss contract, early stopping, ablations and the fold protocol."""

import gc
import json
import math

import numpy as np
import pytest

from graphkt import engine as E
from graphkt import metrics
from graphkt.data import Response, make_folds, preprocess
from graphkt.graphs import KcRelationGraphs
from graphkt.model import GrktModel, HyperParams
from graphkt.train import (TrainConfig, TrainReport, TrainingDiverged,
                           apply_ablation,
                           _predictions, bce_loss_node, cross_validate,
                           evaluate, graphs_for_fold, train_fold)
from tests.conftest import make_dataset, random_graphs, random_sequence
from tests.oracles import (Reasker, bce_loss, reask_scores, repetition,
                           trace_alone, trace_ratios)
from tests.test_model import randomize


# -- bce loss -----------------------------------------------------------------


def test_bce_half_everywhere_is_ln2():
    preds = [(0.5, 1, True), (0.5, 0, True), (0.5, 1, True)]
    assert abs(bce_loss(preds) - math.log(2.0)) < 1e-12


def test_bce_perfect_predictions_hit_clamp():
    preds = [(1.0, 1, True), (0.0, 0, True)]
    want = -math.log(1.0 - 1e-7)
    assert abs(bce_loss(preds) - want) < 1e-12
    nodes = [(E.as_node(np.array([[s]])), a) for s, a, _ in preds]
    assert abs(bce_loss_node(nodes).value.item() - want) < 1e-12


def test_bce_ignores_masked_steps():
    base = [(0.8, 1, True), (0.4, 0, True)]
    noisy = base + [(0.123, 1, False), (float("nan"), 0, False)]
    assert bce_loss(base) == bce_loss(noisy)


def test_bce_empty_unmasked_errors():
    with pytest.raises(ValueError):
        bce_loss([(0.5, 1, False)])
    with pytest.raises(ValueError):
        bce_loss_node([])


def test_bce_node_matches_float_path():
    rng = np.random.default_rng(0)
    scores = rng.uniform(0.01, 0.99, size=20)
    labels = rng.integers(0, 2, size=20)
    preds_node = [(E.as_node(np.array([[s]])), int(a))
                  for s, a in zip(scores, labels)]
    preds_flt = [(float(s), int(a), True) for s, a in zip(scores, labels)]
    assert abs(bce_loss_node(preds_node).value.item()
               - bce_loss(preds_flt)) < 1e-12


@pytest.mark.parametrize("label", [0, 1])
def test_bce_node_with_one_outcome(label):
    scores = [0.2, 0.7, 0.9]
    nodes = [(E.as_node(np.array([[s]])), label) for s in scores]
    want = bce_loss([(s, label, True) for s in scores])
    assert abs(bce_loss_node(nodes).value.item() - want) < 1e-12


def per_term_bce(preds):
    """The loss as one clip/log(/sub) chain per response, summed."""
    total = None
    for p, label in preds:
        pc = E.clip(p, 1e-7, 1.0 - 1e-7)
        term = E.mul(E.log(pc if label == 1 else E.sub(1.0, pc)), -1.0)
        total = term if total is None else E.add(total, term)
    return E.mul(E.sum_all(total), 1.0 / len(preds))


def desk_setup(seed, n_students):
    """A model at the desk widths (C=50, d_e=d_k=8, d_h=16, L=1) with
    random parameters, and `n_students` sequences of 40 responses."""
    rng = np.random.default_rng(seed)
    hp = HyperParams(d_e=8, d_k=8, d_h=16, layers=1, seed=seed)
    graphs = random_graphs(rng, 50, p_edges=40, r_edges=40)
    model = randomize(GrktModel(hp, 30, 50, graphs), 0.5, seed=seed)
    seqs = [random_sequence(rng, 30, 50, 40, student=s)
            for s in range(n_students)]
    return model, seqs


@pytest.mark.parametrize("seed", [0, 1])
def test_bce_columns_match_the_per_term_chain(seed):
    model, batch = desk_setup(seed, 8)

    def loss_and_grads(build_loss):
        _, cache = model.begin("train")
        preds = [pred for seq in batch
                 for pred in model.forward_sequence(seq, cache).preds]
        loss = build_loss(preds)
        model.store.zero_grad()
        model.store.backward(loss)
        return loss.value.item(), {name: model.store[name].grad.copy()
                                   for name in model.store.names()}

    want_loss, want = loss_and_grads(per_term_bce)
    got_loss, got = loss_and_grads(bce_loss_node)
    assert abs(got_loss - want_loss) < 1e-12
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


# -- tiny training setups -------------------------------------------------------


def tiny_dataset(n_students=12, length=8, n_questions=4, n_kcs=3, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(n_students):
        skill = rng.random() < 0.5
        for i in range(length):
            q = int(rng.integers(n_questions))
            correct = int(rng.random() < (0.8 if skill else 0.2))
            rows.append((s, q, (q % n_kcs,), correct, 100 + 60 * i))
    ds = make_dataset(rows, n_questions=n_questions, n_kcs=n_kcs)
    return preprocess(ds, seq_len=length, min_len=2)


def tiny_config(**kw):
    hp = HyperParams(d_e=3, d_k=3, d_h=4, layers=1, lr=1e-2, l2=1e-6,
                     eta=0.6, seed=0, batch_size=4, patience=kw.pop("patience", 2))
    return TrainConfig(hp=hp, max_epochs=kw.pop("max_epochs", 3),
                       min_cooccurrence=kw.pop("min_cooccurrence", 2), **kw)


def test_train_fold_runs_and_reports():
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    model, report = train_fold(ds, fold, tiny_config())
    assert len(report.train_losses) == len(report.val_auc)
    assert report.best_epoch >= 0
    assert report.best_val_auc == max(report.val_auc)
    assert set(report.test_metrics) == {"auc", "acc", "consistency",
                                        "gaucm", "repetition"}
    assert report.test_metrics["consistency"] == 1.0


def test_patience_zero_stops_at_first_non_improving():
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    cfg = tiny_config(patience=0, max_epochs=50)
    _, report = train_fold(ds, fold, cfg, compute_test_metrics=False)
    # ran until the first epoch whose validation AUC failed to improve
    aucs = report.val_auc
    assert len(aucs) < 50
    assert aucs[-1] <= max(aucs[:-1])
    for i in range(1, len(aucs) - 1):
        assert aucs[i] > max(aucs[:i])  # every interior epoch improved


def test_early_stop_returns_best_checkpoint():
    ds = tiny_dataset(seed=3)
    fold = make_folds(ds, k=3, val_frac=0.2, seed=1)[0]
    cfg = tiny_config(patience=1, max_epochs=20)
    model, report = train_fold(ds, fold, cfg, compute_test_metrics=False)
    # the returned parameters reproduce the best recorded validation AUC
    from graphkt import metrics
    from graphkt.train import _predictions
    pairs = _predictions(model, ds, fold.val, cfg)
    assert abs(metrics.auc(pairs) - report.best_val_auc) < 1e-12


def test_loss_decreases_on_learnable_data():
    ds = tiny_dataset(n_students=30, length=10, seed=5)
    fold = make_folds(ds, k=3, val_frac=0.1, seed=0)[0]
    cfg = tiny_config(max_epochs=6, patience=6)
    _, report = train_fold(ds, fold, cfg, compute_test_metrics=False)
    assert report.train_losses[5] < report.train_losses[0]


def test_training_deterministic_same_seed():
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    m1, r1 = train_fold(ds, fold, tiny_config())
    m2, r2 = train_fold(ds, fold, tiny_config())
    assert r1.train_losses == r2.train_losses
    assert r1.test_metrics == r2.test_metrics
    for name in m1.store.names():
        assert np.array_equal(m1.store.value(name), m2.store.value(name))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows
def test_divergence_raises_with_location():
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    cfg = tiny_config()
    cfg.hp.lr = 1e9  # guaranteed blow-up
    with pytest.raises(TrainingDiverged) as err:
        train_fold(ds, fold, cfg)
    assert err.value.epoch >= 0 and err.value.batch >= 0


# -- masking ---------------------------------------------------------------------


def test_padded_steps_never_affect_loss():
    ds = tiny_dataset(n_students=6, length=7)
    # pad to length 10: three sentinel responses per sequence
    ds = preprocess(ds, seq_len=10, min_len=2)
    fold = make_folds(ds, k=2, val_frac=0.2, seed=0)[0]
    cfg = tiny_config(max_epochs=1)
    graphs = graphs_for_fold(ds, fold, cfg)
    model = GrktModel(cfg.hp, ds.n_questions, ds.n_kcs, graphs)

    def loss_of(dataset):
        _, cache = model.begin("train")
        preds = []
        for idx in fold.train:
            preds.extend(model.forward_sequence(dataset.sequences[idx],
                                                cache).preds)
        return bce_loss_node(preds).value.item()

    base = loss_of(ds)
    # corrupt every padded slot
    for seq in ds.sequences:
        for t in range(seq.valid_len, len(seq.responses)):
            seq.responses[t] = Response(ds.padding_question(),
                                        (ds.padding_kc(),), 1, 999999999)
    assert loss_of(ds) == base


# -- ablations ---------------------------------------------------------------------


def test_ablation_flags_drop_graphs():
    g = KcRelationGraphs(4, {(0, 1): 0.9}, {(2, 3): 0.8})
    sim_only = apply_ablation(g, tiny_config(drop_prerequisite=True))
    assert sim_only.edge_count("P") == 0 and sim_only.edge_count("S") == 0
    assert sim_only.edge_count("R") == 2
    pre_only = apply_ablation(g, tiny_config(drop_similarity=True))
    assert pre_only.edge_count("P") == 1 and pre_only.edge_count("R") == 0
    none = apply_ablation(g, tiny_config(drop_similarity=True,
                                         drop_prerequisite=True))
    assert all(none.edge_count(k) == 0 for k in ("P", "S", "R"))


def test_drop_all_graphs_collapses_support():
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    cfg = tiny_config(drop_similarity=True, drop_prerequisite=True)
    graphs = graphs_for_fold(ds, fold, cfg)
    model = GrktModel(cfg.hp, ds.n_questions, ds.n_kcs, graphs)
    _, cache = model.begin("eval")
    H = cache.h0
    new_H = model.stage2_strengthen(H, [0], [(1,)], [1], cache)
    changed = {c for c in range(ds.n_kcs)
               if not np.array_equal(new_H.value[c], H.value[c])}
    assert changed <= {1}


def test_both_drop_flags_skip_mining(monkeypatch):
    import graphkt.train as train_mod

    def no_mining(*args, **kwargs):
        raise AssertionError("graphs were mined")

    monkeypatch.setattr(train_mod, "build_graphs", no_mining)
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    graphs = graphs_for_fold(ds, fold, tiny_config(drop_similarity=True,
                                                   drop_prerequisite=True))
    assert graphs.n_kcs == ds.n_kcs
    assert all(graphs.edge_count(k) == 0 for k in ("P", "S", "R"))
    with pytest.raises(AssertionError, match="mined"):
        graphs_for_fold(ds, fold, tiny_config(drop_similarity=True))


def test_stage3_disabled_makes_timestamps_irrelevant():
    ds = tiny_dataset(n_students=8, length=6, seed=9)
    fold = make_folds(ds, k=2, val_frac=0.2, seed=0)[0]
    cfg = tiny_config(disable_stage3=True, max_epochs=2)
    _, report = train_fold(ds, fold, cfg, compute_test_metrics=False)

    # strictly monotone timestamp reparameterization: t -> 3t^2 + 5
    warped_rows = []
    for seq in ds.sequences:
        for r in seq.real():
            warped_rows.append((seq.student, r.question, r.kcs, r.correct,
                                3 * r.timestamp * r.timestamp + 5))
    warped = preprocess(make_dataset(warped_rows, n_questions=ds.n_questions,
                                     n_kcs=ds.n_kcs),
                        seq_len=ds.seq_len, min_len=2)
    _, report2 = train_fold(warped, fold, cfg, compute_test_metrics=False)
    assert report.train_losses == report2.train_losses
    assert report.val_auc == report2.val_auc


# -- evaluation and cross-validation --------------------------------------------


def test_evaluate_full_metric_set():
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    cfg = tiny_config()
    graphs = graphs_for_fold(ds, fold, cfg)
    model = GrktModel(cfg.hp, ds.n_questions, ds.n_kcs, graphs)
    report = evaluate(model, ds, fold.test, cfg)
    for value in report.to_dict().values():
        assert 0.0 <= value <= 1.0
    assert report.consistency == 1.0


def close(got, want, rel=1e-12):
    """Equal within `rel` relative to the largest magnitude of `want`."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want).max(initial=0.0) \
        <= rel * np.abs(want).max(initial=0.0)


def lockstep_order(lengths):
    """(sequence, step) pairs in the order the lockstep recurrence visits
    them: step by step, longest sequence first (ties in the caller's
    order)."""
    order = sorted(range(len(lengths)), key=lambda b: -lengths[b])
    return [(b, t) for t in range(max(lengths, default=0))
            for b in order if t < lengths[b]]


@pytest.mark.parametrize("disable_stage3", [False, True])
def test_evaluate_is_one_pass_of_the_recurrence(monkeypatch, disable_stage3):
    # evaluate runs its sequences in lockstep; its inputs to the metrics
    # equal what trace_alone and reask_scores produce on each sequence
    # alone: exactly on labels, questions, order and examined KCs, within
    # 1e-12 relative on predictions, masteries and re-ask scores
    rng = np.random.default_rng(60)
    rows = [(s, r.question, r.kcs, r.correct, r.timestamp)
            for s in range(5)
            for r in random_sequence(rng, 5, 7, 3 + 2 * s,
                                     max_kcs=3).responses]
    ds = make_dataset(rows, n_questions=5, n_kcs=7)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=2, seed=60)
    model = randomize(GrktModel(hp, 5, 7, random_graphs(rng, 7)), 0.6,
                      seed=61)
    cfg = TrainConfig(hp=hp, disable_stage3=disable_stage3)
    indices = [3, 0, 4, 1]

    def spied_evaluate():
        seen, traced = {}, []
        with monkeypatch.context() as m:
            for name in ("auc", "accuracy"):
                def spy(arg, fn=getattr(metrics, name), name=name):
                    seen.setdefault(name, []).append(np.asarray(arg).tolist())
                    return fn(arg)
                m.setattr(metrics, name, spy)

            def spy_gaucm(records, fn=metrics.gaucm):
                seen["gaucm"] = [np.asarray(getattr(records, field)).tolist()
                                 for field in ("label", "question", "mastery")]
                return fn(records)

            def spy_rule(pre, post, examined, fn=metrics.consistency_ratios):
                traced.append((pre, post, examined))
                return fn(pre, post, examined)

            m.setattr(metrics, "gaucm", spy_gaucm)
            m.setattr(metrics, "consistency_ratios", spy_rule)
            return evaluate(model, ds, indices, cfg), seen, traced

    report, seen, traced = spied_evaluate()
    seqs = [ds.sequences[i] for i in indices]
    with E.no_grad():
        _, cache = model.begin("eval")
        results = [trace_alone(model, seq, cache, seq_index=i,
                               disable_stage3=disable_stage3)
                   for i, seq in zip(indices, seqs)]
        masteries = [step.mastery.value.item() for seq in seqs
                     for step in model.steps([seq.real()], cache,
                                             disable_stage3)]
    pairs = [(float(p), r.correct) for res in results
             for p, r in zip(res.scores, res.responses)]
    for got in (seen["auc"][0], seen["accuracy"][0]):
        assert [a for _, a in got] == [a for _, a in pairs]
        assert close([p for p, _ in got], [p for p, _ in pairs])
    labels, questions, mastery = seen["gaucm"]
    assert labels == [a for _, a in pairs]
    assert questions == [r.question for seq in seqs for r in seq.real()]
    assert close(mastery, masteries)
    # each step is read as the lockstep reaches it, one row per response
    lengths = [len(res.responses) for res in results]
    want_steps = [(results[b], t) for b, t in lockstep_order(lengths)]
    assert [len(pre) for pre, _, _ in traced] \
        == [sum(n > t for n in lengths) for t in range(max(lengths))]
    got_rows = [(pre[j], post[j], examined[j])
                for pre, post, examined in traced for j in range(len(pre))]
    assert len(got_rows) == len(want_steps) == sum(lengths)
    for (pre, post, examined), (want, t) in zip(got_rows, want_steps):
        assert np.flatnonzero(examined).tolist() \
            == sorted(want.responses[t].kcs)
        assert close(pre, want.pre[t]) and close(post, want.post[t])
    reasked = [pair for seq in seqs
               for pair in reask_scores(model, seq,
                                        disable_stage3=disable_stage3)]
    assert [a for _, a in seen["accuracy"][1]] == [a for _, a in reasked]
    assert close([p for p, _ in seen["accuracy"][1]],
                 [p for p, _ in reasked])
    ratios = [trace_ratios([res]) for res in results]
    assert report.consistency == metrics.mean_consistency(
        [ratios[b][t] for b, t in lockstep_order(lengths)]) == 1.0
    assert abs(report.repetition - repetition(Reasker(model), seqs,
                                              disable_stage3)) < 1e-12

    # the same batch run twice gives the same result, bit for bit
    again, seen_again, traced_again = spied_evaluate()
    assert again == report and seen_again == seen
    assert len(traced_again) == len(traced)
    for a, b in zip(traced, traced_again):
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]


def test_evaluate_streams_consistency_over_a_desk_fold(monkeypatch):
    # evaluate reduces each step to its ratios as soon as it is read; the
    # result equals the metric over the full traces of each sequence run
    # alone: exactly when every ratio is 1.0, else within 1e-12 relative
    model, seqs = desk_setup(70, 10)
    rows = [(s, r.question, r.kcs, r.correct, r.timestamp)
            for s, seq in enumerate(seqs) for r in seq.responses]
    ds = make_dataset(rows, n_questions=30, n_kcs=50)
    fold = make_folds(ds, k=5, val_frac=0.1, seed=0)[0]
    cfg = TrainConfig(hp=model.hp)
    with E.no_grad():
        _, cache = model.begin("eval")
        traces = [trace_alone(model, ds.sequences[i], cache)
                  for i in fold.test]
    assert any(not np.isnan(ratio) for ratio in trace_ratios(traces))
    assert evaluate(model, ds, fold.test, cfg).consistency \
        == metrics.mean_consistency(trace_ratios(traces)) == 1.0

    # the model keeps every ratio at 1.0; a stand-in rule with varied ratios
    # and skipped rows shows that every response counts, in the caller's
    # order; trace_ratios applies the same stand-in to each trace
    def stand_in(pre, post, examined):
        return np.where(post[:, 0] > post[:, 1], np.nan, post[:, 2])

    monkeypatch.setattr(metrics, "consistency_ratios", stand_in)
    ratios = [None if np.isnan(ratio) else float(ratio)
              for ratio in trace_ratios(traces)]
    assert None in ratios and len(set(ratios)) > 2
    streamed = evaluate(model, ds, fold.test, cfg).consistency
    want = metrics.mean_consistency(trace_ratios(traces))
    assert want != 1.0 and close(streamed, want)
    assert evaluate(model, ds, fold.test, cfg).consistency == streamed


def per_response_predictions(model, ds, indices, disable_stage3):
    """Validation's (score, label) pairs read one response at a time from
    one lockstep pass, each sequence's in time order."""
    per_seq = [[] for _ in indices]
    with E.no_grad():
        _, cache = model.begin("eval")
        for step in model.steps([ds.sequences[i].real() for i in indices],
                                cache, disable_stage3):
            for b, p, r in zip(step.seqs, step.a_hat.value, step.responses):
                per_seq[b].append((float(p), r.correct))
    return [pair for pairs in per_seq for pair in pairs]


@pytest.mark.parametrize("disable_stage3", [False, True])
def test_validation_reads_the_per_step_arrays(disable_stage3):
    # validation's pairs, AUC and ACC on a desk fold equal, bit for bit,
    # those read one response at a time
    model, seqs = desk_setup(71, 12)
    rows = [(s, r.question, r.kcs, r.correct, r.timestamp)
            for s, seq in enumerate(seqs[:6])
            for r in seq.responses[:40 - 5 * (s % 3)]]
    rows += [(s, r.question, r.kcs, r.correct, r.timestamp)
             for s, seq in enumerate(seqs[6:], 6) for r in seq.responses]
    ds = make_dataset(rows, n_questions=30, n_kcs=50)
    fold = make_folds(ds, k=3, val_frac=0.3, seed=0)[0]
    cfg = TrainConfig(hp=model.hp, disable_stage3=disable_stage3)
    assert len({ds.sequences[i].valid_len for i in fold.val}) > 1
    got = _predictions(model, ds, fold.val, cfg)
    want = per_response_predictions(model, ds, fold.val, disable_stage3)
    assert got.tolist() == [[p, a] for p, a in want]
    assert metrics.auc(got).hex() == metrics.auc(want).hex()
    assert metrics.accuracy(got).hex() == metrics.accuracy(want).hex()


def test_reports_write_their_fields_in_order():
    # report.json and metrics.json as the fields were written out by hand
    train = TrainReport(train_losses=[0.7, 0.5], val_auc=[0.6, 0.65],
                        val_acc=[0.55, 0.6], best_epoch=1, best_val_auc=0.65,
                        test_metrics={"auc": 0.7}, wall_clock=1.5)
    assert json.dumps(train.to_dict(), indent=2) == json.dumps({
        "train_losses": [0.7, 0.5], "val_auc": [0.6, 0.65],
        "val_acc": [0.55, 0.6], "best_epoch": 1, "best_val_auc": 0.65,
        "test_metrics": {"auc": 0.7}, "wall_clock": 1.5}, indent=2)
    assert json.dumps(TrainReport().to_dict()) == json.dumps({
        "train_losses": [], "val_auc": [], "val_acc": [], "best_epoch": -1,
        "best_val_auc": float("-inf"), "test_metrics": None,
        "wall_clock": 0.0})
    scored = metrics.ReasonabilityReport(auc=0.7, acc=0.6, consistency=1.0,
                                         gaucm=0.5, repetition=0.8)
    assert json.dumps(scored.to_dict(), indent=2) == json.dumps({
        "auc": 0.7, "acc": 0.6, "consistency": 1.0, "gaucm": 0.5,
        "repetition": 0.8}, indent=2)


@pytest.mark.parametrize("field,value,message", [
    ("max_epochs", 0, "max_epochs must be at least 1"),
    ("min_cooccurrence", 0, "min_cooccurrence must be at least 1"),
])
def test_train_config_checks_its_settings(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})
    with pytest.raises(ValueError, match="eta must lie in"):
        TrainConfig(hp=HyperParams(eta=1.5))


def test_cross_validate_aggregates():
    ds = tiny_dataset(n_students=10)
    cv = cross_validate(ds, tiny_config(max_epochs=1), k=2, val_frac=0.2)
    assert len(cv.fold_reports) == 2
    for key in ("auc", "acc", "consistency"):
        assert key in cv.mean and key in cv.std
    vals = [r.test_metrics["auc"] for r in cv.fold_reports]
    assert abs(cv.mean["auc"] - np.mean(vals)) < 1e-12


def test_cross_validate_deterministic():
    ds = tiny_dataset(n_students=10)
    a = cross_validate(ds, tiny_config(max_epochs=1), k=2, val_frac=0.2)
    b = cross_validate(ds, tiny_config(max_epochs=1), k=2, val_frac=0.2)
    assert a.mean == b.mean and a.std == b.std


def test_graphs_for_fold_uses_training_split_only():
    # the test split carries the only discordant pairs; leakage-safe mining
    # must not see them
    rows = []
    for s in range(6):
        rows.append((s, 0, (0,), 1, 100))
        rows.append((s, 1, (1,), 1, 200))
    for s in range(6, 9):
        rows.append((s, 0, (0,), 1, 100))
        rows.append((s, 1, (1,), 0, 200))
    ds = preprocess(make_dataset(rows, n_questions=2, n_kcs=2),
                    seq_len=2, min_len=1)
    fold = type("F", (), {})()
    fold.train = tuple(range(6))
    fold.val = ()
    fold.test = tuple(range(6, 9))
    cfg = tiny_config(min_cooccurrence=1)
    leak_free = graphs_for_fold(ds, fold, cfg)
    assert leak_free.edge_count("P") == 0
    cfg_full = tiny_config(min_cooccurrence=1, use_full_graphs=True)
    with_test = graphs_for_fold(ds, fold, cfg_full)
    assert with_test.edge_count("P") == 1


# -- recording lifetime and plan reuse ----------------------------------------------


def test_no_recording_left_after_evaluation():
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    cfg = tiny_config()
    model = GrktModel(cfg.hp, ds.n_questions, ds.n_kcs,
                      graphs_for_fold(ds, fold, cfg))
    evaluate(model, ds, fold.test, cfg)
    assert E._TAPE is None and model.store._bound is None
    reask_scores(model, ds.sequences[fold.test[0]])
    assert E._TAPE is None and model.store._bound is None


def test_no_recording_left_after_divergence(monkeypatch):
    import graphkt.train as train_mod

    class NanMemoryModel(GrktModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.store.value("H0")[...] = np.nan

    monkeypatch.setattr(train_mod, "GrktModel", NanMemoryModel)
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    with pytest.raises(TrainingDiverged) as err:
        train_fold(ds, fold, tiny_config())
    assert (err.value.epoch, err.value.batch) == (0, 0)
    assert E._TAPE is None


@pytest.mark.parametrize("enabled", [True, False])
def test_divergence_restores_the_collector(monkeypatch, collector, enabled):
    import graphkt.train as train_mod

    class NanMemoryModel(GrktModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.store.value("H0")[...] = np.nan

    monkeypatch.setattr(train_mod, "GrktModel", NanMemoryModel)
    collector(enabled)
    ds = tiny_dataset()
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    with pytest.raises(TrainingDiverged):
        train_fold(ds, fold, tiny_config())
    assert gc.isenabled() == enabled


def test_training_steps_and_evaluation_make_no_reference_cycles(collector):
    # what makes pausing the collector during a recording safe: a training
    # step (forward, backward, Adam) and an evaluation pass leave nothing
    # for it to collect
    rng = np.random.default_rng(70)
    rows = [(s, r.question, r.kcs, r.correct, r.timestamp)
            for s in range(6)
            for r in random_sequence(rng, 5, 7, 8, max_kcs=3).responses]
    ds = make_dataset(rows, n_questions=5, n_kcs=7)
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=2, seed=70)
    model = randomize(GrktModel(hp, 5, 7, random_graphs(rng, 7)), 0.6, seed=71)
    cfg = TrainConfig(hp=hp)
    gc.collect()
    collector(False)
    for batch in ([0, 1], [2, 3], [4, 5]):
        _, cache = model.begin("train")
        preds = []
        for idx in batch:
            preds.extend(model.forward_sequence(ds.sequences[idx], cache).preds)
        model.store.zero_grad()
        model.store.backward(bce_loss_node(preds))
        model.store.adam_step(hp.lr)
    assert not gc.isenabled()
    assert gc.collect() == 0
    evaluate(model, ds, list(range(6)), cfg)
    assert gc.collect() == 0


def test_plans_built_once_per_kc_set_and_graph_set(monkeypatch):
    import graphkt.model as model_mod
    from graphkt.gnn import (PlanBatch, gnn_forward_rows, plan_outward,
                             readout_rows)

    builds = []

    def counting(gt, kcs, layers):
        builds.append((gt, tuple(kcs)))
        return plan_outward(gt, kcs, layers)

    # the plans stage 1 reads out along and stage 2 propagates over
    read_out, forward = {}, {}

    def recording_readout(spec, seed, plans, *rest):
        for plan in plans:  # one plan per key of the batch
            read_out[plan.row_sets[0]] = plan
        return readout_rows(spec, seed, plans, *rest)

    def recording_forward(spec, x0, plans, *rest):
        if spec.name in ("gain", "loss"):
            for plan in PlanBatch.of(plans):  # one plan per memory block
                forward[plan.row_sets[0]] = plan
        return gnn_forward_rows(spec, x0, plans, *rest)

    monkeypatch.setattr(model_mod, "plan_outward", counting)
    monkeypatch.setattr(model_mod, "readout_rows", recording_readout)
    monkeypatch.setattr(model_mod, "gnn_forward_rows", recording_forward)

    ds = tiny_dataset(n_kcs=4, seed=2)
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    cfg = tiny_config()
    graphs = KcRelationGraphs(ds.n_kcs, {(0, 1): 0.9}, {(1, 2): 0.8, (2, 3): 0.7})
    model = GrktModel(cfg.hp, ds.n_questions, ds.n_kcs, graphs)
    for _ in range(2):
        _, cache = model.begin("train")
        preds = []
        for idx in fold.train:
            preds.extend(model.forward_sequence(ds.sequences[idx], cache).preds)
        model.store.zero_grad()
        model.store.backward(bce_loss_node(preds))
        model.store.adam_step(cfg.hp.lr)
    evaluate(model, ds, fold.train, cfg)
    assert builds and len(set(builds)) == len(builds)
    # stage 1 and stage 2 of one KC set share one Plan object
    assert read_out and read_out.keys() == forward.keys()
    for kcs, plan in read_out.items():
        assert plan is forward[kcs] is model.plan(kcs)

    other = GrktModel(cfg.hp, ds.n_questions, ds.n_kcs,
                      KcRelationGraphs.empty(ds.n_kcs))
    n_before = len(builds)
    evaluate(other, ds, fold.train, cfg)
    assert len(builds) > n_before
    assert len(set(builds)) == len(builds)
    for gt, kcs in builds:
        owner = model if gt is model.gt else other
        assert gt is owner.gt
        fresh = plan_outward(owner.gt, kcs, cfg.hp.layers)
        assert owner.plan(kcs).row_sets == fresh.row_sets
    # the empty graph set never widens a plan past its seeds
    assert all(other.plan(k).row_sets == (k,) * (cfg.hp.layers + 1)
               for gt, k in builds if gt is other.gt)