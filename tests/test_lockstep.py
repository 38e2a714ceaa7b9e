"""The lockstep recurrence against each sequence run alone.

`GrktModel.steps` runs B sequences as one op chain per step, on stacked
memory blocks padded to common widths. Every case here checks, against
each sequence traced alone (`oracles.trace_alone`): labels, order, examined
KCs, steps and timestamps exactly; predictions, masteries and traced
masteries within 1e-12 relative; the padding rows of every propagation
exactly zero; memory rows outside each sequence's hop support bitwise
unchanged by strengthening; and consistency exactly 1.0.
"""

import numpy as np
import pytest

import graphkt.model
from graphkt import engine as E
from graphkt.data import Response, ResponseSequence, make_folds
from graphkt.gnn import PlanBatch, gnn_forward_rows, readout_rows
from graphkt.metrics import mean_consistency
from graphkt.model import GrktModel, HyperParams, StepArrays
from graphkt.train import TrainConfig, bce_loss_node, train_fold
from tests.conftest import make_dataset, random_graphs, random_sequence
from tests.oracles import hop_support, trace_alone, trace_ratios
from tests.test_gnn import star_model
from tests.test_model import randomize


def close(got, want, rel=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want).max(initial=0.0) \
        <= rel * np.abs(want).max(initial=0.0)


def outside_positions(batch, i, width):
    """Rows of block i of a batch's last layer that are not plan i's."""
    outside = np.ones(width, dtype=bool)
    outside[batch.positions(i)] = False
    return outside


def spy_padding(monkeypatch, seen):
    """Check every propagation for exactly zero padding: the rows of its
    input blocks past each seed set, and the rows of its output blocks that
    are not the plan's (padding, or outside its support in a whole layer).
    `seen` collects the batch sizes and whether a batch mixed whole and
    gathered layers."""

    def forward(spec, x0, plans, *rest):
        out = gnn_forward_rows(spec, x0, plans, *rest)
        batch = PlanBatch.of(plans)
        seeds = x0.value.reshape(len(batch), batch.widths[0], -1)
        blocks = out.value.reshape(len(batch), batch.widths[-1], -1)
        for i, n in enumerate(batch.sizes[:, 0]):
            assert not seeds[i, n:].any()
            if spec.output_activation != "softplus":  # softplus(0) > 0
                assert not blocks[i, outside_positions(
                    batch, i, batch.widths[-1])].any()
        seen.append((len(batch), len(set(batch.whole[1:])) > 1))
        return out

    def readout(spec, seed, plans, *rest):
        coef = readout_rows(spec, seed, plans, *rest)
        batch = PlanBatch.of(plans)
        for i in range(len(batch)):
            assert not coef.value[i, outside_positions(
                batch, i, batch.widths[-1])].any()
        return coef

    monkeypatch.setattr(graphkt.model, "gnn_forward_rows", forward)
    monkeypatch.setattr(graphkt.model, "readout_rows", readout)


def spy_gate(monkeypatch, opened):
    """Record, per stage-3 call, which memory blocks gained progress."""
    stage3 = GrktModel.stage3_learn_forget

    def spy(self, H, *args):
        counters = args[-2]
        before = counters.copy()
        out = stage3(self, H, *args)
        opened.append((counters != before).reshape(len(args[0]), -1)
                      .any(axis=1))
        return out

    monkeypatch.setattr(GrktModel, "stage3_learn_forget", spy)


def run_alone(model, seqs, disable_stage3):
    with E.no_grad():
        _, cache = model.begin("eval")
        return [trace_alone(model, ResponseSequence(0, s, len(s)), cache,
                            disable_stage3=disable_stage3)
                for s in seqs]


def run_lockstep(model, seqs, disable_stage3):
    """Per sequence, its (step, response, score, pre, post, consistency
    ratio, mastery) rows from one lockstep run; checks strengthening's
    locality on every memory block."""
    n_c, layers = model.n_kcs, model.hp.layers
    per_seq = [[] for _ in seqs]
    with E.no_grad():
        _, cache = model.begin("eval")
        for t, step in enumerate(model.steps(seqs, cache, disable_stage3)):
            n = len(step.responses)
            assert step.seqs == sorted(step.seqs, key=lambda b: -len(seqs[b]))
            before = step.before.value.reshape(n, n_c, -1)
            after = step.after.value.reshape(n, n_c, -1)
            read = StepArrays(model, step, cache)
            for j, (b, r) in enumerate(zip(step.seqs, step.responses)):
                assert r is seqs[b][t]
                outside = sorted(set(range(n_c))
                                 - hop_support(model.graphs, r.kcs, layers))
                assert before[j, outside].tobytes() \
                    == after[j, outside].tobytes()
                per_seq[b].append((t, r, read.scores[j], read.pre[j],
                                   read.post[j], read.consistency[j],
                                   step.mastery.value[j]))
    return per_seq


def check_lockstep(model, seqs, disable_stage3, monkeypatch):
    alone = run_alone(model, seqs, disable_stage3)
    seen, opened = [], []
    with monkeypatch.context() as m:
        spy_padding(m, seen)
        spy_gate(m, opened)
        lock = run_lockstep(model, seqs, disable_stage3)
    for res, got in zip(alone, lock):
        want = res.responses
        assert len(got) == len(want) == len(res.scores)
        for i, ((t, r, score, pre, post, _, mastery), ref) in \
                enumerate(zip(got, want)):
            assert (r.kcs, t, r.timestamp, r.correct) \
                == (ref.kcs, i, ref.timestamp, ref.correct)
            assert close(score, res.scores[i])
            assert close(pre, res.pre[i]) and close(post, res.post[i])
            assert np.isfinite(mastery)
    ratios = [ratio for items in lock for *_, ratio, _ in items]
    assert mean_consistency(ratios) == 1.0
    assert mean_consistency(trace_ratios(alone)) == 1.0
    return seen, opened


def model_on(graphs, n_questions=6, layers=2, seed=0, scale=0.7):
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=layers, seed=seed)
    return randomize(GrktModel(hp, n_questions, graphs.n_kcs, graphs), scale,
                     seed=seed + 1)


def sequences(rng, lengths, n_questions, n_kcs, max_kcs=3):
    return [random_sequence(rng, n_questions, n_kcs, n, student=s,
                            max_kcs=max_kcs).responses
            for s, n in enumerate(lengths)]


@pytest.mark.parametrize("disable_stage3", [False, True])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_uneven_lengths_match_each_sequence_alone(layers, disable_stage3,
                                                  monkeypatch):
    rng = np.random.default_rng(400 + layers)
    model = model_on(random_graphs(rng, 9), layers=layers, seed=layers)
    seqs = sequences(rng, [4, 1, 9, 9, 2, 6], 6, 9)
    seen, _ = check_lockstep(model, seqs, disable_stage3, monkeypatch)
    assert max(k for k, _ in seen) > 1  # padded batches ran


def test_a_batch_of_one_and_empty_sequences(monkeypatch):
    rng = np.random.default_rng(410)
    model = model_on(random_graphs(rng, 7))
    check_lockstep(model, sequences(rng, [1], 6, 7), False, monkeypatch)
    seq = sequences(rng, [3], 6, 7)[0]
    with E.no_grad():
        _, cache = model.begin("eval")
        assert list(model.steps([], cache)) == []
        steps = list(model.steps([[], seq], cache))
    assert [s.seqs for s in steps] == [[1]] * 3
    assert [s.responses[0] for s in steps] == seq


def test_keys_shared_across_sequences(monkeypatch):
    # two questions over two KC sets: every step's keys repeat across the
    # batch, and one sequence is another's copy
    rng = np.random.default_rng(420)
    model = model_on(random_graphs(rng, 8), n_questions=2)
    kc_sets = [(0, 3), (5,)]
    seqs = []
    for s, n in enumerate([7, 7, 5, 3]):
        t = np.cumsum(rng.integers(30, 5000, size=n))
        seqs.append([Response(int(q), kc_sets[int(k)], int(a), int(ts))
                     for q, k, a, ts in zip(rng.integers(0, 2, n),
                                            rng.integers(0, 2, n),
                                            rng.integers(0, 2, n), t)])
    seqs.append(list(seqs[0]))
    check_lockstep(model, seqs, False, monkeypatch)
    with E.no_grad():
        _, cache = model.begin("eval")
        for _ in model.steps(seqs, cache):
            pass
    assert len(cache._keys) == 4  # each key built once, in one table
    assert len({id(t) for t, _ in cache._keys.values()}) == 1


def test_the_gate_opens_in_some_blocks_only(monkeypatch):
    rng = np.random.default_rng(430)
    model = model_on(random_graphs(rng, 9), seed=43, scale=1.0)
    # a bias toward studying: the gate opens for some candidates
    model.store.value("mlp.dcs.b2")[...] = [[0.0, 0.3]]
    seqs = sequences(rng, [8, 8, 7, 6, 8, 5], 6, 9)
    _, opened = check_lockstep(model, seqs, False, monkeypatch)
    assert any(len(o) > 1 and o.any() and not o.all() for o in opened)


@pytest.mark.parametrize("layers", [2, 3])
def test_a_batch_mixing_whole_and_gathered_layers(layers, monkeypatch):
    # on the star, KC 0 reaches every KC in one hop and the others in two:
    # a batch of other seeds gathers padded blocks at layer 1 and takes the
    # whole adjacency after it; with (0,) in the batch every layer is whole
    model = star_model(layers)
    rng = np.random.default_rng(440 + layers)
    kc_sets = [(0,), (1,), (4,), (1, 2), (3, 5), (2,)]
    seqs = []
    for n in (6, 6, 4, 3):
        picks = rng.integers(0, len(kc_sets), n)
        t = np.cumsum(rng.integers(30, 3000, size=n))
        seqs.append([Response(int(rng.integers(3)), kc_sets[int(i)],
                              int(rng.integers(2)), int(ts))
                     for i, ts in zip(picks, t)])
    seqs.append([Response(1, (1,), 1, 0), Response(2, (4,), 0, 60),
                 Response(0, (3, 5), 1, 120)])
    seen, _ = check_lockstep(model, seqs, False, monkeypatch)
    assert any(k > 1 and mixed for k, mixed in seen)


def test_lockstep_training_gradients_match_the_per_sequence_path():
    rng = np.random.default_rng(450)
    model = model_on(random_graphs(rng, 9), seed=45, scale=0.8)
    model.store.value("mlp.dcs.b2")[...] = [[0.0, 0.3]]  # some progress
    seqs = sequences(rng, [6, 2, 9, 5], 6, 9)

    def grads(lockstep):
        model.store.zero_grad()
        _, cache = model.begin("train")
        if lockstep:
            preds = [(step.a_hat,
                      np.array([r.correct for r in step.responses]))
                     for step in model.steps(seqs, cache)]
        else:
            preds = [p for s in seqs for p in model.forward_sequence(
                ResponseSequence(0, s, len(s)), cache).preds]
        model.store.backward(bce_loss_node(preds))
        return {n: model.store[n].grad.copy() for n in model.store.names()}

    alone, lock = grads(False), grads(True)
    assert any(lock[n].any() for n in lock if n.startswith("mlp.prg."))
    for name in alone:
        assert close(lock[name], alone[name]), name
    assert all(np.array_equal(lock[n], g) for n, g in grads(True).items())


def test_train_fold_runs_each_batch_in_lockstep(monkeypatch):
    rng = np.random.default_rng(460)
    rows = [(s, r.question, r.kcs, r.correct, r.timestamp)
            for s in range(9)
            for r in random_sequence(rng, 5, 7, 4 + s, max_kcs=2).responses]
    ds = make_dataset(rows, n_questions=5, n_kcs=7)
    fold = make_folds(ds, k=3, val_frac=0.2, seed=0)[0]
    cfg = TrainConfig(hp=HyperParams(d_e=4, d_k=4, d_h=6, layers=1,
                                     batch_size=3, seed=4), max_epochs=2)
    batches = []
    steps = GrktModel.steps

    def spy(self, seqs, *args):
        batches.append(len(seqs))
        return steps(self, seqs, *args)

    monkeypatch.setattr(GrktModel, "steps", spy)
    train_fold(ds, fold, cfg, compute_test_metrics=False)
    n_train = len(fold.train)
    # training batches of batch_size sequences, then one lockstep pass
    # over the validation fold per epoch
    per_epoch = [min(3, n_train - lo) for lo in range(0, n_train, 3)] \
        + [len(fold.val)]
    assert batches == per_epoch * 2
