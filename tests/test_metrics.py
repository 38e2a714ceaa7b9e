"""Metrics against brute-force oracles on random inputs."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphkt.metrics import (EvalRecord, UndefinedMetric, accuracy, auc,
                             consistency_ratios, gaucm, mean_consistency)
from tests.oracles import gaucm_per_question, repetition


# -- brute-force oracles -------------------------------------------------------


def auc_oracle(pairs):
    """All-pairs comparison: ties between classes credit one half."""
    pos = [s for s, y in pairs if y == 1]
    neg = [s for s, y in pairs if y == 0]
    if not pos or not neg:
        raise UndefinedMetric("one class")
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def accuracy_oracle(pairs, threshold=0.5):
    hits = 0
    for s, y in pairs:
        pred = 1 if s >= threshold else 0
        hits += int(pred == y)
    return hits / len(pairs)


def consistency_oracle(steps):
    """Direct per-step loop over the qualifying-and-count rule."""
    ratios = []
    for step in steps:
        declined = False
        for c in step.examined:
            if step.pre[c] > step.post[c]:
                declined = True
        if not declined:
            continue
        n_ok = 0
        for c in range(len(step.pre)):
            if step.pre[c] >= step.post[c]:
                n_ok += 1
        ratios.append(n_ok / len(step.pre))
    return sum(ratios) / len(ratios) if ratios else 1.0


def gaucm_oracle(records):
    per_question = {}
    for r in records:
        per_question.setdefault(r.question, []).append((r.mastery, r.label))
    num = den = 0.0
    for q, pairs in per_question.items():
        labels = {y for _, y in pairs}
        if labels != {0, 1}:
            continue
        num += len(pairs) * auc_oracle(pairs)
        den += len(pairs)
    if den == 0:
        raise UndefinedMetric("no eligible question")
    return num / den


# -- auc -----------------------------------------------------------------------


def test_auc_perfect_separation():
    assert auc([(0.9, 1), (0.1, 0)]) == 1.0


def test_auc_all_ties():
    assert auc([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(UndefinedMetric):
        auc([(0.3, 1), (0.6, 1)])


@pytest.mark.parametrize("seed", range(12))
def test_auc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 60))
    scores = rng.choice([0.1, 0.25, 0.5, 0.5, 0.7, 0.9], size=n)
    labels = rng.integers(0, 2, size=n)
    if len(set(labels)) < 2:
        labels[0], labels[1] = 0, 1
    pairs = list(zip(scores.tolist(), labels.tolist()))
    assert abs(auc(pairs) - auc_oracle(pairs)) < 1e-12


# -- accuracy --------------------------------------------------------------------


def test_accuracy_perfect():
    assert accuracy([(0.9, 1), (0.2, 0)]) == 1.0


def test_accuracy_boundary_counts_as_correct_prediction():
    assert accuracy([(0.5, 1)]) == 1.0
    assert accuracy([(0.5, 0)]) == 0.0


def test_accuracy_empty_errors():
    with pytest.raises(ValueError):
        accuracy([])


@pytest.mark.parametrize("seed", range(8))
def test_accuracy_matches_count_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    pairs = [(float(s), int(y)) for s, y in
             zip(rng.random(40), rng.integers(0, 2, size=40))]
    assert accuracy(pairs) == accuracy_oracle(pairs)


# -- consistency ------------------------------------------------------------------


class Step(NamedTuple):
    """One update as `consistency_oracle` reads it: the examined KCs and
    the per-KC mastery around it."""
    examined: tuple[int, ...]
    pre: np.ndarray
    post: np.ndarray


def make_step(examined, pre, post):
    return Step(tuple(examined), np.array(pre, dtype=float),
                np.array(post, dtype=float))


def stack_steps(steps):
    """Steps as the (n, C) pre, post and examined-mask arrays that
    `consistency_ratios` reads."""
    pre, post = (np.array([getattr(s, f) for s in steps]) for f in
                 ("pre", "post"))
    examined = np.zeros(pre.shape, dtype=bool)
    for b, step in enumerate(steps):
        examined[b, list(step.examined)] = True
    return pre, post, examined


def consistency(steps):
    """`mean_consistency` of the steps' `consistency_ratios`."""
    return mean_consistency(consistency_ratios(*stack_steps(steps)))


def test_consistency_all_consistent():
    steps = [
        make_step([0], [1.0, 0.8, 0.3], [0.7, 0.8, 0.2]),
        make_step([1], [0.5, 0.9, 0.4], [0.5, 0.6, 0.4]),
    ]
    assert consistency(steps) == 1.0


def test_consistency_hand_value_five_sixths():
    # two qualifying steps over 3 KCs; one unrelated KC rises at one step:
    # ratios 2/3 and 1 average to 5/6
    steps = [
        make_step([0], [1.0, 0.5, 0.3], [0.8, 0.9, 0.3]),
        make_step([0], [0.8, 0.9, 0.3], [0.6, 0.8, 0.3]),
    ]
    assert abs(consistency(steps) - 5.0 / 6.0) < 1e-15


def test_consistency_vacuous_is_one():
    steps = [make_step([0], [0.1, 0.2], [0.5, 0.6])]  # examined KC rises
    assert consistency(steps) == 1.0
    assert mean_consistency(consistency_ratios(
        np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2), bool))) == 1.0


def test_consistency_requires_strict_decline_to_qualify():
    # examined KC unchanged while another KC rises: the step must not count
    steps = [make_step([0], [0.5, 0.2], [0.5, 0.9])]
    assert consistency(steps) == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_consistency_matches_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    steps = []
    for _ in range(int(rng.integers(5, 40))):
        n = 6
        pre = rng.normal(size=n)
        post = pre + rng.normal(scale=0.5, size=n)
        examined = tuple(sorted(
            rng.choice(n, size=int(rng.integers(1, 3)), replace=False).tolist()))
        steps.append(make_step(examined, pre, post))
    assert consistency(steps) == consistency_oracle(steps)


@st.composite
def step_blocks(draw):
    """(pre, post, examined) of 1-6 blocks over 1-6 KCs; masteries on a
    coarse grid so that pre == post ties are common."""
    n, n_c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    grid = st.lists(st.lists(st.integers(0, 3), min_size=n_c, max_size=n_c),
                    min_size=n, max_size=n)
    pre, post = (np.array(draw(grid), dtype=float) / 4 for _ in range(2))
    examined = np.zeros((n, n_c), dtype=bool)
    for b in range(n):
        examined[b, sorted(draw(st.sets(st.integers(0, n_c - 1),
                                        min_size=1)))] = True
    return pre, post, examined


def as_steps(pre, post, examined):
    return [make_step(np.flatnonzero(m), p, q)
            for p, q, m in zip(pre, post, examined)]


@given(step_blocks())
@example((np.array([[1.0, 0.5, 0.3]]), np.array([[0.8, 0.9, 0.3]]),
          np.array([[True, False, False]])))  # qualifies, ratio 2/3
@example((np.array([[0.5, 0.2], [0.4, 0.4]]), np.array([[0.5, 0.9],
                                                         [0.4, 0.4]]),
          np.array([[True, False], [False, True]])))  # ties only: no ratio
@settings(max_examples=40, deadline=None, derandomize=True)
def test_consistency_ratios_match_oracle(blocks):
    pre, post, examined = blocks
    ratios = consistency_ratios(pre, post, examined)
    steps = as_steps(pre, post, examined)
    for ratio, step in zip(ratios, steps):
        qualifies = any(step.pre[c] > step.post[c] for c in step.examined)
        assert np.isnan(ratio) == (not qualifies)
        if qualifies:
            assert ratio == consistency_oracle([step])
    assert mean_consistency(ratios) == consistency(steps) \
        == consistency_oracle(steps)


# -- gaucm ------------------------------------------------------------------------


def rec(score, label, q, mastery):
    return EvalRecord(score=score, label=label, question=q, mastery=mastery)


def test_gaucm_two_answer_question():
    records = [rec(0.9, 1, 7, 0.7), rec(0.2, 0, 7, 0.3)]
    assert gaucm(records) == 1.0


def test_gaucm_excludes_single_class_questions():
    records = [
        rec(0.9, 1, 1, 0.9), rec(0.8, 1, 1, 0.2),   # all correct: excluded
        rec(0.9, 1, 2, 0.8), rec(0.4, 0, 2, 0.1),
    ]
    assert gaucm(records) == 1.0


def test_gaucm_undefined_when_nothing_eligible():
    with pytest.raises(UndefinedMetric):
        gaucm([rec(0.9, 1, 1, 0.5), rec(0.8, 1, 1, 0.6)])


def test_gaucm_reads_a_generator_as_the_list():
    records = [rec(0.9, 1, 1, 0.9), rec(0.8, 0, 1, 0.2),
               rec(0.9, 1, 2, 0.8), rec(0.4, 0, 2, 0.1)]
    assert gaucm(r for r in records) == gaucm(records) == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_gaucm_matches_weighted_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    records = []
    for _ in range(int(rng.integers(20, 120))):
        records.append(rec(float(rng.random()), int(rng.integers(0, 2)),
                           int(rng.integers(0, 6)),
                           float(rng.choice([0.1, 0.4, 0.4, 0.8]))))
    try:
        want = gaucm_oracle(records)
    except UndefinedMetric:
        with pytest.raises(UndefinedMetric):
            gaucm(records)
        return
    assert abs(gaucm(records) - want) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_vectorized_gaucm_matches_the_per_question_loop(seed):
    # many ties (masteries on a coarse grid), single-class questions and
    # question ids with gaps
    rng = np.random.default_rng(320 + seed)
    records = [rec(0.5, int(rng.random() < 0.6),
                   int(rng.choice([0, 3, 4, 9, 40])),
                   float(rng.integers(0, 5 + 20 * (seed % 2))) / 7.0)
               for _ in range(int(rng.integers(1, 400)))]
    records += [rec(0.5, 1, 77, 0.3)] * 3  # one class only: left out
    try:
        want = gaucm_per_question(records)
    except UndefinedMetric:
        with pytest.raises(UndefinedMetric):
            gaucm(records)
        return
    assert abs(gaucm(records) - want) <= 1e-12 * abs(want)


# -- repetition ---------------------------------------------------------------------


class StubModel:
    """Re-ask probe stub driven by a fixed score function."""

    def __init__(self, fn):
        self.fn = fn

    def reask_scores(self, seq, disable_stage3=False):
        return [(self.fn(r), r.correct) for r in seq.real()]


class FakeResp:
    def __init__(self, correct):
        self.correct = correct


class FakeSeq:
    def __init__(self, labels):
        self.labels = labels

    def real(self):
        return [FakeResp(a) for a in self.labels]


def test_repetition_memorizing_model_is_perfect():
    model = StubModel(lambda r: 1.0 if r.correct else 0.0)
    assert repetition(model, [FakeSeq([1, 0, 1, 1])]) == 1.0


def test_repetition_constant_half_scores_positive_rate():
    # a constant 0.5 predictor thresholds to "correct" everywhere
    model = StubModel(lambda r: 0.5)
    seqs = [FakeSeq([1, 0, 1, 0, 1, 1])]
    want = sum(seqs[0].labels) / len(seqs[0].labels)
    assert repetition(model, seqs) == want


@pytest.mark.parametrize("seed", range(5))
def test_repetition_matches_direct_count(seed):
    rng = np.random.default_rng(400 + seed)
    labels = rng.integers(0, 2, size=30).tolist()
    scores = rng.random(30).tolist()
    lookup = {}
    seq = FakeSeq(labels)
    reals = seq.real()
    for r, s in zip(reals, scores):
        lookup[id(r)] = s

    class Fixed:
        def reask_scores(self, s, disable_stage3=False):
            return list(zip(scores, labels))

    want = sum(1 for s, y in zip(scores, labels)
               if (1 if s >= 0.5 else 0) == y) / len(labels)
    assert repetition(Fixed(), [seq]) == want


# -- permutation invariance ------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_metrics_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pairs = [(float(rng.random()), int(rng.integers(0, 2))) for _ in range(30)]
    if len({y for _, y in pairs}) < 2:
        pairs[0] = (pairs[0][0], 0)
        pairs[1] = (pairs[1][0], 1)
    perm = rng.permutation(len(pairs))
    shuffled = [pairs[i] for i in perm]
    assert auc(pairs) == auc(shuffled)
    assert accuracy(pairs) == accuracy(shuffled)
    records = [rec(s, y, int(rng.integers(4)), float(rng.random()))
               for s, y in pairs]
    shuffled_records = [records[i] for i in perm]
    try:
        assert gaucm(records) == gaucm(shuffled_records)
    except UndefinedMetric:
        with pytest.raises(UndefinedMetric):
            gaucm(shuffled_records)
