"""Prediction and reasonability metrics.

AUC and ACC score correctness prediction. Three further metrics check that a
traced mastery evolution behaves the way teachers expect:

- consistency: when a response makes the examined KC's mastery drop, no other
  KC's mastery may rise across the same update;
- gaucm: per-question AUC of mastery against correctness, weighted by how
  often the question was answered (monotonicity of mastery);
- repetition: immediately re-asking an answered question should reproduce the
  observed outcome; `train.evaluate` scores the model's re-ask probes with
  `accuracy`.

Each function is paired with a brute-force oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


class UndefinedMetric(ValueError):
    """The metric has no value on this input (e.g. single-class AUC)."""


@dataclass
class EvalRecord:
    score: float
    label: int
    question: int
    mastery: float


@dataclass
class ReasonabilityReport:
    auc: float
    acc: float
    consistency: float
    gaucm: float
    repetition: float

    def to_dict(self) -> dict:
        return asdict(self)


def auc(pairs) -> float:
    """Rank-based AUC; tied scores get half credit.

    Raises UndefinedMetric when only one class is present.
    """
    scores = np.asarray([p[0] for p in pairs], dtype=np.float64)
    labels = np.asarray([p[1] for p in pairs], dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("AUC needs both classes")

    # each score's rank, tied scores sharing their block's average rank
    _, block, counts = np.unique(scores, return_inverse=True,
                                 return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[block]
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(pairs) -> float:
    """Fraction of responses where (score >= 0.5) matches the label."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("accuracy of an empty set is undefined")
    hits = sum(1 for score, label in pairs
               if (1 if score >= 0.5 else 0) == label)
    return hits / len(pairs)


def step_consistency(step) -> float | None:
    """Share of all KCs whose mastery did not increase across one update.

    Only a step where some examined KC's mastery strictly declines
    qualifies; any other step has no ratio (None).
    """
    pre = np.asarray(step.pre, dtype=np.float64)
    post = np.asarray(step.post, dtype=np.float64)
    if not any(pre[c] > post[c] for c in step.examined):
        return None
    return int((pre >= post).sum()) / pre.size


def mean_consistency(ratios) -> float:
    """Mean of the qualifying ratios; 1.0 (vacuously) when there are none."""
    kept = [r for r in ratios if r is not None]
    return sum(kept) / len(kept) if kept else 1.0


def consistency(traces) -> float:
    """Mean fraction of KCs moving consistently at qualifying updates, over
    mastery traces or their steps."""
    steps = (s for item in traces for s in getattr(item, "steps", [item]))
    return mean_consistency(map(step_consistency, steps))


def gaucm(records) -> float:
    """Answer-count-weighted mean of per-question mastery AUCs.

    Questions whose answers are all one class have no AUC and are excluded
    from both the numerator and the weight total. One lexsort by (question,
    mastery) ranks every question's answers at once, tied masteries sharing
    their block's average rank, as `auc` ranks them.
    """
    question = np.fromiter((r.question for r in records), np.int64)
    mastery = np.fromiter((r.mastery for r in records), np.float64)
    label = np.fromiter((r.label for r in records), np.int64)
    order = np.lexsort((mastery, question))
    question, mastery, label = question[order], mastery[order], label[order]
    n = len(order)
    first_of_question = np.r_[True, question[1:] != question[:-1]]
    first_of_block = first_of_question \
        | np.r_[True, mastery[1:] != mastery[:-1]]
    qid = np.cumsum(first_of_question) - 1
    # 1-based rank within the question; a tie block's average rank
    rank = np.arange(1, n + 1) - np.flatnonzero(first_of_question)[qid]
    starts = np.flatnonzero(first_of_block)
    ends = np.r_[starts[1:], n] - 1
    ranks = np.repeat((rank[starts] + rank[ends]) / 2.0, ends - starts + 1)

    n_pos = np.bincount(qid, weights=label)
    n_all = np.bincount(qid).astype(np.float64)
    n_neg = n_all - n_pos
    eligible = (n_pos > 0) & (n_neg > 0)
    if not eligible.any():
        raise UndefinedMetric("no question has both outcome classes")
    pos_rank_sum = np.bincount(qid, weights=ranks * label)
    n_pos, n_neg, n_all = n_pos[eligible], n_neg[eligible], n_all[eligible]
    per_question = (pos_rank_sum[eligible] - n_pos * (n_pos + 1) / 2.0) \
        / (n_pos * n_neg)
    return float((n_all * per_question).sum() / n_all.sum())
