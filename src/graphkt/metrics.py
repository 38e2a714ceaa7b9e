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
    """Rank-based AUC of a list of (score, label) pairs or an (n, 2) array;
    tied scores get half credit.

    Raises UndefinedMetric when only one class is present.
    """
    scores, labels = np.asarray(pairs, dtype=np.float64).reshape(-1, 2).T
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
    """Fraction of responses where (score >= 0.5) matches the label, over a
    list of (score, label) pairs or an (n, 2) array."""
    scores, labels = np.asarray(pairs, dtype=np.float64).reshape(-1, 2).T
    if not scores.size:
        raise ValueError("accuracy of an empty set is undefined")
    return int(((scores >= 0.5) == labels).sum()) / scores.size


def consistency_ratios(pre, post, examined) -> np.ndarray:
    """Per row of (n, C) masteries around an update, the share of KCs whose
    mastery did not increase; NaN unless an `examined` KC strictly fell."""
    qualifies = (examined & (pre > post)).any(axis=1)
    return np.where(qualifies, (pre >= post).sum(axis=1) / pre.shape[1],
                    np.nan)


def mean_consistency(ratios) -> float:
    """Mean of the qualifying ratios, summed in order; a step with no ratio
    is NaN. 1.0 (vacuously) when there are none."""
    ratios = np.asarray(ratios, dtype=np.float64)
    kept = ratios[~np.isnan(ratios)].tolist()
    return sum(kept) / len(kept) if kept else 1.0


def gaucm(records) -> float:
    """Answer-count-weighted mean of per-question mastery AUCs.

    Questions whose answers are all one class have no AUC and are excluded
    from both the numerator and the weight total. One lexsort by (question,
    mastery) ranks every question's answers at once, tied masteries sharing
    their block's average rank, as `auc` ranks them. `records` may also be
    one EvalRecord whose fields are arrays, one entry per response.
    """
    if not isinstance(records, EvalRecord):
        records = list(records)  # each field below reads it once
    question, mastery, label = (
        np.asarray(getattr(records, name), dtype)
        if isinstance(records, EvalRecord)
        else np.fromiter((getattr(r, name) for r in records), dtype)
        for name, dtype in (("question", np.int64), ("mastery", np.float64),
                            ("label", np.int64)))
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
