"""Concept relation graphs mined from response statistics or expert labels.

Three directed graphs over the KC set: P (prerequisite), S (its exact edge
reversal) and R (similarity, symmetric). Scores come from counting ordered
same-student response pairs (earlier response, later response): similarity is
the fraction of pairs answered with equal correctness, prerequisite the
fraction of discordant pairs where the earlier KC was the correct one. Pairs
below a co-occurrence floor are ignored.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset

GRAPH_FORMAT = "graphkt-graphs"
GRAPH_VERSION = 1

GRAPH_KINDS = ("P", "S", "R")


@dataclass(frozen=True)
class GraphBuildConfig:
    eta: float
    min_cooccurrence: int = 10

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if self.min_cooccurrence < 1:
            raise ValueError("min_cooccurrence must be at least 1")


def _check_edge(i: int, j: int, n_kcs) -> None:
    if i == j:
        raise ValueError(f"self loop on KC {i}")
    if not (0 <= i < n_kcs and 0 <= j < n_kcs):
        raise ValueError(f"edge ({i}, {j}) outside KC range")


class KcRelationGraphs:
    """Adjacency lists for the P/S/R graphs plus the scores behind each edge.

    `r_scores` holds each similarity edge once, keyed (smaller KC, larger KC);
    the R adjacency lists it in both directions.
    """

    def __init__(self, n_kcs: int,
                 p_edges: dict[tuple[int, int], float],
                 r_edges: dict[tuple[int, int], float]):
        self.n_kcs = n_kcs
        for (i, j) in list(p_edges) + list(r_edges):
            _check_edge(i, j, n_kcs)
        self.p_scores = dict(p_edges)
        self.r_scores = {(min(e), max(e)): s for e, s in r_edges.items()}
        self._adj = {
            "P": self._build_adj(self.p_scores),
            "S": self._build_adj([(j, i) for i, j in self.p_scores]),
            "R": self._build_adj([*self.r_scores,
                                  *((j, i) for i, j in self.r_scores)]),
        }

    def _build_adj(self, pairs) -> list[tuple[int, ...]]:
        adj: list[set[int]] = [set() for _ in range(self.n_kcs)]
        for (i, j) in pairs:
            adj[i].add(j)
        return [tuple(sorted(s)) for s in adj]

    def neighbors(self, which: str, c: int) -> tuple[int, ...]:
        if which not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {which!r}")
        return self._adj[which][c]

    def edge_count(self, which: str) -> int:
        return sum(len(nbrs) for nbrs in self._adj[which])

    def sparsity(self) -> dict[str, float]:
        possible = self.n_kcs * (self.n_kcs - 1)
        if possible == 0:
            return {k: 0.0 for k in GRAPH_KINDS}
        return {k: self.edge_count(k) / possible for k in GRAPH_KINDS}

    def drop(self, *, similarity: bool = False,
             prerequisite: bool = False) -> "KcRelationGraphs":
        """Return a copy with relation kinds removed (ablation support)."""
        return KcRelationGraphs(
            self.n_kcs,
            {} if prerequisite else dict(self.p_scores),
            {} if similarity else dict(self.r_scores),
        )

    @classmethod
    def empty(cls, n_kcs: int) -> "KcRelationGraphs":
        return cls(n_kcs, {}, {})


@dataclass
class PairCounts:
    """Ordered-pair statistics (earlier KC as row, later KC as column)."""

    co: np.ndarray        # co-occurrence pairs
    equal: np.ndarray     # pairs with equal correctness
    discord: np.ndarray   # pairs with differing correctness
    first_correct: np.ndarray  # discordant pairs with the earlier one correct


def pair_counts(ds: Dataset, sequence_indices=None) -> PairCounts:
    """Count ordered same-student response pairs across the full history.

    Works on raw or preprocessed datasets; padded responses are excluded and
    a student's subsequences are concatenated back in order, so the counts
    refer to the pre-split history.
    """
    n = ds.n_kcs
    co = np.zeros((n, n))
    equal = np.zeros((n, n))
    first_correct = np.zeros((n, n))

    if sequence_indices is None:
        sequence_indices = range(len(ds.sequences))
    by_student: dict[int, list] = {}
    for idx in sequence_indices:
        by_student.setdefault(ds.sequences[idx].student, []).append(idx)

    for student in sorted(by_student):
        prior_right = np.zeros(n)
        prior_wrong = np.zeros(n)
        for idx in sorted(by_student[student]):
            for r in ds.sequences[idx].real():
                prior_any = prior_right + prior_wrong
                for cj in r.kcs:
                    co[:, cj] += prior_any
                    equal[:, cj] += prior_right if r.correct else prior_wrong
                    if not r.correct:
                        first_correct[:, cj] += prior_right
                for c in r.kcs:
                    if r.correct:
                        prior_right[c] += 1
                    else:
                        prior_wrong[c] += 1
    np.fill_diagonal(co, 0)
    np.fill_diagonal(equal, 0)
    np.fill_diagonal(first_correct, 0)
    return PairCounts(co=co, equal=equal, discord=co - equal,
                      first_correct=first_correct)


def build_graphs(ds: Dataset, cfg: GraphBuildConfig,
                 sequence_indices=None) -> KcRelationGraphs:
    """Mine the P/S/R graphs by thresholding the pair statistics at eta.

    When both prerequisite directions clear the threshold only the stronger
    one is kept (ties keep both) to avoid trivial two-cycles. The similarity
    score of an unordered pair is the max of its two directed scores.
    """
    counts = pair_counts(ds, sequence_indices)
    n = ds.n_kcs
    min_co = cfg.min_cooccurrence

    pre = np.full((n, n), -1.0)
    ok = counts.discord >= min_co
    pre[ok] = counts.first_correct[ok] / counts.discord[ok]
    # drop a direction when the reverse one also clears eta and is stronger
    keep = (pre >= cfg.eta) & ~((pre.T >= cfg.eta) & (pre.T > pre))
    np.fill_diagonal(keep, False)
    # argwhere is row-major, so the dicts keep the (i, j) loop order
    p_edges = {(i, j): float(pre[i, j]) for i, j in np.argwhere(keep).tolist()}

    sim = np.full((n, n), -1.0)
    ok = counts.co >= min_co
    sim[ok] = counts.equal[ok] / counts.co[ok]
    sim_sym = np.maximum(sim, sim.T)
    upper = np.triu(sim_sym >= cfg.eta, k=1)
    r_edges = {(i, j): float(sim_sym[i, j])
               for i, j in np.argwhere(upper).tolist()}

    return KcRelationGraphs(n, p_edges, r_edges)


def load_labeled_graphs(path, min_confidence: float = 5.0,
                        n_kcs: int | None = None) -> KcRelationGraphs:
    """Load expert-labeled (src, dst, kind, confidence) rows.

    Confidence scores of duplicate rows are averaged per edge; only edges
    with mean confidence strictly above `min_confidence` are kept. A row that
    does not parse raises ValueError naming `path:line`.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (line_no == 1 and not _is_int(row[0])):
                continue  # blank line or optional header
            try:
                if len(row) != 4:
                    raise ValueError("expected 4 columns")
                src, dst, kind, conf = row
                kind = kind.strip().lower()
                if kind not in ("prerequisite", "similar"):
                    raise ValueError(f"unknown relation kind {kind!r}")
                src, dst = int(src), int(dst)
                _check_edge(src, dst, np.inf if n_kcs is None else n_kcs)
                rows.append((src, dst, kind, float(conf)))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
    if n_kcs is None:
        n_kcs = 1 + max((max(r[0], r[1]) for r in rows), default=-1)

    sums: dict[tuple[int, int, str], list[float]] = {}
    for src, dst, kind, conf in rows:
        if kind == "similar" and src > dst:
            src, dst = dst, src
        sums.setdefault((src, dst, kind), []).append(conf)

    p_edges, r_edges = {}, {}
    for (src, dst, kind), confs in sums.items():
        mean = sum(confs) / len(confs)
        if mean <= min_confidence:
            continue
        if kind == "prerequisite":
            p_edges[(src, dst)] = mean
        else:
            r_edges[(src, dst)] = mean
    return KcRelationGraphs(n_kcs, p_edges, r_edges)


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


def format_graphs(graphs: KcRelationGraphs) -> str:
    """The graph file text: a header, then one line per P and R edge."""
    lines = [f"{GRAPH_FORMAT} {GRAPH_VERSION} n_kcs={graphs.n_kcs}"]
    for kind, scores in (("P", graphs.p_scores), ("R", graphs.r_scores)):
        lines += [f"{kind} {i} {j} {float(s)!r}"
                  for (i, j), s in sorted(scores.items())]
    return "\n".join(lines) + "\n"


def parse_graphs(text: str, source) -> KcRelationGraphs:
    """Read what `format_graphs` wrote; blank lines are skipped, header
    tokens other than n_kcs= are ignored, and a line that does not parse
    raises ValueError naming `source:line`."""
    n_kcs, edges = None, {"P": {}, "R": {}}
    lines = text.split("\n")
    line_no, header = 1, lines[0].split()
    try:
        if header[:2] != [GRAPH_FORMAT, str(GRAPH_VERSION)]:
            raise ValueError(f"unsupported graph file header: {' '.join(header[:2])}")
        for token in header[2:]:
            key, value = token.split("=")
            if key == "n_kcs":
                n_kcs = int(value)
        if n_kcs is None:
            raise ValueError("header has no n_kcs=")
        for line_no, line in enumerate(lines[1:], start=2):
            if line.strip():
                kind, i, j, s = line.split()
                if kind not in edges:
                    raise ValueError(f"unknown edge kind {kind!r}")
                edge = (int(i), int(j))
                _check_edge(*edge, n_kcs)
                edges[kind][edge] = float(s)
    except ValueError as exc:
        raise ValueError(f"{source}:{line_no}: {exc}") from None
    return KcRelationGraphs(n_kcs, edges["P"], edges["R"])


def export_graphs(graphs: KcRelationGraphs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graphs(graphs))


def import_graphs(path) -> KcRelationGraphs:
    """Read a graph file; a line that does not parse raises ValueError
    naming `path:line`."""
    with open(path, encoding="utf-8") as fh:
        return parse_graphs(fh.read(), path)
