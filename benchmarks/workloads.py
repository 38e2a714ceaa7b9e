"""Benchmark workloads and the seeded corpus generator behind them.

Each workload fixes a model shape and a corpus shape. The corpus comes from
`graphkt.synth` with every student history the same length, so the work per
training step and per evaluated sequence is the same on every seed and only
the content (questions, answers, mined graph edges) varies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from graphkt import synth

ETA = 0.6      # graph-mining threshold and the model's eta, as in the README
MIN_LEN = 10   # shortest sequence preprocess keeps


@dataclass(frozen=True)
class Workload:
    name: str
    n_kcs: int
    n_questions: int
    n_students: int
    history: int            # responses per student
    seq_len: int
    d_e: int
    d_k: int
    d_h: int
    layers: int
    batch_size: int
    graph_source: str       # "mined" (build_graphs) or "labelled" (file)
    planted_density: float  # synth pre/sim edge probability per KC pair
    eval_sequences: int     # sequences per evaluate() pass
    cycle_steps: int        # training restarts from its first state after these
    trace_steps: int        # timed steps per side of a traced run
    burn_in_steps: int = 10  # untimed steps before the first timed one
    setup_repeats: int = 11

    def params(self) -> dict:
        return dataclasses.asdict(self)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk",
            n_kcs=50, n_questions=200, n_students=300, history=40,
            seq_len=40, d_e=8, d_k=8, d_h=16, layers=1, batch_size=8,
            graph_source="mined", planted_density=0.04,
            eval_sequences=60, cycle_steps=24, trace_steps=8),
        Workload(
            name="paper",
            n_kcs=110, n_questions=1000, n_students=200, history=100,
            seq_len=100, d_e=128, d_k=16, d_h=128, layers=2, batch_size=1,
            graph_source="mined", planted_density=0.04,
            eval_sequences=12, cycle_steps=24, trace_steps=8),
        Workload(
            name="wide-sparse",
            n_kcs=300, n_questions=1500, n_students=400, history=40,
            seq_len=40, d_e=8, d_k=8, d_h=16, layers=2, batch_size=4,
            graph_source="labelled", planted_density=0.01,
            eval_sequences=40, cycle_steps=24, trace_steps=8),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload shrunk to seconds, for the smoke tests."""
    return dataclasses.replace(
        w, n_students=30, history=min(w.history, 20), seq_len=min(w.seq_len, 20),
        batch_size=1, eval_sequences=3, cycle_steps=12,
        trace_steps=2, burn_in_steps=2, setup_repeats=2, n_questions=20)


@dataclass
class Corpus:
    data_csv: Path
    labels_csv: Path | None


def generate(w: Workload, seed: int, workdir: Path) -> Corpus:
    """Write the workload's response log (and label file) for one seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = synth.SynthConfig(
        n_kcs=w.n_kcs, n_questions=w.n_questions, n_students=w.n_students,
        seq_len_min=w.history, seq_len_max=w.history,
        pre_density=w.planted_density, sim_density=w.planted_density,
        seed=seed)
    result = synth.generate(cfg)
    data_csv = workdir / "data.csv"
    synth.write_csv(result, data_csv)
    labels_csv = None
    if w.graph_source == "labelled":
        labels_csv = workdir / "labels.csv"
        _write_labels(result, labels_csv, np.random.default_rng(seed))
    return Corpus(data_csv=data_csv, labels_csv=labels_csv)


def _write_labels(result: synth.SynthResult, path: Path,
                  rng: np.random.Generator) -> None:
    """Write the planted edges as expert labels with confidences above 5.

    Ingestion numbers KCs by the sorted names of the KCs that occur in the
    log, so edges are written in that numbering and edges on a KC that never
    occurs are left out.
    """
    present = sorted({c for s in result.dataset.sequences
                      for r in s.responses for c in r.kcs})
    dense = {c: i for i, c in enumerate(present)}
    rows = [(i, j, "prerequisite") for (i, j) in sorted(result.graphs.p_scores)]
    rows += [(i, j, "similar") for (i, j) in sorted(result.graphs.r_scores)
             if i < j]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("src,dst,relation,confidence\n")
        for i, j, kind in rows:
            if i in dense and j in dense:
                conf = rng.uniform(6.0, 10.0)
                fh.write(f"{dense[i]},{dense[j]},{kind},{conf:.3f}\n")
