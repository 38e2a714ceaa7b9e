"""Synthetic student generator with a transparent ground-truth model.

Students carry one scalar mastery per KC. Practicing a question raises the
mastery of its KCs (less for incorrect answers), sends a transfer-scaled
share of that increase to planted graph neighbors, and acquired mastery
decays exponentially back toward its starting level between responses.
Correctness is Bernoulli in the gap between mastery and question difficulty,
mixed with guess/slip noise.

The dynamics deliberately differ from the tracing model under test, so
training results against this generator are not self-confirming. Planted
prerequisite depth lowers initial mastery, which is what makes the mined
prerequisite scores recover the planted edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, IdMap, Response, ResponseSequence
from .graphs import KcRelationGraphs

WRONG_ANSWER_FACTOR = 0.3  # share of the learning increment a wrong answer earns


@dataclass
class SynthConfig:
    n_kcs: int = 50
    n_questions: int = 200
    n_students: int = 100
    seq_len_min: int = 20
    seq_len_max: int = 40
    kcs_per_question_max: int = 2
    pre_density: float = 0.04     # P(edge i->j) for i < j
    sim_density: float = 0.04
    learn_increment: float = 0.8
    decay_rate: float = 0.001     # per minute, toward initial mastery
    transfer: float = 0.5
    guess: float = 0.1
    slip: float = 0.05
    difficulty_spread: float = 1.0
    depth_penalty: float = 0.8
    mastery_noise: float = 0.7
    noise_smoothing: int = 0   # graph-smoothing passes over per-student noise
    gap_minutes_min: float = 5.0
    gap_minutes_max: float = 120.0
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("n_kcs", "n_questions", "n_students", "seq_len_min"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if self.seq_len_min > self.seq_len_max:
            raise ValueError(f"seq_len_min {self.seq_len_min} exceeds "
                             f"seq_len_max {self.seq_len_max}")
        if not 1 <= self.kcs_per_question_max <= self.n_kcs:
            raise ValueError(f"kcs_per_question_max must lie in 1..n_kcs "
                             f"({self.n_kcs}), got {self.kcs_per_question_max}")
        for name in ("guess", "slip", "pre_density", "sim_density"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("decay_rate", "transfer", "mastery_noise",
                     "noise_smoothing"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, "
                                 f"got {getattr(self, name)}")


@dataclass
class SynthResult:
    dataset: Dataset           # raw (pre-preprocess) per-student sequences
    graphs: KcRelationGraphs   # planted ground truth
    true_mastery: list[np.ndarray]  # per student: (steps+1, n_kcs)
    config: SynthConfig


def _plant_graphs(cfg: SynthConfig, rng: np.random.Generator) -> KcRelationGraphs:
    p_edges = {}
    for i in range(cfg.n_kcs):
        for j in range(i + 1, cfg.n_kcs):
            if rng.random() < cfg.pre_density:
                p_edges[(i, j)] = 1.0
    r_edges = {}
    for i in range(cfg.n_kcs):
        for j in range(i + 1, cfg.n_kcs):
            if (i, j) not in p_edges and rng.random() < cfg.sim_density:
                r_edges[(i, j)] = 1.0
    return KcRelationGraphs(cfg.n_kcs, p_edges, r_edges)


def _prerequisite_depth(graphs: KcRelationGraphs, n_kcs: int) -> np.ndarray:
    # longest prerequisite chain ending at each KC; edges only go i -> j, i < j
    depth = np.zeros(n_kcs)
    for j in range(n_kcs):
        preds = graphs.neighbors("S", j)
        if preds:
            depth[j] = 1 + max(depth[p] for p in preds)
    return depth


def generate(cfg: SynthConfig) -> SynthResult:
    """Sample a dataset, its planted graphs and the true mastery traces."""
    root = np.random.SeedSequence(cfg.seed)
    graph_rng = np.random.default_rng(root.spawn(1)[0])
    graphs = _plant_graphs(cfg, graph_rng)
    depth = _prerequisite_depth(graphs, cfg.n_kcs)

    q_rng = np.random.default_rng(root.spawn(1)[0])
    question_kcs = []
    for _ in range(cfg.n_questions):
        size = int(q_rng.integers(1, cfg.kcs_per_question_max + 1))
        question_kcs.append(tuple(sorted(
            q_rng.choice(cfg.n_kcs, size=size, replace=False).tolist())))
    difficulty = q_rng.normal(0.0, cfg.difficulty_spread, size=cfg.n_questions)

    transfer_targets: list[list[int]] = []
    undirected: list[list[int]] = []
    for c in range(cfg.n_kcs):
        targets = set(graphs.neighbors("P", c)) | set(graphs.neighbors("R", c))
        transfer_targets.append(sorted(targets))
        undirected.append(sorted(targets | set(graphs.neighbors("S", c))))

    student_seeds = root.spawn(cfg.n_students)
    sequences = []
    traces = []
    for sid in range(cfg.n_students):
        rng = np.random.default_rng(student_seeds[sid])
        noise = rng.normal(0.0, 1.0, size=cfg.n_kcs)
        for _ in range(cfg.noise_smoothing):
            # mix each KC's ability with its planted neighborhood's mean
            mixed = noise.copy()
            for c in range(cfg.n_kcs):
                if undirected[c]:
                    mixed[c] = 0.5 * noise[c] + 0.5 * np.mean(noise[undirected[c]])
            noise = mixed
        m0 = -cfg.depth_penalty * depth + cfg.mastery_noise * noise
        m = m0.copy()
        length = int(rng.integers(cfg.seq_len_min, cfg.seq_len_max + 1))
        ts = 0
        responses = []
        trail = [m.copy()]
        for _ in range(length):
            q = int(rng.integers(cfg.n_questions))
            kcs = question_kcs[q]
            level = float(np.mean([m[c] for c in kcs]))
            p = cfg.guess + (1.0 - cfg.guess - cfg.slip) / (
                1.0 + np.exp(-(level - difficulty[q])))
            a = int(rng.random() < p)
            responses.append(Response(q, kcs, a, ts))

            inc = cfg.learn_increment * (1.0 if a else WRONG_ANSWER_FACTOR)
            for c in kcs:
                m[c] += inc
                for nb in transfer_targets[c]:
                    m[nb] += cfg.transfer * inc
            gap = rng.uniform(cfg.gap_minutes_min, cfg.gap_minutes_max)
            m = m0 + (m - m0) * np.exp(-cfg.decay_rate * gap)
            ts += int(round(gap * 60.0))
            trail.append(m.copy())
        sequences.append(ResponseSequence(sid, responses, len(responses)))
        traces.append(np.array(trail))

    students = IdMap.from_values(f"s{sid:05d}" for sid in range(cfg.n_students))
    questions = IdMap.from_values(f"q{q:05d}" for q in range(cfg.n_questions))
    kcs_map = IdMap.from_values(f"c{c:05d}" for c in range(cfg.n_kcs))
    dataset = Dataset(
        sequences=sequences,
        students=students,
        questions=questions,
        kcs=kcs_map,
        seq_len=None,
    )
    return SynthResult(dataset=dataset, graphs=graphs,
                       true_mastery=traces, config=cfg)


def write_csv(result: SynthResult, path) -> None:
    """Emit the generated responses in the ingestible CSV format."""
    ds = result.dataset
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("student_id,question_id,kc_ids,correct,timestamp\n")
        for seq in ds.sequences:
            student = ds.students.from_dense[seq.student]
            for r in seq.real():
                question = ds.questions.from_dense[r.question]
                kc_names = ";".join(ds.kcs.from_dense[c] for c in r.kcs)
                fh.write(f"{student},{question},{kc_names},{r.correct},{r.timestamp}\n")


def write_ground_truth(result: SynthResult, path) -> None:
    doc = {
        "config": {k: getattr(result.config, k)
                   for k in result.config.__dataclass_fields__},
        "planted_prerequisite": sorted(map(list, result.graphs.p_scores)),
        "planted_similarity": sorted(map(list, result.graphs.r_scores)),
        "mean_correct": float(np.mean(
            [r.correct for s in result.dataset.sequences for r in s.responses])),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)

