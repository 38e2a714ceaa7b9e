"""Shared fixtures: tiny datasets, graphs and desk-scale models."""

import gc

import pytest

from graphkt import engine
from graphkt.data import Dataset, IdMap, Response, ResponseSequence
from graphkt.graphs import KcRelationGraphs
from graphkt.model import GrktModel, HyperParams


@pytest.fixture(autouse=True)
def no_recording():
    """Start each test with no tape recording, whatever earlier tests left."""
    engine.stop_tape()


@pytest.fixture
def collector():
    """A setter for the cyclic collector's state, restored after the test."""
    was = gc.isenabled()
    yield lambda enabled: gc.enable() if enabled else gc.disable()
    if was:
        gc.enable()
    else:
        gc.disable()


def make_dataset(rows, n_questions=None, n_kcs=None, seq_len=None):
    """Build a Dataset from (student, question, kcs, correct, ts) tuples."""
    by_student = {}
    for student, question, kcs, correct, ts in rows:
        by_student.setdefault(student, []).append(
            Response(question, tuple(sorted(set(kcs))), correct, ts))
    sequences = []
    for student in sorted(by_student):
        responses = sorted(by_student[student], key=lambda r: r.timestamp)
        sequences.append(ResponseSequence(student, responses, len(responses)))
    if n_questions is None:
        n_questions = 1 + max(r[1] for r in rows)
    if n_kcs is None:
        n_kcs = 1 + max(k for r in rows for k in r[2])
    return Dataset(
        sequences=sequences,
        students=IdMap.from_values(str(s) for s in by_student),
        questions=IdMap.from_values(f"q{i}" for i in range(n_questions)),
        kcs=IdMap.from_values(f"c{i}" for i in range(n_kcs)),
        seq_len=seq_len,
    )


def random_sequence(rng, n_questions, n_kcs, length, student=0,
                    max_kcs=2, start_ts=1000):
    responses = []
    ts = start_ts
    for _ in range(length):
        q = int(rng.integers(n_questions))
        size = int(rng.integers(1, max_kcs + 1))
        kcs = tuple(sorted(rng.choice(n_kcs, size=size, replace=False).tolist()))
        responses.append(Response(q, kcs, int(rng.integers(2)), ts))
        ts += int(rng.integers(1, 3600))
    return ResponseSequence(student, responses, length)


def random_graphs(rng, n_kcs, p_edges=4, r_edges=4):
    p, r = {}, {}
    for _ in range(p_edges):
        i, j = rng.choice(n_kcs, size=2, replace=False)
        p[(int(i), int(j))] = 0.8
    for _ in range(r_edges):
        i, j = sorted(rng.choice(n_kcs, size=2, replace=False).tolist())
        r[(int(i), int(j))] = 0.7
    p = {(i, j): s for (i, j), s in p.items() if (j, i) not in p}
    return KcRelationGraphs(n_kcs, p, r)


@pytest.fixture
def desk_model():
    """Small model on a fixed 6-KC graph, deterministic parameters."""
    hp = HyperParams(d_e=4, d_k=4, d_h=6, layers=1, seed=7)
    graphs = KcRelationGraphs(
        6, {(0, 1): 0.9, (2, 3): 0.8}, {(1, 2): 0.7, (4, 5): 0.9})
    return GrktModel(hp, n_questions=5, n_kcs=6, graphs=graphs)


@pytest.fixture
def desk_sequence():
    responses = [
        Response(0, (0,), 1, 1000),
        Response(1, (1, 2), 0, 1600),
        Response(2, (3,), 1, 2500),
        Response(3, (4,), 0, 4000),
        Response(4, (5,), 1, 9000),
    ]
    return ResponseSequence(0, responses, 5)
