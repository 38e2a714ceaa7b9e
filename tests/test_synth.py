"""Synthetic generator: determinism, dynamics, recovery of planted graphs."""

import numpy as np
import pytest

from graphkt.data import ingest_csv
from graphkt.graphs import GraphBuildConfig
from graphkt.synth import SynthConfig, generate, write_csv, write_ground_truth
from tests.oracles import planted_graph_recovery_check

SMALL = dict(n_kcs=10, n_questions=20, n_students=25,
             seq_len_min=8, seq_len_max=15, seed=5)

# strong prerequisite scenario used as the recovery regression baseline
STRONG = dict(n_kcs=50, n_questions=200, n_students=500,
              seq_len_min=20, seq_len_max=40, transfer=0.9,
              depth_penalty=2.0, learn_increment=0.4, decay_rate=0.004,
              mastery_noise=0.3, guess=0.05, slip=0.03, seed=11)


def test_all_correct_when_mastery_dominates():
    cfg = SynthConfig(**{**SMALL, "guess": 0.0, "slip": 0.0,
                         "depth_penalty": 0.0, "mastery_noise": 0.0,
                         "difficulty_spread": 0.0, "learn_increment": 0.0})
    res = generate(cfg)
    # push every initial mastery far above every difficulty by rebuilding
    # with a large positive base: emulate via depth_penalty < 0
    cfg2 = SynthConfig(**{**SMALL, "guess": 0.0, "slip": 0.0,
                          "mastery_noise": 0.0, "difficulty_spread": 0.0,
                          "depth_penalty": -50.0})
    res2 = generate(cfg2)
    answers = [r.correct for s in res2.dataset.sequences for r in s.responses
               if any(res2.graphs.neighbors("S", c) for c in r.kcs)]
    # KCs with prerequisites sit at depth >= 1: mastery 50+, all correct
    assert answers and all(a == 1 for a in answers)


def test_zero_transfer_decouples_kcs():
    cfg = SynthConfig(**{**SMALL, "transfer": 0.0, "decay_rate": 0.0})
    res = generate(cfg)
    for sid, trail in enumerate(res.true_mastery):
        seq = res.dataset.sequences[sid]
        for t, r in enumerate(seq.responses):
            delta = trail[t + 1] - trail[t]
            touched = set(r.kcs)
            for c in range(cfg.n_kcs):
                if c not in touched:
                    assert delta[c] == 0.0


def test_generator_deterministic():
    a = generate(SynthConfig(**SMALL))
    b = generate(SynthConfig(**SMALL))
    assert a.dataset == b.dataset
    assert sorted(a.graphs.p_scores) == sorted(b.graphs.p_scores)
    for ta, tb in zip(a.true_mastery, b.true_mastery):
        assert np.array_equal(ta, tb)
    c = generate(SynthConfig(**{**SMALL, "seed": 6}))
    assert c.dataset != a.dataset


def test_dataset_statistics_match_config():
    cfg = SynthConfig(**SMALL)
    res = generate(cfg)
    assert len(res.dataset.sequences) == cfg.n_students
    for seq in res.dataset.sequences:
        assert cfg.seq_len_min <= seq.valid_len <= cfg.seq_len_max
        ts = [r.timestamp for r in seq.responses]
        assert ts == sorted(ts)


def test_mean_correctness_rises_with_mastery():
    low = SynthConfig(**{**SMALL, "depth_penalty": 2.5})
    high = SynthConfig(**{**SMALL, "depth_penalty": -2.5})

    def mean_correct(res):
        answers = [r.correct for s in res.dataset.sequences
                   for r in s.responses]
        return sum(answers) / len(answers)

    assert mean_correct(generate(high)) > mean_correct(generate(low))


def test_csv_roundtrip_through_ingestion(tmp_path):
    res = generate(SynthConfig(**SMALL))
    path = tmp_path / "synth.csv"
    write_csv(res, path)
    ds = ingest_csv(path)
    assert ds.n_students == res.dataset.n_students
    assert ds.n_kcs == res.dataset.n_kcs
    # identical response streams after the id round trip
    for got, want in zip(ds.sequences, res.dataset.sequences):
        assert [r.timestamp for r in got.responses] == \
            [r.timestamp for r in want.responses]
        assert [r.correct for r in got.responses] == \
            [r.correct for r in want.responses]
        assert [r.kcs for r in got.responses] == \
            [r.kcs for r in want.responses]


def test_ground_truth_sidecar(tmp_path):
    import json
    res = generate(SynthConfig(**SMALL))
    path = tmp_path / "truth.json"
    write_ground_truth(res, path)
    doc = json.loads(path.read_text())
    assert doc["config"]["seed"] == SMALL["seed"]
    assert len(doc["planted_prerequisite"]) == len(res.graphs.p_scores)
    assert 0.0 <= doc["mean_correct"] <= 1.0


# -- recovery of planted structure ----------------------------------------------


@pytest.fixture(scope="module")
def strong_corpus():
    return generate(SynthConfig(**STRONG))


def test_recovery_of_strong_prerequisites(strong_corpus):
    report = planted_graph_recovery_check(
        strong_corpus.dataset, strong_corpus.graphs, GraphBuildConfig(eta=0.6))
    # regression baseline measured on this seeded corpus: 0.82 P recall
    assert report.recall["P"] >= 0.8
    assert report.recall["R"] >= 0.7
    assert report.planted_edges["P"] == 50


def test_recovery_recall_nonincreasing_in_eta(strong_corpus):
    recalls = []
    for eta in (0.55, 0.65, 0.75, 0.85):
        report = planted_graph_recovery_check(
            strong_corpus.dataset, strong_corpus.graphs,
            GraphBuildConfig(eta=eta))
        recalls.append(report.recall["P"])
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))


def test_recovery_on_empty_planting():
    cfg = SynthConfig(**{**SMALL, "pre_density": 0.0, "sim_density": 0.0})
    res = generate(cfg)
    report = planted_graph_recovery_check(res.dataset, res.graphs,
                                          GraphBuildConfig(eta=0.99,
                                                           min_cooccurrence=10_000))
    assert report.planted_edges == {"P": 0, "R": 0}
    assert report.recall == {"P": 1.0, "R": 1.0}
    assert report.precision == {"P": 1.0, "R": 1.0}


# the sizes synth's flags reach are tested in test_cli
@pytest.mark.parametrize("value", [0, SMALL["n_kcs"] + 1])
def test_config_rejects_kcs_per_question_outside_the_kcs(value):
    with pytest.raises(ValueError, match="kcs_per_question_max"):
        SynthConfig(**{**SMALL, "kcs_per_question_max": value})
