"""Relation-graph mining, labeled loading and graph invariants."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkt.graphs import (GraphBuildConfig, KcRelationGraphs, build_graphs,
                            export_graphs, format_graphs, import_graphs,
                            load_labeled_graphs, parse_graphs)
from graphkt.synth import SynthConfig, generate
from tests.conftest import make_dataset
from tests.oracles import (build_graphs_loops, prerequisite_score,
                           similarity_score)
from tests.test_synth import SMALL


def test_config_validates_eta():
    with pytest.raises(ValueError):
        GraphBuildConfig(eta=1.0)
    with pytest.raises(ValueError):
        GraphBuildConfig(eta=0.0)
    with pytest.raises(ValueError):
        GraphBuildConfig(eta=0.5, min_cooccurrence=0)


# -- pair scores ---------------------------------------------------------------


def test_similarity_all_correct_pairs():
    # two students answer KC 0 then KC 1, all four responses correct:
    # each student contributes one ordered (0, 1) pair with equal correctness
    rows = [
        (0, 0, (0,), 1, 100), (0, 1, (1,), 1, 200),
        (1, 0, (0,), 1, 100), (1, 1, (1,), 1, 200),
    ]
    ds = make_dataset(rows)
    assert similarity_score(ds, 0, 1, min_cooccurrence=1) == 1.0


def test_similarity_undefined_when_never_cooccurring():
    rows = [
        (0, 0, (0,), 1, 100),
        (1, 1, (1,), 1, 100),
    ]
    ds = make_dataset(rows)
    assert similarity_score(ds, 0, 1, min_cooccurrence=1) is None


def test_similarity_single_discordant_pair():
    rows = [(0, 0, (0,), 1, 100), (0, 1, (1,), 0, 200)]
    ds = make_dataset(rows)
    assert similarity_score(ds, 0, 1, min_cooccurrence=1) == 0.0


def test_similarity_self_pair_undefined():
    rows = [(0, 0, (0,), 1, 100), (0, 0, (0,), 1, 200)]
    ds = make_dataset(rows)
    assert similarity_score(ds, 0, 0, min_cooccurrence=1) is None


def test_prerequisite_all_discordant_one_direction():
    # every discordant (0, 1) pair has KC 0 correct, KC 1 wrong
    rows = [
        (0, 0, (0,), 1, 100), (0, 1, (1,), 0, 200),
        (1, 0, (0,), 1, 100), (1, 1, (1,), 0, 200),
    ]
    ds = make_dataset(rows)
    assert prerequisite_score(ds, 0, 1, min_cooccurrence=1) == 1.0


def test_prerequisite_undefined_when_all_concordant():
    rows = [
        (0, 0, (0,), 1, 100), (0, 1, (1,), 1, 200),
        (1, 0, (0,), 0, 100), (1, 1, (1,), 0, 200),
    ]
    ds = make_dataset(rows)
    assert prerequisite_score(ds, 0, 1, min_cooccurrence=1) is None


def test_prerequisite_two_thirds():
    # three discordant ordered (0, 1) pairs, two with KC 0 correct first
    rows = [
        (0, 0, (0,), 1, 100), (0, 1, (1,), 0, 200),
        (1, 0, (0,), 1, 100), (1, 1, (1,), 0, 200),
        (2, 0, (0,), 0, 100), (2, 1, (1,), 1, 200),
    ]
    ds = make_dataset(rows)
    score = prerequisite_score(ds, 0, 1, min_cooccurrence=1)
    assert abs(score - 2.0 / 3.0) < 1e-15


def test_min_cooccurrence_gates_definition():
    rows = [(0, 0, (0,), 1, 100), (0, 1, (1,), 0, 200)]
    ds = make_dataset(rows)
    assert prerequisite_score(ds, 0, 1, min_cooccurrence=2) is None


# -- graph building ------------------------------------------------------------


def tiny_corpus():
    # KC 0 before KC 1, always (correct, wrong): pre(0,1)=1; sim(0,1)=0
    rows = []
    for s in range(12):
        rows.append((s, 0, (0,), 1, 100))
        rows.append((s, 1, (1,), 0, 200))
    return make_dataset(rows, n_kcs=3)


def test_build_graphs_threshold():
    g = build_graphs(tiny_corpus(), GraphBuildConfig(eta=0.6, min_cooccurrence=10))
    assert g.neighbors("P", 0) == (1,)
    assert g.neighbors("S", 1) == (0,)
    assert g.neighbors("R", 0) == ()
    assert g.edge_count("R") == 0


def test_build_graphs_sparsity():
    g = build_graphs(tiny_corpus(), GraphBuildConfig(eta=0.6, min_cooccurrence=10))
    assert g.sparsity()["P"] == 1 / 6  # one edge out of 3*2 ordered pairs


def two_direction_corpus():
    # 0 -> 1 in 3 of 4 discordant pairs; 1 -> 0 in 1 of 4
    rows = []
    for s in range(12):
        rows.append((s, 0, (0,), s % 4 != 0, 100))
        rows.append((s, 1, (1,), s % 4 == 0, 200))
    return make_dataset(rows, n_kcs=2)


def test_build_graphs_keeps_stronger_direction():
    # both directions could pass a low threshold, only the stronger survives
    g = build_graphs(two_direction_corpus(),
                     GraphBuildConfig(eta=0.2, min_cooccurrence=5))
    assert g.neighbors("P", 0) == (1,)
    assert g.neighbors("P", 1) == ()


def test_build_graphs_order_independent():
    base = [(s, q, (q % 4,), (s + q) % 2, 100 + 13 * q)
            for s in range(6) for q in range(8)]
    ds1 = make_dataset(base, n_kcs=4)
    rng = np.random.default_rng(4)
    shuffled = [base[i] for i in rng.permutation(len(base))]
    ds2 = make_dataset(shuffled, n_kcs=4)
    cfg = GraphBuildConfig(eta=0.5, min_cooccurrence=2)
    g1, g2 = build_graphs(ds1, cfg), build_graphs(ds2, cfg)
    for which in ("P", "S", "R"):
        for c in range(4):
            assert g1.neighbors(which, c) == g2.neighbors(which, c)


def mixed_corpus():
    rows = [(s, q, ((q * (s + 2)) % 5,), (s * q + s) % 2, 50 * q + 10)
            for s in range(8) for q in range(10)]
    return make_dataset(rows, n_kcs=5)


def test_edges_reverify_against_scores():
    ds = mixed_corpus()
    cfg = GraphBuildConfig(eta=0.55, min_cooccurrence=3)
    g = build_graphs(ds, cfg)
    for (i, j) in g.p_scores:
        score = prerequisite_score(ds, i, j, min_cooccurrence=3)
        assert score is not None and score >= cfg.eta
    for (i, j), s in g.r_scores.items():
        a = similarity_score(ds, i, j, min_cooccurrence=3)
        b = similarity_score(ds, j, i, min_cooccurrence=3)
        best = max(x for x in (a, b) if x is not None)
        assert best >= cfg.eta


MINING_CORPORA = {
    "tiny": tiny_corpus,
    "two-directions": two_direction_corpus,
    "mixed": mixed_corpus,
    "synth-small": lambda: generate(SynthConfig(**SMALL)).dataset,
    "synth-30": lambda: generate(SynthConfig(n_kcs=30, n_questions=60,
                                             n_students=80, seed=2)).dataset,
}


@pytest.mark.parametrize("eta,min_co", [(0.2, 1), (0.5, 3), (0.6, 10)])
@pytest.mark.parametrize("corpus", sorted(MINING_CORPORA))
def test_build_graphs_equals_the_loop_oracle(corpus, eta, min_co):
    ds = MINING_CORPORA[corpus]()
    cfg = GraphBuildConfig(eta=eta, min_cooccurrence=min_co)
    half = range(0, len(ds.sequences), 2)
    for indices in (None, half):
        got = build_graphs(ds, cfg, sequence_indices=indices)
        want = build_graphs_loops(ds, cfg, sequence_indices=indices)
        # same edges, same float scores, same dict order
        assert list(got.p_scores.items()) == list(want.p_scores.items())
        assert list(got.r_scores.items()) == list(want.r_scores.items())


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_build_graphs_equals_the_loop_oracle_with_ties(seed):
    # few students and answers on few KCs: equal scores in both directions
    rng = np.random.default_rng(seed)
    rows = [(s, int(q), (int(q) % 4,), int(rng.integers(2)), 10 * t)
            for s in range(6)
            for t, q in enumerate(rng.integers(8, size=6))]
    ds = make_dataset(rows, n_questions=8, n_kcs=4)
    cfg = GraphBuildConfig(eta=0.5, min_cooccurrence=1)
    got, want = build_graphs(ds, cfg), build_graphs_loops(ds, cfg)
    assert list(got.p_scores.items()) == list(want.p_scores.items())
    assert list(got.r_scores.items()) == list(want.r_scores.items())


# -- structural invariants -------------------------------------------------------


def test_reversal_and_symmetry_invariants():
    g = KcRelationGraphs(5, {(0, 1): 0.9, (3, 2): 0.7}, {(1, 4): 0.8})
    # S is the exact reversal of P
    for c in range(5):
        for nb in g.neighbors("P", c):
            assert c in g.neighbors("S", nb)
        for nb in g.neighbors("S", c):
            assert c in g.neighbors("P", nb)
    # R is symmetric
    assert g.neighbors("R", 1) == (4,)
    assert g.neighbors("R", 4) == (1,)


def test_no_self_loops_enforced():
    with pytest.raises(ValueError):
        KcRelationGraphs(3, {(1, 1): 0.9}, {})


def test_neighbors_isolated_node():
    g = KcRelationGraphs(4, {(0, 1): 0.9}, {})
    assert g.neighbors("R", 3) == ()
    assert g.neighbors("S", 0) == ()
    assert g.neighbors("S", 1) == (0,)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_double_reversal_identity(seed):
    rng = np.random.default_rng(seed)
    n = 6
    p = {}
    for _ in range(6):
        i, j = rng.choice(n, size=2, replace=False)
        p[(int(i), int(j))] = 0.9
    p = {(i, j): s for (i, j), s in p.items() if (j, i) not in p}
    g = KcRelationGraphs(n, p, {})
    rebuilt = KcRelationGraphs(
        n, {(j, i): 1.0 for i in range(n) for j in g.neighbors("S", i)}, {})
    for c in range(n):
        assert rebuilt.neighbors("P", c) == g.neighbors("P", c)


# -- labeled relations ------------------------------------------------------------


def write_labels(tmp_path, lines, header=True):
    path = tmp_path / "labels.csv"
    text = ("src,dst,kind,confidence\n" if header else "") + "\n".join(lines)
    path.write_text(text + "\n")
    return path


def test_labeled_single_prerequisite(tmp_path):
    path = write_labels(tmp_path, ["0,1,prerequisite,7"])
    g = load_labeled_graphs(path, n_kcs=3)
    assert g.neighbors("P", 0) == (1,)
    assert g.neighbors("S", 1) == (0,)


def test_labeled_threshold_is_strict(tmp_path):
    path = write_labels(tmp_path, ["0,1,prerequisite,5.0"])
    g = load_labeled_graphs(path, min_confidence=5.0, n_kcs=2)
    assert g.edge_count("P") == 0


def test_labeled_duplicates_average(tmp_path):
    path = write_labels(tmp_path, ["0,1,similar,6", "0,1,similar,8"])
    g = load_labeled_graphs(path, n_kcs=2)
    assert g.neighbors("R", 0) == (1,)
    assert g.r_scores[(0, 1)] == 7.0


def test_labeled_duplicates_can_average_below(tmp_path):
    path = write_labels(tmp_path, ["0,1,similar,9", "0,1,similar,1"])
    g = load_labeled_graphs(path, n_kcs=2)
    assert g.edge_count("R") == 0


def test_labeled_unknown_kind_errors(tmp_path):
    path = write_labels(tmp_path, ["0,1,collaboration,8"])
    with pytest.raises(ValueError, match="unknown relation kind"):
        load_labeled_graphs(path)


# -- export / import ----------------------------------------------------------------


def test_graph_file_roundtrip(tmp_path):
    ds = tiny_corpus()
    g = build_graphs(ds, GraphBuildConfig(eta=0.6, min_cooccurrence=10))
    path = tmp_path / "graphs.txt"
    export_graphs(g, path)
    again = import_graphs(path)
    assert again.n_kcs == g.n_kcs
    for which in ("P", "S", "R"):
        for c in range(g.n_kcs):
            assert again.neighbors(which, c) == g.neighbors(which, c)


GRAPH_HEADER = "graphkt-graphs 1 eta=0.6 min_cooccurrence=10 n_kcs=3\n"
load_labels = functools.partial(load_labeled_graphs, n_kcs=3)


# (loader, file text, line the error must name, part of the message)
MALFORMED = {
    "graphs-no-n-kcs": (import_graphs, "graphkt-graphs 1 eta=0.6\n", 1,
                        "no n_kcs="),
    "graphs-token": (import_graphs, "graphkt-graphs 1 eta n_kcs=3\n", 1,
                     "unpack"),
    "graphs-other-format": (import_graphs, "something 1 n_kcs=3\n", 1,
                            "header"),
    "graphs-kc-id": (import_graphs, GRAPH_HEADER + "P 0 x 0.7\n", 2,
                     "invalid literal"),
    "graphs-columns": (import_graphs, GRAPH_HEADER + "\nR 0 1\n", 3,
                       "unpack"),
    "graphs-kind": (import_graphs, GRAPH_HEADER + "Q 0 1 0.7\n", 2,
                    "unknown edge kind"),
    "graphs-range": (import_graphs, GRAPH_HEADER + "P 0 1 0.7\nP 0 9 0.7\n",
                     3, "edge (0, 9) outside KC range"),
    "graphs-self-loop": (import_graphs, GRAPH_HEADER + "R 2 2 0.7\n", 2,
                         "self loop"),
    "labels-kc-id": (load_labels, "src,dst,kind,confidence\n"
                     "0,x,prerequisite,7\n", 2, "invalid literal"),
    "labels-confidence": (load_labels, "0,1,similar,high\n", 1,
                          "could not convert"),
    "labels-range": (load_labels, "0,1,similar,7\n\n0,9,similar,7\n",
                     3, "edge (0, 9) outside KC range"),
    # without a KC count, only a negative id is out of range
    "labels-negative": (load_labeled_graphs, "0,-1,similar,7\n", 1,
                        "edge (0, -1) outside KC range"),
    "labels-columns": (load_labels, "0,1,similar\n", 1,
                       "expected 4 columns"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_graph_files_name_path_and_line(tmp_path, case):
    loader, text, line, message = MALFORMED[case]
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        loader(path)
    assert str(exc.value).startswith(f"{path}:{line}: ")
    assert message in str(exc.value)


def test_graph_files_skip_blank_lines(tmp_path):
    path = tmp_path / "graphs.txt"
    path.write_text(GRAPH_HEADER + "\nP 0 1 0.7\n  \nR 1 2 0.8\n\n")
    g = import_graphs(path)
    assert (g.p_scores, g.r_scores) == ({(0, 1): 0.7}, {(1, 2): 0.8})
    labels = tmp_path / "labels.csv"
    labels.write_text("src,dst,kind,confidence\n\n0,1,similar,7\n\n")
    assert load_labeled_graphs(labels, n_kcs=3).r_scores == {(0, 1): 7.0}


def test_similarity_edges_are_stored_once():
    g = KcRelationGraphs(4, {}, {(3, 1): 0.8, (0, 2): 0.6})
    assert g.r_scores == {(1, 3): 0.8, (0, 2): 0.6}
    assert (g.neighbors("R", 1), g.neighbors("R", 3)) == ((3,), (1,))
    assert g.edge_count("R") == 4
    assert g.drop(prerequisite=True).r_scores == g.r_scores


def test_graph_text_is_one_codec(tmp_path):
    # scores that decimal formatting would round, and a numpy scalar
    g = KcRelationGraphs(5, {(3, 0): 2.0 / 3.0, (0, 1): 0.1 + 0.2},
                         {(4, 2): np.nextafter(0.7, 1.0), (1, 2): 1e-300})
    text = format_graphs(g)
    assert text == ("graphkt-graphs 1 n_kcs=5\n"
                    f"P 0 1 {0.1 + 0.2!r}\nP 3 0 {2.0 / 3.0!r}\n"
                    f"R 1 2 1e-300\nR 2 4 {float(np.nextafter(0.7, 1.0))!r}\n")
    path = tmp_path / "graphs.txt"
    export_graphs(g, path)
    assert path.read_text() == text
    again = import_graphs(path)
    assert (again.p_scores, again.r_scores) == (g.p_scores, g.r_scores)
    assert format_graphs(parse_graphs(text, "x")) == text


def test_graph_files_with_the_old_header_load(tmp_path):
    path = tmp_path / "graphs.txt"
    path.write_text("graphkt-graphs 1 eta=0.6 min_cooccurrence=10 n_kcs=3\n"
                    "P 0 1 0.7\nR 1 2 0.8\n")
    g = import_graphs(path)
    assert (g.n_kcs, g.p_scores, g.r_scores) == (3, {(0, 1): 0.7},
                                                 {(1, 2): 0.8})
    path.write_text("graphkt-graphs 1 eta=none min_cooccurrence=none n_kcs=3\n")
    assert import_graphs(path).edge_count("P") == 0
