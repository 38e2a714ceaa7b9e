"""Ingestion, preprocessing and folds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkt.data import (ColumnSchema, IngestError, ingest_csv, make_folds,
                          preprocess)
from tests.conftest import make_dataset


def write_csv(tmp_path, rows, header="student_id,question_id,kc_ids,correct,timestamp"):
    path = tmp_path / "log.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def test_ingest_multi_kc_row(tmp_path):
    path = write_csv(tmp_path, [
        "s1,qa,3,1,100",
        "s1,qb,5;7,0,200",
        "s1,qa,3,1,300",
    ])
    ds = ingest_csv(path)
    assert ds.n_students == 1
    assert ds.n_questions == 2
    assert ds.n_kcs == 3
    seq = ds.sequences[0]
    assert seq.valid_len == 3
    two_kc = seq.responses[1]
    assert len(two_kc.kcs) == 2


def test_ingest_empty_file_errors(tmp_path):
    path = write_csv(tmp_path, [])
    with pytest.raises(IngestError, match="no responses"):
        ingest_csv(path)


def test_ingest_reorders_by_timestamp(tmp_path):
    rows = [
        ("s1", "q1", "1", "1", 300),
        ("s1", "q2", "2", "0", 100),
        ("s1", "q3", "1", "1", 200),
    ]
    path = write_csv(tmp_path, [",".join(map(str, r)) for r in rows])
    ds = ingest_csv(path)
    # reference: independently sort the same rows by timestamp
    expected = [r[4] for r in sorted(rows, key=lambda r: r[4])]
    assert [r.timestamp for r in ds.sequences[0].responses] == expected
    assert [ds.questions.from_dense[r.question]
            for r in ds.sequences[0].responses] == ["q2", "q3", "q1"]


def test_ingest_stable_on_timestamp_ties(tmp_path):
    path = write_csv(tmp_path, [
        "s1,qa,1,1,100",
        "s1,qb,1,0,100",
        "s1,qc,1,1,100",
    ])
    ds = ingest_csv(path)
    names = [ds.questions.from_dense[r.question]
             for r in ds.sequences[0].responses]
    assert names == ["qa", "qb", "qc"]


def test_ingest_rejects_bad_correctness(tmp_path):
    path = write_csv(tmp_path, ["s1,q1,1,yes,100"])
    with pytest.raises(IngestError, match="line 2"):
        ingest_csv(path)


def test_ingest_rejects_malformed_row(tmp_path):
    path = write_csv(tmp_path, ["s1,q1,1,1,100", "s2,q1"])
    with pytest.raises(IngestError, match="line 3"):
        ingest_csv(path)


def test_ingest_order_rank_timestamps(tmp_path):
    path = write_csv(tmp_path, [
        "s1,q1,1,1,9000",
        "s1,q2,1,0,4000",
    ])
    ds = ingest_csv(path, ColumnSchema(timestamp_is_order=True))
    assert [r.timestamp for r in ds.sequences[0].responses] == [1, 2]


def test_ingest_custom_schema(tmp_path):
    path = write_csv(tmp_path, ["u1|item9|a+b|1|50"],
                     header="user|item|skills|ok|time")
    schema = ColumnSchema(student="user", question="item", kcs="skills",
                          correct="ok", timestamp="time", kc_delimiter="+")
    # '|' delimited files are not csv-default; rewrite with commas
    path.write_text("user,item,skills,ok,time\nu1,item9,a+b,1,50\n")
    ds = ingest_csv(path, schema)
    assert ds.n_kcs == 2


# -- preprocess ---------------------------------------------------------------


def student_with(n):
    rows = [(0, i % 7, (i % 5,), i % 2, 1000 + 60 * i) for i in range(n)]
    return make_dataset(rows, n_questions=7, n_kcs=5)


def test_preprocess_splits_and_pads():
    ds = preprocess(student_with(230), seq_len=100, min_len=10)
    assert [s.valid_len for s in ds.sequences] == [100, 100, 30]
    assert all(len(s.responses) == 100 for s in ds.sequences)
    last = ds.sequences[-1]
    pad = last.responses[30]
    assert pad.question == ds.padding_question()
    assert pad.kcs == (ds.padding_kc(),)
    assert pad.timestamp == last.responses[29].timestamp


def test_preprocess_drops_short_students():
    ds = preprocess(student_with(9), seq_len=100, min_len=10)
    assert ds.sequences == []


def test_preprocess_exact_boundary():
    ds = preprocess(student_with(100), seq_len=100, min_len=10)
    assert len(ds.sequences) == 1
    assert ds.sequences[0].valid_len == 100
    assert all(r.question != ds.padding_question()
               for r in ds.sequences[0].responses)


def test_preprocess_drops_short_tail():
    ds = preprocess(student_with(105), seq_len=100, min_len=10)
    assert [s.valid_len for s in ds.sequences] == [100]


@pytest.mark.parametrize("seq_len,min_len", [(0, 1), (-5, 10), (10, 0),
                                             (10, 50)], ids=["seq-len-zero", "seq-len-negative", "min-len-zero", "min-len-above"])
def test_preprocess_rejects_bad_lengths(seq_len, min_len):
    with pytest.raises(ValueError) as exc:
        preprocess(student_with(30), seq_len=seq_len, min_len=min_len)
    assert f"seq_len={seq_len}, min_len={min_len}" in str(exc.value)


def test_preprocess_accepts_min_len_equal_to_seq_len():
    ds = preprocess(student_with(25), seq_len=5, min_len=5)
    assert [s.valid_len for s in ds.sequences] == [5] * 5


# -- folds ---------------------------------------------------------------------


def ten_sequences():
    rows = [(s, 0, (0,), 1, 100 + i) for s in range(10) for i in range(12)]
    return preprocess(make_dataset(rows, n_questions=1, n_kcs=1),
                      seq_len=12, min_len=1)


def test_folds_sizes_even():
    folds = make_folds(ten_sequences(), k=5, seed=0)
    assert all(len(f.test) == 2 for f in folds)


def test_folds_deterministic():
    ds = ten_sequences()
    assert make_folds(ds, k=5, seed=9) == make_folds(ds, k=5, seed=9)
    assert make_folds(ds, k=5, seed=9) != make_folds(ds, k=5, seed=10)


def test_folds_split_rule_100():
    rows = [(s, 0, (0,), 1, 100 + i) for s in range(100) for i in range(12)]
    ds = preprocess(make_dataset(rows, n_questions=1, n_kcs=1),
                    seq_len=12, min_len=1)
    folds = make_folds(ds, k=5, val_frac=0.1, seed=3)
    for f in folds:
        assert (len(f.train), len(f.val), len(f.test)) == (72, 8, 20)


def test_folds_partition_properties():
    ds = ten_sequences()
    folds = make_folds(ds, k=5, seed=1)
    all_test = [i for f in folds for i in f.test]
    assert sorted(all_test) == list(range(10))
    for f in folds:
        assert not (set(f.train) & set(f.val))
        assert not (set(f.train) & set(f.test))
        assert not (set(f.val) & set(f.test))
        assert sorted(set(f.train) | set(f.val) | set(f.test)) == list(range(10))


def test_folds_require_enough_sequences():
    with pytest.raises(ValueError):
        make_folds(ten_sequences(), k=11)


@pytest.mark.parametrize("val_frac", [1.0, -0.5, 1.5])
def test_folds_require_a_validation_share_below_one(val_frac):
    with pytest.raises(ValueError, match=r"val_frac must lie in \[0, 1\)"):
        make_folds(ten_sequences(), k=5, val_frac=val_frac)


@given(st.integers(5, 60), st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_folds_cover_exactly_once(n, seed):
    rows = [(s, 0, (0,), 1, 100 + i) for s in range(n) for i in range(3)]
    ds = preprocess(make_dataset(rows, n_questions=1, n_kcs=1),
                    seq_len=3, min_len=1)
    folds = make_folds(ds, k=5, seed=seed)
    assert sorted(i for f in folds for i in f.test) == list(range(n))

