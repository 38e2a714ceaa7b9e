"""Response-log ingestion, preprocessing and fold splitting.

A raw log is a CSV of (student, question, KC list, correctness, timestamp)
rows. Ingestion assigns dense integer ids, groups rows per student and sorts
them by timestamp (stable on ties, so file order breaks ties reproducibly).
Preprocessing then splits each student history into fixed-length padded
subsequences, which are the unit of training and evaluation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

KcId = int
QuestionId = int
StudentId = int


class IngestError(ValueError):
    """Raised for malformed input files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ColumnSchema:
    """Names of the CSV columns holding each field.

    When `timestamp_is_order` is set the timestamp column is treated as an
    ordering rank (for logs without wall-clock times) and replaced by
    synthetic 1-second increments per student after sorting.
    """

    student: str = "student_id"
    question: str = "question_id"
    kcs: str = "kc_ids"
    correct: str = "correct"
    timestamp: str = "timestamp"
    kc_delimiter: str = ";"
    timestamp_is_order: bool = False


@dataclass(frozen=True)
class Response:
    question: QuestionId
    kcs: tuple[KcId, ...]
    correct: int
    timestamp: int

    def __post_init__(self):
        if not self.kcs:
            raise ValueError("response requires at least one KC")
        if self.correct not in (0, 1):
            raise ValueError(f"correctness must be 0 or 1, got {self.correct}")


@dataclass
class ResponseSequence:
    student: StudentId
    responses: list[Response]
    valid_len: int

    def real(self) -> list[Response]:
        return self.responses[: self.valid_len]


@dataclass
class IdMap:
    """Bijection between original string ids and dense integer ids."""

    from_dense: list[str] = field(default_factory=list)
    to_dense: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_values(cls, values) -> "IdMap":
        ordered = sorted(set(values))
        return cls(from_dense=ordered,
                   to_dense={v: i for i, v in enumerate(ordered)})

    def __len__(self) -> int:
        return len(self.from_dense)


@dataclass
class Dataset:
    sequences: list[ResponseSequence]
    students: IdMap
    questions: IdMap
    kcs: IdMap
    seq_len: int | None = None  # None until preprocess() has run

    @property
    def n_students(self) -> int:
        return len(self.students)

    @property
    def n_questions(self) -> int:
        return len(self.questions)

    @property
    def n_kcs(self) -> int:
        return len(self.kcs)

    def padding_question(self) -> int:
        return self.n_questions

    def padding_kc(self) -> int:
        return self.n_kcs


@dataclass(frozen=True)
class FoldSplit:
    fold: int
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


def _parse_row(row: dict, schema: ColumnSchema, line: int):
    try:
        student = row[schema.student]
        question = row[schema.question]
        kcs_raw = row[schema.kcs]
        correct_raw = row[schema.correct]
        ts_raw = row[schema.timestamp]
    except KeyError as exc:
        raise IngestError(f"missing column {exc}", line)
    if student is None or question is None or kcs_raw is None \
            or correct_raw is None or ts_raw is None:
        raise IngestError("row has fewer fields than the header", line)

    kcs = tuple(k.strip() for k in kcs_raw.split(schema.kc_delimiter) if k.strip())
    if not kcs:
        raise IngestError("empty KC list", line)

    correct_raw = correct_raw.strip()
    if correct_raw not in ("0", "1"):
        raise IngestError(f"unknown correctness value {correct_raw!r}", line)

    try:
        ts = int(ts_raw.strip())
    except ValueError:
        raise IngestError(f"bad timestamp {ts_raw!r}", line)

    return student.strip(), question.strip(), kcs, int(correct_raw), ts


def ingest_csv(path, schema: ColumnSchema = ColumnSchema()) -> Dataset:
    """Parse a response log into a Dataset of per-student raw sequences."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError("no responses")
        for line, row in enumerate(reader, start=2):
            rows.append(_parse_row(row, schema, line))
    if not rows:
        raise IngestError("no responses")

    students = IdMap.from_values(r[0] for r in rows)
    questions = IdMap.from_values(r[1] for r in rows)
    kcs = IdMap.from_values(k for r in rows for k in r[2])

    by_student: dict[int, list[tuple[int, Response]]] = {
        i: [] for i in range(len(students))
    }
    for student, question, kc_names, correct, ts in rows:
        sid = students.to_dense[student]
        qid = questions.to_dense[question]
        kc_ids = tuple(sorted({kcs.to_dense[k] for k in kc_names}))
        by_student[sid].append((ts, Response(qid, kc_ids, correct, ts)))

    sequences = []
    for sid in range(len(students)):
        entries = by_student[sid]
        entries.sort(key=lambda e: e[0])  # stable: ties keep file order
        responses = [r for _, r in entries]
        if schema.timestamp_is_order:
            responses = [replace(r, timestamp=i + 1)
                         for i, r in enumerate(responses)]
        sequences.append(ResponseSequence(sid, responses, len(responses)))

    return Dataset(
        sequences=sequences,
        students=students,
        questions=questions,
        kcs=kcs,
        seq_len=None,
    )


def preprocess(ds: Dataset, seq_len: int = 100, min_len: int = 10) -> Dataset:
    """Split each student history into fixed-length padded subsequences.

    Consecutive chunks of `seq_len` responses; a trailing chunk with fewer
    than `min_len` real responses is dropped, otherwise it is suffix-padded
    with sentinel responses (question id |Q|, KC id |C|, correct 0, timestamp
    of the last real response) and masked downstream via `valid_len`.
    Requires 1 <= min_len <= seq_len.
    """
    if not 1 <= min_len <= seq_len:
        raise ValueError(f"preprocess needs 1 <= min_len <= seq_len, got "
                         f"seq_len={seq_len}, min_len={min_len}")
    pad_q = ds.padding_question()
    pad_kc = ds.padding_kc()
    out = []
    for seq in ds.sequences:
        real = seq.real()
        for start in range(0, len(real), seq_len):
            chunk = real[start:start + seq_len]
            if len(chunk) < min_len:
                continue
            valid = len(chunk)
            if valid < seq_len:
                pad = Response(pad_q, (pad_kc,), 0, chunk[-1].timestamp)
                chunk = chunk + [pad] * (seq_len - valid)
            out.append(ResponseSequence(seq.student, chunk, valid))
    return Dataset(
        sequences=out,
        students=ds.students,
        questions=ds.questions,
        kcs=ds.kcs,
        seq_len=seq_len,
    )


def make_folds(ds: Dataset, k: int = 5, val_frac: float = 0.1,
               seed: int = 0) -> list[FoldSplit]:
    """Deterministic k-fold split over sequences with a validation slice.

    Test folds partition the sequence set; within each fold's training pool,
    the first `val_frac` fraction (after a seeded shuffle) becomes the
    validation set.
    """
    n = len(ds.sequences)
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} sequences")
    if k < 2:
        raise ValueError("k must be at least 2")
    if not 0.0 <= val_frac < 1.0:
        raise ValueError(f"val_frac must lie in [0, 1), got {val_frac}")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test = perm[start:start + size]
        start += size
        pool = np.concatenate([perm[: start - size], perm[start:]])
        n_val = int(len(pool) * val_frac)
        folds.append(FoldSplit(
            fold=i,
            train=tuple(int(x) for x in sorted(pool[n_val:])),
            val=tuple(int(x) for x in sorted(pool[:n_val])),
            test=tuple(int(x) for x in sorted(test)),
        ))
    return folds

