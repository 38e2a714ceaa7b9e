"""Tape engine: op gradients, constraints, Adam, checkpoints."""

import gc
import io
import json
import math
import pickle
import re
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkt import engine as E
from tests.oracles import (constrain_nonneg_matrix, constrain_nonneg_vector,
                           sigmoid_two_masks, sum_axis)


def numeric_grad(build, store, name, h=1e-6):
    value = store.value(name)
    out = np.zeros_like(value)
    for i in range(value.size):
        orig = value.flat[i]
        value.flat[i] = orig + h
        lp = build(store.bind()).value.item()
        value.flat[i] = orig - h
        lm = build(store.bind()).value.item()
        value.flat[i] = orig
        out.flat[i] = (lp - lm) / (2.0 * h)
    store._bound = None
    E.stop_tape()
    return out


def analytic_grad(build, store, name):
    store.zero_grad()
    bound = store.bind()
    store.backward(build(bound))
    return store[name].grad.copy()


OPS = {
    "matmul_sigmoid": lambda b, c: E.sum_all(E.mul(
        E.sigmoid(E.matmul(b["W"], c["x"])), c["y"])),
    "relu_chain": lambda b, c: E.sum_all(E.relu(E.add(
        E.matmul(c["x"], b["W"]), c["b0"]))),
    "softplus": lambda b, c: E.sum_all(E.mul(E.softplus(b["W"]), c["s"])),
    "softmax_rows": lambda b, c: E.sum_all(E.mul(E.softmax(b["W"], axis=-1), c["s"])),
    "softmax_cols": lambda b, c: E.sum_all(E.mul(E.softmax(b["W"], axis=0), c["s"])),
    "exp_clamped": lambda b, c: E.sum_all(E.clamped_exp(E.mul(E.relu(b["W"]), -1.0))),
    "log_clip": lambda b, c: E.sum_all(E.log(E.clip(E.sigmoid(b["W"]), 1e-7, 1 - 1e-7))),
    "transpose_mix": lambda b, c: E.sum_all(E.matmul(E.transpose(b["W"]), c["x4"])),
    "transpose_stack": lambda b, c: E.sum_all(E.mul(E.transpose(E.stack(
        [b["W"], E.sigmoid(b["W"])])), c["s2x"])),
    "concat_slice": lambda b, c: E.sum_all(E.slice_cols(
        E.concat([b["W"], E.mul(b["W"], 2.0)], axis=1), 2, 7)),
    "gather_scatter": lambda b, c: E.sum_all(E.mul(E.scatter_rows(
        E.gather_rows(b["W"], [2, 0]), [1, 3], 5), c["s5"])),
    "submatrix": lambda b, c: E.sum_all(E.mul(
        E.gather_submatrix(b["W"], np.ix_([0, 3], [1, 2])), c["s2"])),
    "sum_axis": lambda b, c: E.sum_all(E.mul(sum_axis(b["W"], 0), c["row"])),
    "reshape": lambda b, c: E.sum_all(E.mul(E.reshape(
        E.sigmoid(b["W"]), (2, 8)), c["t28"])),
    "stack": lambda b, c: E.sum_all(E.mul(E.stack(
        [b["W"], E.mul(b["W"], 2.0), E.sigmoid(b["W"])]), c["s3"])),
    "matmul_stack_2d": lambda b, c: E.sum_all(E.mul(E.matmul(
        E.stack([b["W"], E.sigmoid(b["W"])]), c["x"]), c["s2x"])),
    "matmul_2d_stack": lambda b, c: E.sum_all(E.mul(E.matmul(
        c["x"], E.stack([E.softplus(b["W"]), b["W"]])), c["s2x"])),
    "matmul_bcast_left": lambda b, c: E.sum_all(E.mul(
        E.matmul(b["W"], c["x3"]), c["s2x"])),
    "matmul_bcast_right": lambda b, c: E.sum_all(E.mul(
        E.matmul(c["x3"], b["W"]), c["s2x"])),
    "matmul_stack_stack": lambda b, c: E.sum_all(E.mul(E.matmul(
        E.stack([b["W"], E.mul(b["W"], c["s"])]),
        E.stack([E.sigmoid(b["W"]), c["x"]])), c["s2x"])),
    "submatrix_stacked": lambda b, c: E.sum_all(E.mul(E.gather_submatrix(
        E.stack([b["W"], E.sigmoid(b["W"])]),
        (slice(None), *np.ix_([3, 0, 3], [1, 2]))), c["s232"])),
    # two transposed padded blocks of the stack, (2 keys, 2 graphs, 3, 2)
    "submatrix_batched": lambda b, c: E.sum_all(E.mul(E.gather_submatrix(
        E.stack([b["W"], E.sigmoid(b["W"])]),
        (slice(None), np.array([[1, 2], [0, 0]])[:, None, None, :],
         np.array([[3, 0, 3], [2, 1, 0]])[:, None, :, None])), c["s2232"])),
    "submatrix_column": lambda b, c: E.sum_all(E.mul(E.gather_submatrix(
        b["W"], (np.array([[2]]), np.arange(4)[:, None])), c["col"])),
    # the left operand broadcast over a batch axis of the right one
    "matmul_stack_bcast_batch": lambda b, c: E.sum_all(E.mul(E.matmul(
        E.stack([b["W"], E.sigmoid(b["W"])]), c["x32"]), c["x32"])),
    "matmul_bcast_size1_axis": lambda b, c: E.sum_all(E.mul(E.matmul(
        E.reshape(b["W"], (2, 1, 2, 4)), E.stack([c["x"], c["y"]])),
        c["s2224"])),
}


@pytest.mark.parametrize("op_name", sorted(OPS))
def test_op_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**32)
    store = E.ParameterStore()
    store.add("W", rng.normal(0.5, 1.0, size=(4, 4)))
    consts = {
        "x": rng.normal(size=(4, 4)),
        "y": rng.normal(size=(4, 4)),
        "b0": rng.normal(size=(1, 4)),
        "s": rng.normal(size=(4, 4)),
        "s5": rng.normal(size=(5, 4)),
        "s2": rng.normal(size=(2, 2)),
        "x4": rng.normal(size=(4, 4)),
        "row": rng.normal(size=(1, 4)),
        "t28": rng.normal(size=(2, 8)),
        "s2232": rng.normal(size=(2, 2, 3, 2)),
        "col": rng.normal(size=(4, 1)),
        "x32": rng.normal(size=(3, 2, 4, 4)),
        "s2224": rng.normal(size=(2, 2, 2, 4)),
        "s3": rng.normal(size=(3, 4, 4)),
        "s2x": rng.normal(size=(2, 4, 4)),
        "x3": rng.normal(size=(2, 4, 4)),
        "s232": rng.normal(size=(2, 3, 2)),
    }
    build = lambda bound: OPS[op_name](bound, consts)
    a = analytic_grad(build, store, "W")
    n = numeric_grad(build, store, "W")
    assert np.abs(a - n).max() < 1e-7


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_is_bitwise_the_two_mask_formula(dtype):
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.normal(0.0, 5.0, size=997), rng.normal(size=50),
                        [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.0,
                         -36.0, np.inf, -np.inf]]).astype(dtype)
    for shape in ((1057,), (7, 151), (151, 7, 1)):
        got = E.sigmoid(x.reshape(shape)).value
        assert got.dtype == dtype and got.shape == shape
        assert got.tobytes() == sigmoid_two_masks(x.reshape(shape)).tobytes()
    # a 0-d input keeps its shape
    for v in (2.5, -2.5):
        got = E.sigmoid(np.asarray(v, dtype=dtype)).value
        assert got.shape == () and got == sigmoid_two_masks(
            np.asarray([v], dtype=dtype))[0]


def test_scatter_rows_refuses_repeated_rows_sorted_or_not():
    rows = np.ones((4, 2))
    for idx in ([0, 1, 1, 3], [3, 1, 0, 1], [2, 2, 2, 2], [5, 0, 3, 0]):
        with pytest.raises(ValueError, match="unique"):
            E.scatter_rows(rows, idx, 6)
    for idx in ([0, 1, 2, 5], [5, 0, 3, 1]):  # increasing, or unique unsorted
        out = E.scatter_rows(rows * np.arange(1, 5)[:, None], idx, 6).value
        assert out[idx, 0].tolist() == [1, 2, 3, 4]


def test_transpose_swaps_the_last_two_axes():
    rng = np.random.default_rng(4)
    mat = np.asfortranarray(rng.normal(size=(3, 5)))
    out = E.transpose(mat).value
    assert out.flags.c_contiguous
    assert out.tobytes() == mat.T.copy().tobytes()
    stack = rng.normal(size=(2, 3, 5))
    out = E.transpose(stack).value
    assert out.flags.c_contiguous and out.shape == (2, 5, 3)
    assert np.array_equal(out, np.stack([m.T for m in stack]))


def test_unused_parameter_gets_zero_gradient():
    store = E.ParameterStore()
    store.add("used", np.ones((2, 2)))
    store.add("unused", np.ones((2, 2)))
    bound = store.bind()
    store.backward(E.sum_all(E.mul(bound["used"], 3.0)))
    assert np.array_equal(store["unused"].grad, np.zeros((2, 2)))
    assert np.array_equal(store["used"].grad, np.full((2, 2), 3.0))


def test_backward_requires_scalar():
    store = E.ParameterStore()
    store.add("W", np.ones((2, 2)))
    bound = store.bind()
    with pytest.raises(ValueError):
        store.backward(E.mul(bound["W"], 2.0))


def test_backward_without_forward_errors():
    store = E.ParameterStore()
    store.add("W", np.ones((2, 2)))
    bound = store.bind()
    loss = E.sum_all(bound["W"])
    store.backward(loss)
    with pytest.raises(RuntimeError):
        store.backward(loss)


def test_shared_subexpression_accumulates():
    # z used twice: d/dW of sum(z + z) = 2
    store = E.ParameterStore()
    store.add("W", np.ones((3, 3)))
    bound = store.bind()
    z = E.mul(bound["W"], 1.0)
    store.backward(E.sum_all(E.add(z, z)))
    assert np.array_equal(store["W"].grad, np.full((3, 3), 2.0))


# -- constrained parameterizations -----------------------------------------
# BatchCache constrains the (1, d_k) mastery projection `w_h` with a softmax
# over its last axis and the retrieval head's (G, d, d) weight stack with a
# softmax over axis 1, each graph's columns


def projection(raw):
    return E.softmax(E.as_node(np.array([raw], dtype=np.float64)),
                     axis=-1).value.ravel()


def column_mix(raw_stack):
    return E.softmax(E.as_node(np.asarray(raw_stack, dtype=np.float64)),
                     axis=1).value


def test_constrain_vector_uniform_at_zero():
    out = projection(np.zeros(4))
    assert np.allclose(out, [0.25, 0.25, 0.25, 0.25], atol=0, rtol=0)


def test_constrain_vector_closed_form():
    out = projection([math.log(2.0), 0.0])
    assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_constrain_vector_positive_and_normalized(raw):
    out = projection(raw)
    assert (out > 0).all()
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.array_equal(out, constrain_nonneg_vector(raw))


def test_constrain_matrix_uniform_at_zero():
    out = column_mix(np.zeros((3, 2, 2)))
    assert np.allclose(out, 0.5, atol=0, rtol=0)


def test_constrain_matrix_column_closed_form():
    raw = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
    out = column_mix([np.zeros((2, 2)), raw])
    assert abs(out[1, 0, 0] - 0.75) < 1e-15
    assert abs(out[1, 1, 0] - 0.25) < 1e-15
    assert np.allclose(out[0], 0.5, atol=0, rtol=0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_constrain_matrix_columns_sum_to_one(seed):
    raw = np.random.default_rng(seed).normal(0, 5, size=(3, 4, 4))
    out = column_mix(raw)
    assert (out > 0).all()
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    for g in range(3):
        assert np.array_equal(out[g], constrain_nonneg_matrix(raw[g]))


# -- optimizer ---------------------------------------------------------------


def test_adam_zero_gradient_leaves_parameters():
    store = E.ParameterStore()
    store.add("W", np.full((2, 2), 1.5))
    before = store.value("W").copy()
    store.adam_step(lr=0.1)
    assert np.array_equal(store.value("W"), before)


def test_adam_first_step_moves_by_lr():
    store = E.ParameterStore()
    store.add("w", np.zeros((1, 1)))
    store["w"].grad[...] = 1.0
    store.adam_step(lr=0.05)
    # bias-corrected first step: delta = -lr * g / (|g| + eps)
    assert abs(store.value("w").item() + 0.05) < 1e-8


def test_l2_joins_gradient_before_moments():
    store = E.ParameterStore()
    store.add("w", np.full((1, 1), 2.0))
    store.adam_step(lr=0.01, l2=0.5)
    # zero loss gradient, effective gradient = l2 * theta = 1.0 > 0: moves down
    assert store.value("w").item() < 2.0


def test_training_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        store = E.ParameterStore()
        store.add("W", rng.normal(size=(3, 3)))
        x = rng.normal(size=(3, 3))
        for _ in range(5):
            store.zero_grad()
            bound = store.bind()
            store.backward(E.sum_all(E.sigmoid(E.matmul(bound["W"], x))))
            store.adam_step(lr=1e-2, l2=1e-4)
        return store.value("W").copy()

    a, b = run(), run()
    assert np.array_equal(a, b)


# -- checkpoint io -----------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for dtype in (np.float64, np.float32):
        rng = np.random.default_rng(0)
        store = E.ParameterStore(dtype=dtype)
        store.add("B", rng.normal(size=(2, 2)) * 1e12)
        store.add("A", rng.normal(size=(3, 4)) * 1e-17)
        store.step_count = 5
        path = tmp_path / "ck.json"  # written as is: numpy adds no ".npz"
        store.save(path, {"hyper": {"d_e": 4, "note": "x"}, "seed": 42})
        loaded, fields = E.ParameterStore.load(path)
        assert fields == {"hyper": {"d_e": 4, "note": "x"}, "seed": 42}
        assert loaded.names() == ["B", "A"] and loaded.step_count == 5
        assert loaded.dtype == np.dtype(dtype)
        for name in store.names():
            want, got = store.value(name), loaded.value(name)
            assert got.dtype == np.dtype(dtype) and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_checkpoint_header_name_is_not_a_parameter_name():
    with pytest.raises(ValueError, match="reserved"):
        E.ParameterStore().add(E._HEADER, np.zeros(1))


UNPICKLED = []


def _unpickled():
    UNPICKLED.append(True)
    return 0.0


class Tripwire:
    """Records it if anything ever unpickles it."""

    def __reduce__(self):
        return _unpickled, ()


def _binary(write):
    """A writer that calls `write(fh)` on the path opened for writing."""
    def to(path):
        with open(path, "wb") as fh:
            write(fh)
    return to


def _archive(path, header, **arrays):
    entry = header if isinstance(header, np.ndarray) \
        else np.array(json.dumps(header))
    with open(path, "wb") as fh:
        np.savez(fh, **{E._HEADER: entry}, **arrays)


def _zip(path, raw, header=None):
    """An archive whose `raw` entries are bytes, not npy arrays."""
    with zipfile.ZipFile(path, "w") as archive:
        if header is not None:
            buf = io.BytesIO()
            np.save(buf, np.array(json.dumps(header)))
            archive.writestr(E._HEADER + ".npy", buf.getvalue())
        for name, data in raw.items():
            archive.writestr(name + ".npy", data)


def _header(**changes):
    return {"format": E.ParameterStore.FORMAT,
            "version": E.ParameterStore.VERSION, "names": ["W"],
            "step_count": 0, **changes}


# files `ParameterStore.load` must refuse, each written to a given path
REJECTED_CHECKPOINTS = {
    "version-1-json": lambda p: p.write_text(json.dumps({
        "format": "graphkt-checkpoint", "version": 1, "dtype": "float64",
        "hyper": {}, "seed": 0, "step_count": 0,
        "arrays": [{"name": "W", "shape": [1], "hex": ["0x1.0p+0"]}]})),
    "other-json": lambda p: p.write_text(
        '{"format": "something-else", "version": 1}'),
    "text": lambda p: p.write_text("W = 1.0\n"),
    "empty": lambda p: p.write_bytes(b""),
    "pickle": lambda p: p.write_bytes(pickle.dumps(Tripwire())),
    "single-array": _binary(lambda fh: np.save(fh, np.zeros(3))),
    "broken-zip": lambda p: p.write_bytes(b"PK\x03\x04 not an archive"),
    "no-header": _binary(lambda fh: np.savez(fh, W=np.zeros(3))),
    "header-not-an-object": lambda p: _archive(p, ["W"], W=np.zeros(3)),
    "header-object-array": lambda p: _archive(
        p, np.array(Tripwire(), dtype=object), W=np.zeros(3)),
    "object-parameter": lambda p: _archive(
        p, _header(), W=np.array([Tripwire()], dtype=object)),
    "other-format": lambda p: _archive(p, _header(format="other"),
                                       W=np.zeros(3)),
    "other-version": lambda p: _archive(p, _header(version=1),
                                        W=np.zeros(3)),
    "missing-array": lambda p: _archive(p, _header(names=["W", "V"]),
                                        W=np.zeros(3)),
    "raw-header": lambda p: _zip(p, {E._HEADER: json.dumps(_header())}),
    "raw-parameter": lambda p: _zip(p, {"W": b"\x00" * 8}, _header()),
}


def test_checkpoint_rejects_other_files(tmp_path):
    for case, write in REJECTED_CHECKPOINTS.items():
        path = tmp_path / f"{case}.ck"
        write(path)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            E.ParameterStore.load(path)
    assert not UNPICKLED


# -- grad_check harness -------------------------------------------------------


def test_grad_check_passes_linear_head():
    rng = np.random.default_rng(5)
    store = E.ParameterStore()
    store.add("W", rng.normal(size=(4, 4)))
    x = rng.normal(size=(2, 4))

    def build(bound):
        return E.sum_all(E.matmul(x, bound["W"]))

    report = E.grad_check(store, build, np.random.default_rng(0),
                          n_coords=16, tolerance=1e-8)
    assert report.passed
    assert report.n_checked == 16


def test_grad_check_detects_wrong_gradient(monkeypatch):
    rng = np.random.default_rng(6)
    store = E.ParameterStore()
    store.add("W", rng.normal(size=(3, 3)))

    def bad_square(a):
        a = E.as_node(a)
        # deliberately wrong vjp (factor 3 instead of 2)
        return E._make(a.value ** 2, ((a, lambda g: 3.0 * g * a.value),))

    def build(bound):
        return E.sum_all(bad_square(bound["W"]))

    report = E.grad_check(store, build, np.random.default_rng(0), n_coords=9)
    assert not report.passed


def test_grad_check_zero_tolerance_always_fails_nonlinear():
    rng = np.random.default_rng(7)
    store = E.ParameterStore()
    store.add("W", rng.normal(size=(3, 3)))

    def build(bound):
        return E.sum_all(E.sigmoid(bound["W"]))

    report = E.grad_check(store, build, np.random.default_rng(0),
                          n_coords=9, tolerance=0.0)
    assert not report.passed


def test_grad_check_skips_gate_flips():
    store = E.ParameterStore()
    store.add("w", np.zeros((1, 1)))

    def build(bound):
        # discrete branch on the sign of w: non-smooth at exactly 0
        E.log_gate(b"\x01" if store.value("w").item() > 0 else b"\x00")
        return E.sum_all(E.mul(bound["w"], 2.0))

    report = E.grad_check(store, build, np.random.default_rng(0),
                          n_coords=1, max_attempts=8)
    assert report.n_checked == 0
    assert report.n_skipped == 8
    assert not report.passed  # nothing was checked


# -- sparse gather gradients --------------------------------------------------


def _dense_gather_rows(a, idx):
    """Reference gather with a dense vjp: a zeroed full array plus add.at."""
    a = E.as_node(a)
    if type(idx) is not slice:
        idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return out

    return E._make(a.value[idx], ((a, vjp),))


def _dense_gather_submatrix(a, ix):
    """Reference block gather with a dense vjp, through the engine's flat
    index (a batch of stacked blocks has no numpy `a[ix]` equivalent)."""
    a = E.as_node(a)
    flat = E._flat_index(a.value.shape, ix)

    def vjp(g):
        out = np.zeros(a.value.size, dtype=a.value.dtype)
        np.add.at(out, flat.ravel(), g.ravel())
        return out.reshape(a.value.shape)

    return E._make(a.value.take(flat), ((a, vjp),))


def _with_dense_gathers(monkeypatch, fn):
    """Run `fn` with the reference dense-vjp gathers patched into the engine."""
    with monkeypatch.context() as m:
        m.setattr(E, "gather_rows", _dense_gather_rows)
        m.setattr(E, "gather_submatrix", _dense_gather_submatrix)
        return fn()


def test_gather_rows_sums_like_add_at():
    rng = np.random.default_rng(11)
    idx = [3, 1, 3, 3, 0, 1]
    store = E.ParameterStore()
    store.add("W", rng.normal(size=(6, 3)))
    weights = rng.normal(size=(6, 3))
    bound = store.bind()
    store.backward(E.sum_all(E.mul(E.gather_rows(bound["W"], idx), weights)))
    expected = np.zeros((6, 3))
    np.add.at(expected, idx, weights)
    assert np.array_equal(store["W"].grad, expected)


def test_gather_rows_of_a_slice_is_a_view_with_the_index_gradient():
    rng = np.random.default_rng(13)
    store = E.ParameterStore()
    store.add("W", rng.normal(size=(6, 3)))
    weights = rng.normal(size=(2, 3, 3))

    def grad(first, second):  # two overlapping reads
        store.zero_grad()
        bound = store.bind()
        parts = [E.gather_rows(bound["W"], idx) for idx in (first, second)]
        if type(first) is slice:
            assert all(np.shares_memory(p.value, bound["W"].value)
                       for p in parts)
        store.backward(E.sum_all(E.mul(E.stack(parts), weights)))
        return store["W"].grad.copy()

    assert np.array_equal(grad(slice(1, 4), slice(2, 5)),
                          grad([1, 2, 3], [2, 3, 4]))


def test_gather_submatrix_sums_like_add_at():
    rng = np.random.default_rng(12)
    store = E.ParameterStore()
    store.add("W", rng.normal(size=(4, 4)))
    ix = np.ix_([2, 0, 2], [1, 1])
    weights = rng.normal(size=(3, 2))
    bound = store.bind()
    store.backward(E.sum_all(E.mul(E.gather_submatrix(bound["W"], ix), weights)))
    expected = np.zeros((4, 4))
    np.add.at(expected, ix, weights)
    assert np.array_equal(store["W"].grad, expected)


def test_stacked_gather_submatrix_sums_like_add_at():
    rng = np.random.default_rng(16)
    store = E.ParameterStore()
    store.add("A", rng.normal(size=(3, 4, 4)))
    ix = (slice(None), *np.ix_([2, 0, 2], [1, 1, 3]))
    weights = rng.normal(size=(3, 3, 3))
    bound = store.bind()
    block = E.gather_submatrix(bound["A"], ix)
    assert np.array_equal(block.value,
                          store.value("A")[:, [2, 0, 2]][:, :, [1, 1, 3]])
    store.backward(E.sum_all(E.mul(block, weights)))
    expected = np.zeros((3, 4, 4))
    np.add.at(expected, ix, weights)
    assert np.array_equal(store["A"].grad, expected)


# the same blocks of a matrix and of a stack, with repeated rows and columns
BLOCKS = {
    "2d": ((4, 5), np.ix_([2, 0, 2], [1, 1, 4])),
    "stacked": ((3, 4, 5), (slice(None), *np.ix_([2, 0, 2], [1, 1, 4]))),
    "stacked_all_cols": ((3, 6, 7), (slice(None), *np.ix_([1, 3, 4],
                                                          np.arange(7)))),
    "stacked_transposed": ((3, 4, 5), (slice(None), *(
        i.T for i in np.ix_([2, 0, 2], [1, 1, 4])))),
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_gathered_block_is_c_contiguous_and_exact(block, order):
    shape, ix = BLOCKS[block]
    a = np.asarray(np.random.default_rng(19).normal(size=shape), order=order)
    value = E.gather_submatrix(a, ix).value
    assert value.flags.c_contiguous
    assert np.array_equal(value, a[ix])


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_block_gradient_of_a_fortran_ordered_leaf_sums_like_add_at(block):
    # raveling an F-ordered buffer copies it; the add must not land there
    shape, ix = BLOCKS[block]
    rng = np.random.default_rng(20)
    store = E.ParameterStore()
    store.add("A", np.asfortranarray(rng.normal(size=shape)))
    assert not store.value("A").flags.c_contiguous
    weights = rng.normal(size=store.value("A")[ix].shape)
    bound = store.bind()
    store.backward(E.sum_all(E.mul(E.gather_submatrix(bound["A"], ix),
                                   weights)))
    expected = np.zeros(shape)
    np.add.at(expected, ix, weights)
    assert np.array_equal(bound["A"].grad, expected)
    assert np.array_equal(store["A"].grad, expected)


def test_block_gradient_after_fortran_ordered_dense_contributions():
    # two transpose vjps leave an owned F-ordered sum before the block's add
    rng = np.random.default_rng(21)
    shape, ix = BLOCKS["2d"]
    store = E.ParameterStore()
    store.add("W", rng.normal(size=shape))
    weights, x, y = (rng.normal(size=s) for s in ((3, 3), shape[::-1],
                                                  shape[::-1]))
    bound = store.bind()
    block = E.gather_submatrix(bound["W"], ix)
    loss = E.add(E.add(E.sum_all(E.mul(block, weights)),
                       E.sum_all(E.mul(E.transpose(bound["W"]), x))),
                 E.sum_all(E.mul(E.transpose(bound["W"]), y)))
    store.backward(loss)
    expected = x.T + y.T
    np.add.at(expected, ix, weights)
    assert np.array_equal(store["W"].grad, expected)


def test_block_gradient_refuses_a_buffer_it_cannot_ravel_in_place():
    grad = E.SparseGrad(np.ix_([0], [1]), np.ones((1, 1)))
    with pytest.raises(ValueError, match="C-ordered"):
        grad.add_into(np.zeros((3, 4), order="F"))


def test_gather_submatrix_rejects_an_index_of_the_wrong_rank():
    with pytest.raises(ValueError, match="np.ix_ pair"):
        E.gather_submatrix(np.zeros((2, 3, 3)), np.ix_([0], [1]))


def test_matmul_of_2d_operands_is_unchanged():
    # stacks go through swapaxes/_unbroadcast; plain matrices must get the
    # same bits as the 2-D formulas
    rng = np.random.default_rng(17)
    a_val, b_val = rng.normal(size=(5, 3)), rng.normal(size=(3, 4))
    g = rng.normal(size=(5, 4))
    node = E.matmul(E.Node(a_val, requires_grad=True),
                    E.Node(b_val, requires_grad=True))
    (_, vjp_a), (_, vjp_b) = node.edges
    assert np.array_equal(node.value, a_val @ b_val)
    assert np.array_equal(vjp_a(g), g @ b_val.T)
    assert np.array_equal(vjp_b(g), a_val.T @ g)


def test_dense_and_sparse_contributions_match_dense_reference(monkeypatch):
    # memory H feeds gathers (sparse vjps) and adds (dense vjps), interleaved
    rng = np.random.default_rng(13)
    store = E.ParameterStore()
    store.add("H0", rng.normal(size=(6, 3)))
    store.add("U", rng.normal(size=(6, 3)))
    store.add("W", rng.normal(size=(3, 3)))

    def build(bound):
        H = bound["H0"]
        terms = []
        for rows in ([0, 2], [1, 2, 5], [4], [0, 3, 5]):
            picked = E.gather_rows(H, rows)
            terms.append(E.sum_all(E.sigmoid(E.matmul(picked, bound["W"]))))
            H = E.add(E.mul(H, 0.9), E.mul(bound["U"], 0.1))
        block = E.gather_submatrix(H, np.ix_([1, 4], [0, 2]))
        terms.append(E.sum_all(E.mul(block, block)))
        total = terms[0]
        for term in terms[1:]:
            total = E.add(total, term)
        return total

    def grads():
        store.zero_grad()
        store.backward(build(store.bind()))
        return {n: store[n].grad.copy() for n in store.names()}

    sparse = grads()
    dense = _with_dense_gathers(monkeypatch, grads)
    for name in store.names():
        assert np.abs(sparse[name] - dense[name]).max() < 1e-12, name


def test_leaf_with_only_sparse_contributions_is_settled():
    store = E.ParameterStore()
    store.add("W", np.arange(12.0).reshape(4, 3))
    bound = store.bind()
    loss = E.sum_all(E.add(E.gather_rows(bound["W"], [2, 0]),
                           E.gather_rows(bound["W"], [2, 2])))
    E.backward(loss)
    expected = np.zeros((4, 3))
    expected[0] = 1.0
    expected[2] = 3.0
    assert np.array_equal(bound["W"].grad, expected)


def test_backward_requires_the_recording_to_end_at_the_loss():
    store = E.ParameterStore()
    store.add("W", np.ones((2, 2)))
    bound = store.bind()
    loss = E.sum_all(E.mul(bound["W"], 2.0))
    E.mul(bound["W"], 3.0)  # recorded after the loss
    with pytest.raises(RuntimeError, match="does not end at the loss"):
        E.backward(loss)
    store.release()
    with pytest.raises(RuntimeError, match="does not end at the loss"):
        E.backward(loss)  # no recording at all
    assert bound["W"].grad is None


def test_gather_vjp_from_edges_is_callable():
    # tracing wraps the vjps in Node.edges: each must stay a plain callable
    # whose result backward accepts
    rng = np.random.default_rng(14)
    store = E.ParameterStore()
    store.add("W", rng.normal(size=(4, 4)))
    bound = store.bind()
    rows = E.gather_rows(bound["W"], [1, 3])
    block = E.gather_submatrix(bound["W"], np.ix_([0, 2], [1, 3]))
    for node, index in ((rows, np.array([1, 3])), (block, np.ix_([0, 2], [1, 3]))):
        (parent, vjp), = node.edges
        assert parent is bound["W"] and callable(vjp)
        g = rng.normal(size=node.value.shape)
        out = np.zeros((4, 4))
        vjp(g).add_into(out)
        expected = np.zeros((4, 4))
        np.add.at(expected, index, g)
        assert np.array_equal(out, expected)
    store.release()


def test_model_gradients_match_dense_reference_and_repeat(monkeypatch):
    from graphkt.model import GrktModel, HyperParams
    from graphkt.train import bce_loss_node
    from tests.conftest import random_graphs, random_sequence

    rng = np.random.default_rng(15)
    n_kcs, n_q = 9, 7
    hp = HyperParams(d_e=4, d_k=3, d_h=5, layers=2, seed=3)
    model = GrktModel(hp, n_q, n_kcs, random_graphs(rng, n_kcs, 6, 6))
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.normal(0.0, 0.7, size=arr.shape)
    seqs = [random_sequence(rng, n_q, n_kcs, 8, student=s, max_kcs=3)
            for s in range(3)]

    def grads():
        store = model.store
        store.zero_grad()
        _, cache = model.begin("train")
        preds = []
        for seq in seqs:
            preds.extend(model.forward_sequence(seq, cache).preds)
        store.backward(bce_loss_node(preds))
        return {n: store[n].grad.copy() for n in store.names()}

    first, second = grads(), grads()
    dense = _with_dense_gathers(monkeypatch, grads)
    for name in model.store.names():
        assert np.array_equal(first[name], second[name]), name
        assert np.abs(first[name] - dense[name]).max() < 1e-12, name
    assert any(np.any(first[n] != 0) for n in model.store.names()
               if n.startswith("gnn.prg"))  # stage 3 gave some progress


# -- recording lifetime ------------------------------------------------------


def test_no_grad_bind_starts_no_recording():
    store = E.ParameterStore()
    store.add("W", np.ones((2, 2)))
    with E.no_grad():
        store.bind()
    assert E._TAPE is None and store._bound is None


def test_no_grad_bind_keeps_a_running_recording():
    store = E.ParameterStore()
    store.add("W", np.ones((2, 2)))
    bound = store.bind()
    loss = E.sum_all(E.mul(bound["W"], 2.0))
    with E.no_grad():
        store.bind()
    store.backward(loss)
    assert np.array_equal(store["W"].grad, np.full((2, 2), 2.0))
    assert E._TAPE is None


def test_failed_backward_stops_recording():
    store = E.ParameterStore()
    store.add("W", np.ones((2, 2)))
    bound = store.bind()
    with pytest.raises(ValueError):
        store.backward(E.mul(bound["W"], 2.0))
    assert E._TAPE is None and store._bound is None



# -- collector pause and the consuming sweep ----------------------------------


def _failed_backward(store, loss):
    with pytest.raises(ValueError):
        store.backward(E.mul(loss, np.ones(2)))  # not a scalar


@pytest.mark.parametrize("end", [
    lambda store, loss: store.backward(loss),
    lambda store, loss: store.release(),
    _failed_backward,
], ids=["backward", "release", "failed_backward"])
@pytest.mark.parametrize("enabled", [True, False])
def test_collector_is_paused_while_a_recording_is_live(collector, enabled, end):
    collector(enabled)
    store = E.ParameterStore()
    store.add("W", np.ones((2, 2)))
    with E.no_grad():
        store.bind()
    assert gc.isenabled() == enabled  # no recording, no pause
    bound = store.bind()
    assert not gc.isenabled()
    bound = store.bind()  # a fresh recording keeps the state saved first
    assert not gc.isenabled()
    end(store, E.sum_all(E.mul(bound["W"], 2.0)))
    assert gc.isenabled() == enabled
    assert E._TAPE is None


def _reference_backward(root):
    """The sweep without consuming the recording, as an oracle."""
    root.grad = np.ones_like(root.value)
    owned = set()

    def add(parent, contrib):
        grad = parent.grad
        if type(contrib) is E.SparseGrad:
            if id(parent) not in owned:
                grad = parent.grad = np.zeros_like(parent.value) \
                    if grad is None else grad.copy()
                owned.add(id(parent))
            contrib.add_into(grad)
        elif grad is None:
            parent.grad = contrib
        elif (id(parent) in owned and contrib.shape == grad.shape
              and contrib.dtype == grad.dtype):
            grad += contrib
            parent.grad = grad
        else:
            parent.grad = grad + contrib
            owned.add(id(parent))

    for node in reversed(E._TAPE):
        if node.grad is None:
            continue
        for parent, vjp in node.edges:
            add(parent, vjp(node.grad))


def test_backward_consumes_the_recording_and_keeps_leaf_grads_bitwise():
    from graphkt.model import GrktModel, HyperParams
    from graphkt.train import bce_loss_node
    from tests.conftest import random_graphs, random_sequence

    rng = np.random.default_rng(18)
    hp = HyperParams(d_e=4, d_k=3, d_h=5, layers=2, seed=4)
    model = GrktModel(hp, 7, 9, random_graphs(rng, 9, 6, 6))
    for name in model.store.names():
        arr = model.store.value(name)
        arr[...] = rng.normal(0.0, 0.7, size=arr.shape)
    seqs = [random_sequence(rng, 7, 9, 8, student=s, max_kcs=3)
            for s in range(3)]

    def forward():
        bound, cache = model.begin("train")
        preds = []
        for seq in seqs:
            preds.extend(model.forward_sequence(seq, cache).preds)
        return bound, bce_loss_node(preds)

    bound, loss = forward()
    _reference_backward(loss)
    want = {name: leaf.grad for name, leaf in bound.items()}
    model.store.release()

    bound, loss = forward()
    recorded = list(E._TAPE)
    E.backward(loss)
    assert E._TAPE == []
    assert all(node.edges == () for node in recorded)
    assert all(node.grad is None for node in recorded if node is not loss)
    assert loss.grad == 1.0
    for name, leaf in bound.items():
        assert (leaf.grad is None) == (want[name] is None), name
        if leaf.grad is not None:
            assert np.array_equal(leaf.grad, want[name]), name
    model.store.release()


# -- right-operand products ---------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_right_operand_products_reduce_to_the_per_pair_sum(dtype):
    # W is the right operand of 2-D, stacked and mixed-rank products, the
    # stack V of 2-D and stacked ones: several pairs per group, several groups
    rng = np.random.default_rng(21)
    store = E.ParameterStore(dtype=dtype)
    store.add("W", rng.normal(size=(3, 4)))
    store.add("V", rng.normal(size=(2, 3, 4)))
    lefts = [rng.normal(size=shape).astype(dtype) for shape in
             ((5, 3), (2, 3), (1, 3), (2, 4, 3), (2, 1, 3))]
    weights = {}

    def build(bound):
        terms = []
        for i, a in enumerate(lefts):
            for name in ("W", "V"):
                if a.ndim == 3 and a.shape[1] == 1 and name == "V":
                    continue
                out = E.matmul(E.as_node(a), bound[name])
                w = weights.setdefault((i, name), rng.normal(
                    size=out.value.shape).astype(dtype))
                terms.append(E.sum_all(E.mul(out, E.as_node(w))))
        loss = terms[0]
        for t in terms[1:]:
            loss = E.add(loss, t)
        return loss

    def grads():
        store.zero_grad()
        store.backward(build(store.bind()))
        return {name: store[name].grad.copy() for name in ("W", "V")}

    first, second = grads(), grads()
    want = {name: np.zeros(store.value(name).shape) for name in ("W", "V")}
    for (i, name), w in weights.items():
        # d/dB sum(w * (a @ B)) = a^T @ w, summed over any broadcast axes
        pair = np.swapaxes(lefts[i], -1, -2).astype(np.float64) @ w
        if pair.ndim > want[name].ndim:
            pair = pair.sum(axis=0)
        want[name] += pair
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for name in ("W", "V"):
        assert first[name].dtype == dtype
        assert np.array_equal(first[name], second[name]), name
        err = np.abs(first[name] - want[name]).max()
        assert err <= tol * np.abs(want[name]).max(), name


def test_right_operand_products_group_by_leading_axes():
    # a (3, 2) right operand's vjp, fed gradients with and without leading
    # axes, sums each product down to (3, 2)
    rng = np.random.default_rng(22)
    b = E.Node(rng.normal(size=(3, 2)), requires_grad=True)
    pairs = [(rng.normal(size=a), rng.normal(size=g))
             for a, g in (((4, 3), (4, 2)), ((2, 4, 3), (2, 4, 2)),
                          ((1, 3), (1, 2)), ((5, 3), (2, 5, 2)),
                          ((2, 2, 3), (2, 2, 2)))]
    parts = []
    for a, g in pairs:
        (_, vjp_b), = E.matmul(E.as_node(a), b).edges
        parts.append(vjp_b(g))
    assert all(part.shape == (3, 2) for part in parts)
    got = sum(parts)
    want = sum((np.swapaxes(a, -1, -2) @ g).reshape(-1, 3, 2).sum(axis=0)
               for a, g in pairs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # a stacked pair is multiplied and summed exactly as the plain product
    a, g = pairs[1]
    assert np.array_equal(parts[1], (np.swapaxes(a, -1, -2) @ g).sum(axis=0))


# -- what backward holds ------------------------------------------------------


def _backward_peak(n_uses: int, rows: int = 1000, d: int = 32) -> int:
    """Traced bytes allocated at the peak of a backward through a weight
    that `n_uses` matmuls share, each with a (rows, d) output gradient."""
    rng = np.random.default_rng(60)
    store = E.ParameterStore()
    store.add("W", rng.normal(size=(d, d)))
    x = E.as_node(rng.normal(size=(rows, d)))
    bound = store.bind()
    loss = E.sum_all(E.matmul(x, bound["W"]))
    for _ in range(n_uses - 1):
        loss = E.add(loss, E.sum_all(E.matmul(x, bound["W"])))
    tracemalloc.start()
    try:
        store.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = n_uses * (x.value.T @ np.ones((rows, d)))
    assert np.abs(store["W"].grad - want).max() <= 1e-12 * np.abs(want).max()
    return peak


def test_weight_gradient_uses_are_folded_as_they_arrive():
    # each use's output gradient is 256 kB; holding them until the weight
    # leaves the recording would make 64 uses peak about 8 times 8 uses
    few, many = _backward_peak(8), _backward_peak(64)
    grad_bytes = 1000 * 32 * 8
    assert many <= few + grad_bytes // 4, (few, many)


@pytest.mark.parametrize("layout", ["stacked", "batched"])
@pytest.mark.parametrize("feed_forward", [False, True])
def test_recorded_messages_keep_no_product_or_branch(layout, feed_forward):
    # K = 3 blocks of n = 5 rows, G = 2 graphs, m = 4 output rows, widths
    # 6 -> 7 -> 8: no input shares a shape with x @ w or a branch
    rng = np.random.default_rng(61)
    n_k, n_g, n_in, n_out = 3, 2, 5, 4
    store = E.ParameterStore()
    store.add("feats", rng.normal(size=(n_k, n_in, 6)))
    store.add("sub", rng.normal(size=(n_k, n_g, n_out, n_in)))
    store.add("w", rng.normal(size=(n_g, 6, 7)))
    store.add("o", rng.normal(size=(n_g, 7, 8)))
    bound = store.bind()
    feats = bound["feats"] if layout == "batched" \
        else E.reshape(bound["feats"], (n_k * n_in, 6))
    node = E.messages(feats, bound["sub"], bound["w"],
                      bound["o"] if feed_forward else None, n_blocks=n_k)
    products = {(n_k, n_g, n_in, 7), (n_k, n_g, n_out, 7),
                (n_k, n_g, n_out, 8)}

    kept, seen = [], set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            kept.append(obj)
            if obj.base is not None:
                walk(obj.base)
        elif isinstance(obj, E.Node):
            walk(obj.value)  # an input: its edges are its own node's
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                walk(cell.cell_contents)

    walk(node.edges)
    assert kept and not [a.shape for a in kept if a.shape in products]
    store.release()


# -- softplus -----------------------------------------------------------------


def test_softplus_gradient_is_the_logistic_function_without_overflow():
    x = np.array([-800.0, -710.0, -30.0, -0.5, 0.0, 0.5, 30.0, 710.0, 800.0])
    store = E.ParameterStore()
    store.add("x", x)
    bound = store.bind()
    with np.errstate(over="raise"):
        store.backward(E.sum_all(E.softplus(bound["x"])))
    grad = store["x"].grad
    assert np.isfinite(grad).all()
    assert np.abs(grad - sigmoid_two_masks(x)).max() <= 1e-15


# -- fused chains -------------------------------------------------------------
# each fused op against the chain of primitives it replaces: values, every
# input's gradient, the finite-difference check, the mask log and float32


def mlp_chain(x, w1, terms, w2, b2):
    pre = E.matmul(x, w1)
    for t in terms:
        pre = E.add(pre, t)
    return E.add(E.matmul(E.relu(pre), w2), b2)


def readout_chain(a, a_rows, b, b_rows):
    return sum_axis(E.mul(E.gather_rows(a, a_rows), E.gather_rows(b, b_rows)),
                    (1, 2), keepdims=False)


def forget_chain(base, h, h0, keep, nvec, rates):
    fac = E.sub(1.0, E.clamped_exp(E.mul(E.as_node(nvec), rates)))
    decay = E.mul(E.mul(E.as_node(keep), E.sub(h, h0)), fac)
    return E.sub(base, decay)


def messages_chain(feats, sub, w, o=None, n_blocks=1):
    batched = n_blocks > 1 or feats.value.ndim == 3
    x = feats
    if batched:
        k = n_blocks if feats.value.ndim == 2 else feats.value.shape[0]
        x = E.reshape(feats, (k, 1, -1, feats.value.shape[-1]))
    branch = E.matmul(sub, E.matmul(x, w))
    if o is not None:
        branch = E.matmul(E.relu(branch), o)
    if not batched:
        return sum_axis(branch, 0, keepdims=False)
    out = sum_axis(branch, 1, keepdims=False)
    return out if feats.value.ndim == 3 \
        else E.reshape(out, (-1, out.value.shape[-1]))


def _mlp_case(rng, dtype):
    """(store, build(op), loss weights): two row terms and a bias row."""
    store = E.ParameterStore(dtype=dtype)
    for name, shape in (("x", (5, 3)), ("w1", (3, 4)), ("t_rows", (5, 4)),
                        ("t_bias", (1, 4)), ("w2", (4, 2)), ("b2", (1, 2))):
        store.add(name, rng.normal(size=shape))

    def build(op, b):
        return op(b["x"], b["w1"], [b["t_rows"], b["t_bias"]], b["w2"],
                  b["b2"])
    return store, build, (5, 2)


def _readout_case(rng, dtype):
    store = E.ParameterStore(dtype=dtype)
    store.add("a", rng.normal(size=(7, 3)))
    store.add("b", rng.normal(size=(9, 3)))
    # repeated rows on both sides, as padding repeats a zero row
    a_rows = np.array([[0, 3, 3, 6], [2, 1, 0, 0], [5, 5, 5, 4]])
    b_rows = np.array([[1, 8, 2, 0], [8, 8, 3, 7], [4, 0, 8, 8]])

    def build(op, b):
        return op(b["a"], a_rows, b["b"], b_rows)
    return store, build, (3,)


def _forget_case(rng, dtype, keep=True):
    store = E.ParameterStore(dtype=dtype)
    for name in ("base", "h", "h0", "rates"):
        store.add(name, rng.normal(size=(6, 3)))
    store.value("rates")[...] = np.abs(store.value("rates")) + 0.1
    # exponents inside the clamp, below it and (rows 4, 5) above it
    nvec = np.array([[-1.0], [-3.0], [-200.0], [-0.5], [2.0], [5.0]], dtype)
    keep_col = np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [1.0]], dtype) \
        if keep else None

    def build(op, b):
        if op is forget_chain and keep_col is None:
            return op(b["base"], b["h"], b["h0"], np.ones((6, 1), dtype),
                      nvec, b["rates"])
        return op(b["base"], b["h"], b["h0"], keep_col, nvec, b["rates"])
    return store, build, (6, 3)


# (feats shape, sub shape, n_blocks, feed-forward): one block with its own
# adjacency block; two blocks stacked by rows against a batch of blocks or
# one shared stack; a (K, n, d) batch, as the read-out runs it
MESSAGE_LAYOUTS = {
    "one_block": ((4, 3), (2, 5, 4), 1, True),
    "one_block_linear": ((4, 3), (2, 5, 4), 1, False),
    "stacked_batch": ((2 * 4, 3), (2, 2, 5, 4), 2, True),
    "stacked_shared": ((3 * 4, 3), (2, 4, 4), 3, True),
    "batch3d_shared": ((2, 4, 3), (2, 4, 4), 1, False),
    "batch3d_blocks": ((2, 4, 3), (2, 2, 5, 4), 1, False),
}


def _messages_case(layout):
    def case(rng, dtype):
        feats_shape, sub_shape, n_blocks, ff = MESSAGE_LAYOUTS[layout]
        store = E.ParameterStore(dtype=dtype)
        store.add("feats", rng.normal(size=feats_shape))
        store.add("sub", rng.normal(size=sub_shape))
        store.add("w", rng.normal(size=(2, 3, 3)))
        if ff:
            store.add("o", rng.normal(size=(2, 3, 2)))

        def build(op, b):
            return op(b["feats"], b["sub"], b["w"], b.get("o"), n_blocks)
        k = n_blocks if len(feats_shape) == 2 else feats_shape[0]
        m = sub_shape[-2]
        out = (k * m if len(feats_shape) == 2 else m, 2 if ff else 3)
        return store, build, out if len(feats_shape) == 2 else (k, *out)
    return case


FUSED = {
    "mlp": (E.mlp, mlp_chain, _mlp_case),
    "readout": (E.readout, readout_chain, _readout_case),
    "forget": (E.forget, forget_chain, _forget_case),
    "forget_every_row": (E.forget, forget_chain,
                         lambda rng, dtype: _forget_case(rng, dtype, False)),
    **{f"messages_{layout}": (E.messages, messages_chain,
                              _messages_case(layout))
       for layout in MESSAGE_LAYOUTS},
}


def _fused_run(op, case, seed, dtype=np.float64):
    """The output, each input's gradient of sum(out * weights) and the
    number of nodes the op recorded."""
    rng = np.random.default_rng(seed)
    store, build, out_shape = case(rng, dtype)
    weights = rng.normal(size=out_shape).astype(dtype)
    bound = store.bind()
    out = build(op, bound)
    n_nodes = len(E._TAPE)
    loss = E.sum_all(E.mul(out, weights))
    E.backward(loss)
    grads = {name: bound[name].grad for name in store.names()}
    store.release()
    return out.value, grads, n_nodes


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_matches_its_primitive_chain(name):
    op, chain, case = FUSED[name]
    got, got_grads, n_nodes = _fused_run(op, case, 40)
    want, want_grads, _ = _fused_run(chain, case, 40)
    assert n_nodes == 1
    # the arithmetic is the chain's, in its order
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for param, want_grad in want_grads.items():
        grad = got_grads[param]
        assert grad is not None and grad.shape == want_grad.shape, param
        assert np.abs(grad - want_grad).max() \
            <= 1e-12 * max(np.abs(want_grad).max(), 1e-300), param


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_passes_the_gradient_check(name):
    op, _, case = FUSED[name]
    rng = np.random.default_rng(41)
    store, build, out_shape = case(rng, np.float64)
    weights = rng.normal(size=out_shape)
    report = E.grad_check(
        store, lambda b: E.sum_all(E.mul(build(op, b), weights)),
        np.random.default_rng(42), n_coords=25, tolerance=1e-6)
    assert report.passed, report.summary()


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_keeps_float32(name):
    op, _, case = FUSED[name]
    out, grads, _ = _fused_run(op, case, 43, np.float32)
    assert out.dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads.values())


def test_fused_forget_without_keep_is_a_column_of_ones_bit_for_bit():
    every, every_grads, _ = _fused_run(E.forget, FUSED["forget_every_row"][2],
                                       44)
    ones, ones_grads, _ = _fused_run(forget_chain,
                                     FUSED["forget_every_row"][2], 44)
    assert np.array_equal(every, ones)
    for name, grad in ones_grads.items():
        assert np.array_equal(every_grads[name], grad), name


def _boundary_checks(build, store, attempts=6):
    """grad_check over a store whose every coordinate sits on a mask edge."""
    return E.grad_check(store, build, np.random.default_rng(0), n_coords=1,
                        max_attempts=attempts)


def test_fused_ops_skip_coordinates_that_flip_a_mask():
    rng = np.random.default_rng(45)
    cases = []
    # mlp: the pre-activation is the row term itself, exactly zero
    store = E.ParameterStore()
    store.add("t", np.zeros((3, 4)))
    x, w1 = np.zeros((3, 2)), rng.normal(size=(2, 4))
    w2, b2 = rng.normal(size=(4, 2)), rng.normal(size=(1, 2))
    cases.append((store, lambda b: E.sum_all(E.mlp(x, w1, [b["t"]], w2, b2))))
    # forget: rates at 0 put every exponent on the clamp's upper edge
    store = E.ParameterStore()
    store.add("rates", np.zeros((4, 3)))
    h, h0 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    nvec = -np.arange(1.0, 5.0)[:, None]
    cases.append((store, lambda b: E.sum_all(
        E.forget(h, h, h0, None, nvec, b["rates"]))))
    # messages: zero features give zero messages, on the ReLU's edge
    store = E.ParameterStore()
    store.add("feats", np.zeros((4, 3)))
    sub = np.abs(rng.normal(size=(2, 5, 4))) + 0.1
    w, o = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3, 2))
    cases.append((store, lambda b: E.sum_all(
        E.messages(b["feats"], sub, w, o))))
    for store, build in cases:
        report = _boundary_checks(build, store)
        assert report.n_checked == 0 and report.n_skipped == 6
        # away from the edge the same coordinates are checked
        name = store.names()[0]
        store.value(name)[...] = 0.5 if name != "feats" else \
            rng.normal(size=store.value(name).shape)
        report = _boundary_checks(build, store)
        assert report.n_checked >= 1 and report.passed, report.summary()


def test_fused_ops_log_the_masks_of_their_chains():
    # the smoothness digest of a fused op equals its primitive chain's
    for name, (op, chain, case) in FUSED.items():
        digests = []
        for fn in (op, chain):
            store, build, _ = case(np.random.default_rng(46), np.float64)
            with E.no_grad(), E.collect_smoothness() as log:
                build(fn, store.bind())
            digests.append(log.digest())
        assert digests[0] == digests[1], name


def test_fused_ops_under_no_grad_record_nothing():
    for name, (op, _, case) in FUSED.items():
        store, build, _ = case(np.random.default_rng(47), np.float64)
        with E.no_grad():
            out = build(op, store.bind())
        assert not out.requires_grad and out.edges == (), name


# -- tape size ----------------------------------------------------------------


def test_batch_of_one_training_step_records_at_most_26_nodes_per_response():
    # a desk-shaped model (d 8/8/16, one layer, all three graphs) trained the
    # way the benchmark trains, a batch of one sequence, with the stage-3
    # gate closed as it is after the first training steps. The count is
    # exact for this model and sequence: 25.7 per response, against 47.95
    # for the chains of primitives the fused ops replaced.
    from graphkt.model import GrktModel, HyperParams
    from graphkt.train import bce_loss_node
    from tests.conftest import random_graphs, random_sequence

    rng = np.random.default_rng(48)
    hp = HyperParams(d_e=8, d_k=8, d_h=16, layers=1, seed=48)
    model = GrktModel(hp, 30, 20, random_graphs(rng, 20, 12, 12))
    model.store.value("mlp.dcs.b2")[...] = [[4.0, -4.0]]  # the gate closed
    seq = random_sequence(rng, 30, 20, 40, max_kcs=3)
    _, cache = model.begin("train")
    preds = model.forward_sequence(seq, cache).preds
    loss = bce_loss_node(preds)
    per_response = len(E._TAPE) / len(preds)
    model.store.zero_grad()
    model.store.backward(loss)
    # no KC was given progress
    assert not any(model.store[name].grad.any() for name in model.store.names()
                   if name.startswith("gnn.prg"))
    assert per_response <= 26
