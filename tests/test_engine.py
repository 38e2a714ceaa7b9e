"""Tape engine: op gradients, constraints, Adam, checkpoints."""

import gc
import io
import json
import math
import pickle
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkt import engine as E
from tests.oracles import constrain_nonneg_matrix, constrain_nonneg_vector


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
    "sum_axis": lambda b, c: E.sum_all(E.mul(E.sum_axis(b["W"], 0), c["row"])),
    "tile": lambda b, c: E.sum_all(E.mul(E.tile_rows(E.sum_axis(b["W"], 0), 3), c["t3"])),
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
        "t3": rng.normal(size=(3, 4)),
        "s3": rng.normal(size=(3, 4, 4)),
        "s2x": rng.normal(size=(2, 4, 4)),
        "x3": rng.normal(size=(2, 4, 4)),
        "s232": rng.normal(size=(2, 3, 2)),
    }
    build = lambda bound: OPS[op_name](bound, consts)
    a = analytic_grad(build, store, "W")
    n = numeric_grad(build, store, "W")
    assert np.abs(a - n).max() < 1e-7


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


# -- sparse gather gradients ---------------------------------------------------


def _dense_gather_rows(a, idx):
    """Reference gather with a dense vjp: a zeroed full array plus add.at."""
    a = E.as_node(a)
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, idx, g)
        return out

    return E._make(a.value[idx], ((a, vjp),))


def _dense_gather_submatrix(a, ix):
    a = E.as_node(a)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, ix, g)
        return out

    return E._make(a.value[ix], ((a, vjp),))


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
    # the right operand's product is deferred; one pair is multiplied alone
    assert np.array_equal(E.reduce_products([vjp_b(g)], b_val.shape),
                          a_val.T @ g)


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



# -- collector pause and the consuming sweep ------------------------------------


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
    held = {}  # id -> (node, its deferred right-operand products)

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
        if id(node) in held:
            add(node, E.reduce_products(held.pop(id(node))[1],
                                        node.value.shape))
        if node.grad is None:
            continue
        for parent, vjp in node.edges:
            contrib = vjp(node.grad)
            if type(contrib) is E.RightProduct:
                held.setdefault(id(parent), (parent, []))[1].append(contrib)
            else:
                add(parent, contrib)
    for leaf, pairs in held.values():
        add(leaf, E.reduce_products(pairs, leaf.value.shape))


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


# -- deferred right-operand products --------------------------------------------


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
    rng = np.random.default_rng(22)
    pairs = [E.RightProduct(rng.normal(size=a), rng.normal(size=g))
             for a, g in (((4, 3), (4, 2)), ((2, 4, 3), (2, 4, 2)),
                          ((1, 3), (1, 2)), ((5, 3), (2, 5, 2)),
                          ((2, 2, 3), (2, 2, 2)))]
    got = E.reduce_products(pairs, (3, 2))
    want = sum((np.swapaxes(p.a, -1, -2) @ p.g).reshape(-1, 3, 2).sum(axis=0)
               for p in pairs)
    assert got.shape == (3, 2)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # a single pair is multiplied exactly as the plain vjp would
    single = E.reduce_products(pairs[1:2], (3, 2))
    assert np.array_equal(single, (np.swapaxes(pairs[1].a, -1, -2)
                                   @ pairs[1].g).sum(axis=0))
