import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from helpers import (
    finite_diff_check,
    reference_adamw_step,
    reference_gelu,
    reference_gelu_grad,
    reference_layer_norm,
    total,
    traced_peak,
)

from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import synthgen as sg
from trajforge import tokenizer as tk


def fd_grad(f, x, eps=1e-6):
    """Independent central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


class TestMatmul:
    def test_identity(self):
        x = nc.Tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = nc.Tensor(np.eye(2))
        out = nc.matmul(eye, x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_product(self):
        a = nc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = nc.Tensor([[1.0], [1.0]])
        out = nc.matmul(a, b)
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_shapes(self):
        a = nc.Tensor(np.zeros((2, 3)))
        b = nc.Tensor(np.zeros((2, 3)))
        with pytest.raises(nc.ShapeError, match=r"\(2, 3\)"):
            nc.matmul(a, b)

    def test_grad_matches_finite_differences(self):
        rng = nc.make_rng(7)
        a = nc.Tensor(rng.normal(size=(3, 4)))
        b_val = rng.normal(size=(4, 2))

        loss = total(nc.matmul(a, nc.Tensor(b_val)))
        nc.backward(loss)
        numeric = fd_grad(lambda: float(total(nc.matmul(nc.Tensor(a.data), nc.Tensor(b_val))).data), a.data)
        rel = np.abs(a.grad - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() <= 1e-6
        # grad of sum(A@B) wrt A is the row-broadcast of B's column sums
        np.testing.assert_allclose(a.grad, np.tile(b_val.sum(axis=1), (3, 1)))


class TestLinear:
    @given(st.integers(1, 40), st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**16))
    @example(1, 64, 256, 0)  # a one-row input at the policy's feed-forward width
    @example(356, 64, 256, 1)  # layer 0's rows
    def test_equals_add_of_matmul_bytes_property(self, rows, d_in, d_out, seed):
        rng = nc.make_rng(seed)
        xs, ws, bs, g = (signed_normal(rng, s) for s in ((rows, d_in), (d_in, d_out), (d_out,), (rows, d_out)))

        def run(affine):
            x, w, b = nc.Tensor(xs), nc.Tensor(ws), nc.Tensor(bs)
            out = affine(x, w, b)
            nc.backward(total(nc.mul_const(out, g)))
            return [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)]

        assert run(nc.linear) == run(lambda x, w, b: nc.add(nc.matmul(x, w), b))

    def test_shapes_checked(self):
        x, w = nc.Tensor(np.zeros((2, 3))), nc.Tensor(np.zeros((3, 4)))
        with pytest.raises(nc.ShapeError, match=r"linear bias \(3,\)"):
            nc.linear(x, w, nc.Tensor(np.zeros(3)))
        with pytest.raises(nc.ShapeError, match="linear inner dimensions"):
            nc.linear(x, nc.Tensor(np.zeros((2, 4))), nc.Tensor(np.zeros(4)))


# finite inputs of every scale: GELU's tails saturate t to ±1, and its zeros and subnormals keep their signs
gelu_inputs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-8.0, 8.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1021), 1e-300, 1e300, -1e300, -1.7976931348623157e308]),
)


def zeros(*shape):
    return nc.Tensor(np.zeros(shape))


class TestOperandGuards:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: nc.matmul(zeros(3), zeros(3, 2)), nc.ShapeError, "matmul expects 2-D operands, got (3,) and (3, 2)"),
            (lambda: nc.linear(zeros(2, 3), zeros(3, 4, 1), zeros(4)), nc.ShapeError, "linear expects 2-D operands, got (2, 3) and (3, 4, 1)"),
            (lambda: nc.linear(zeros(2, 3), zeros(3, 4), zeros(1, 4)), nc.ShapeError, "linear bias (1, 4) does not match weight (3, 4)"),
            (lambda: nc.gather_rows(zeros(3, 2), [0, 3]), IndexError, "gather_rows index out of range for table of 3 rows"),
            (lambda: nc.gather_rows(zeros(3, 2), [-1]), IndexError, "gather_rows index out of range for table of 3 rows"),
            (lambda: nc.gather_per_row(zeros(2, 3), [0, 3]), IndexError, "gather_per_row column index out of range"),
            (lambda: nc.gather_per_row(zeros(2, 3), [-1, 0]), IndexError, "gather_per_row column index out of range"),
            (lambda: nc.gather_per_row(zeros(3, 4), [2]), nc.ShapeError, "gather_per_row index shape (1,) != (3,)"),  # broadcast over every row
            (lambda: nc.cross_entropy(zeros(2, 4), [0]), nc.ShapeError, "targets shape (1,) != (2,)"),
            (lambda: nc.layer_norm(zeros(2, 3), zeros(2), zeros(3)), nc.ShapeError, "gain/bias must have shape (3,)"),
            (lambda: nc.layer_norm(zeros(2, 3), zeros(3), zeros(3, 1)), nc.ShapeError, "gain/bias must have shape (3,)"),
            (lambda: nc.block_causal_attention(zeros(4, 6), zeros(4, 6), zeros(4, 6), 4, nc.segment_plan([4])), nc.ShapeError, "model width 6 not divisible by 4 heads"),
            # an int() cast read these as other rows, columns or targets
            (lambda: nc.gather_rows(zeros(3, 2), [1.7, 0.2]), IndexError, "gather_rows index 1.7 at entry 0 is not an integer"),
            (lambda: nc.gather_rows(zeros(3, 2), [1, True]), IndexError, "gather_rows index True at entry 1 is not an integer"),
            (lambda: nc.gather_rows(zeros(3, 2), np.array([[0.0], [1.0]])), IndexError, "gather_rows index 0.0 at entry 0 is not an integer"),
            (lambda: nc.gather_per_row(zeros(4, 3), [0.5, 2.9, 1, 0]), IndexError, "gather_per_row column index 0.5 at entry 0 is not an integer"),
            (lambda: nc.cross_entropy(zeros(2, 4), [0.5, 1]), IndexError, "cross_entropy target 0.5 at entry 0 is not an integer"),
            (lambda: nc.cross_entropy(zeros(2, 4), [True, False]), IndexError, "cross_entropy target True at entry 0 is not an integer"),
            (lambda: nc.embed_sum([zeros(3, 2), zeros(5, 2)], [[0, 1], [4, 2.0]]), IndexError, "embed_sum table 1 index 2.0 at entry 1 is not an integer"),
            (lambda: nc.embed_sum([zeros(3, 2), zeros(5, 2)], [[0, 1], [4, 5]]), IndexError, "embed_sum table 1 index out of range for 5 rows"),
            (lambda: nc.embed_sum([zeros(3, 2), zeros(5, 2)], [[0, 1]]), nc.ShapeError, "embed_sum takes one index array per table, got 1 for 2 tables"),
            (lambda: nc.embed_sum([], []), nc.ShapeError, "embed_sum takes one index array per table, got 0 for 0 tables"),
            (lambda: nc.embed_sum([zeros(3, 2), zeros(5, 3)], [[0], [4]]), nc.ShapeError, "embed_sum table 1: rows (3,) at indices (1,), table 0's (2,) at (1,)"),
            (lambda: nc.embed_sum([zeros(3, 2), zeros(5, 2)], [[0], [4, 1]]), nc.ShapeError, "embed_sum table 1: rows (2,) at indices (2,), table 0's (2,) at (1,)"),
            # block attention misread these lengths, or failed inside numpy
            (lambda: nc.segment_plan([3.5]), nc.ShapeError, "segment 0 length must be an integer, got 3.5"),
            (lambda: nc.segment_plan([True, 2]), nc.ShapeError, "segment 0 length must be an integer, got True"),
            (lambda: nc.segment_plan(np.array([2, 1.5])), nc.ShapeError, "segment 0 length must be an integer, got 2.0"),
            (lambda: nc.segment_plan([2, 0, 2.5]), nc.ShapeError, "segment 2 length must be an integer, got 2.5"),
            (lambda: nc.segment_plan([2, 0, 3]), nc.ShapeError, "segment 1 length must be >= 1, got 0"),
            (lambda: nc.segment_plan([-1, 4]), nc.ShapeError, "segment 0 length must be >= 1, got -1"),
            # a bare OverflowError, and a cast that named 2**63 as -2**63
            (lambda: nc.segment_plan([2**70]), nc.ShapeError, f"segment 0 length must be below 2**63, got {2**70}"),
            (lambda: nc.segment_plan(np.array([2**63], dtype=np.uint64)), nc.ShapeError, "segment 0 length must be below 2**63, got 9223372036854775808"),
        ],
        ids=[
            "matmul-1d",
            "linear-3d",
            "linear-bias",
            "gather_rows-past",
            "gather_rows-negative",
            "gather_per_row-past",
            "gather_per_row-negative",
            "gather_per_row-length",
            "cross_entropy-targets",
            "layer_norm-gain",
            "layer_norm-bias",
            "attention-heads",
            "gather_rows-fraction",
            "gather_rows-bool",
            "gather_rows-float-2d",
            "gather_per_row-fraction",
            "cross_entropy-fraction",
            "cross_entropy-bool",
            "embed_sum-fraction",
            "embed_sum-past",
            "embed_sum-count",
            "embed_sum-none",
            "embed_sum-width",
            "embed_sum-index-shape",
            "segment-fraction",
            "segment-bool",
            "segment-float-array",
            "segment-types-before-bounds",
            "segment-zero",
            "segment-negative",
            "segment-past-int64",
            "segment-uint64",
        ],
    )
    def test_bad_operand_named(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
BIG_INTS = (2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70, -(2**63), -(2**63) - 1, -(2**70))
# entries of an index column: small and huge ints, numpy integers, bools, integral and fractional floats
index_entries = st.one_of(
    st.integers(-3, 11),
    st.sampled_from(BIG_INTS),
    st.integers(-3, 11).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans(),
    st.integers(-3, 11).map(float),
    st.floats(-3, 11).filter(lambda x: not x.is_integer()),
)


@st.composite
def index_columns(draw):
    """A 1-D index column: a list or tuple of `index_entries`, or a numpy integer, bool or float array."""
    form = draw(st.sampled_from(["list", "tuple", "int array", "other array"]))
    if form == "int array":
        info = np.iinfo(draw(st.sampled_from(INT_DTYPES)))
        ints = st.integers(max(info.min, -3), min(info.max, 11)) | st.sampled_from([int(info.min), int(info.max)]) | st.integers(info.min, info.max)
        return draw(hnp.arrays(info.dtype, st.integers(0, 6), elements=ints))
    if form == "other array":
        return draw(hnp.arrays(st.sampled_from([np.bool_, np.float64]), st.integers(0, 6), elements={"allow_nan": False}))
    values = draw(st.lists(index_entries, max_size=6))
    return values if form == "list" else tuple(values)


def reference_index_faults(values, stop, start):
    """(first non-integer, first integer outside [start, stop)) of `list(values)`, entry by entry."""
    entries = list(values)
    integral = [isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in entries]
    non_integer = next((i for i, ok in enumerate(integral) if not ok), None)
    outside = next((i for i, (v, ok) in enumerate(zip(entries, integral)) if ok and not start <= int(v) < stop), None)
    return non_integer, outside


class TestIndexFaults:
    @given(index_columns(), st.integers(-3, 12), st.sampled_from([0, -1, 1, -(2**63)]))
    def test_matches_python_reference_property(self, values, stop, start):
        for bounds in ((stop, start), (2**63, 1), (2**63, -(2**63)), (2**64, 0)):
            assert nc.index_faults(values, *bounds) == reference_index_faults(values, *bounds), bounds

    @given(index_columns())
    def test_callers_name_the_entry_by_its_value_property(self, values):
        net = ng.GridNetwork(ng.GridSpec(3, 3))  # 9 positions, read as a table of 9 rows and a vocabulary of 9
        entries = list(values)
        non_integer, outside = reference_index_faults(values, 9, 0)
        table = nc.Tensor(np.arange(9.0)[:, None])
        if non_integer is None and outside is None:
            assert nc.gather_rows(table, values).data[:, 0].tolist() == [float(v) for v in entries]
        else:
            if non_integer is not None:  # types before bounds
                message = f"gather_rows index {entries[non_integer]} at entry {non_integer} is not an integer"
            else:
                message = "gather_rows index out of range for table of 9 rows"
            with pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
                nc.gather_rows(table, values)
            row = min(i for i in (non_integer, outside) if i is not None)  # the first bad row
            integral = row != non_integer
            message = f"row {row}: origin {entries[row]} " + ("outside network of 9 positions" if integral else "is not an integer")
            with pytest.raises(sg.GenerationError, match=f"^{re.escape(message)}$"):
                sg.roll_out(net, values, [0] * len(entries), np.zeros((len(entries), 1)), None)
            vocab = tk.VocabSpec(positions=9, depart_bins=1, speed_bins=1, users=1, max_timestep=1)
            message = f"at {row}: position {entries[row]} " + ("outside vocabulary of 9" if integral else "is not an integer")
            with pytest.raises(tk.EncodingError, match=f"^{re.escape(message)}$"):
                tk.check_columns(vocab, {"position": values}, lambda r: f"at {r}")
        non_integer, outside = reference_index_faults(values, 2**63, 1)
        if non_integer is not None:
            message = f"segment {non_integer} length must be an integer, got {entries[non_integer]}"
        elif outside is not None:
            length = int(entries[outside])
            message = f"segment {outside} length must be {'>= 1' if length < 1 else 'below 2**63'}, got {length}"
        else:  # a valid plan of lengths up to 2**63 - 1 is not built here
            return
        with pytest.raises(nc.ShapeError, match=f"^{re.escape(message)}$"):
            nc.segment_plan(values)


class TestGelu:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6), elements=gelu_inputs), st.data())
    def test_bytes_equal_the_formulas_property(self, x, data):
        g = data.draw(hnp.arrays(np.float64, x.shape, elements=gelu_inputs))
        with np.errstate(over="ignore", invalid="ignore"):  # x^3 overflows past 1e103, and 0 * inf follows
            out, t = nc.gelu_fwd(x), nc._gelu_tanh(x)
            ref_out, ref_t = reference_gelu(x)
            assert out.tobytes() == ref_out.tobytes() and t.tobytes() == ref_t.tobytes()
            leaf = nc.Tensor(x)
            node = nc.gelu(leaf)
            with nc.no_graph():  # without a graph the output is built in t's own array
                bare = nc.gelu(leaf)
            assert bare._parents == () and bare._bwd is None
            assert node.data.tobytes() == ref_out.tobytes() and bare.data.tobytes() == ref_out.tobytes()
            node._bwd(g.copy())
            assert leaf.grad.tobytes() == reference_gelu_grad(x, ref_t, g).tobytes()

    def test_graph_free_peaks_at_one_output_array(self):
        # a recorded node keeps t beside its output; without a graph t's array becomes the output
        x = nc.Tensor(nc.make_rng(61).normal(size=(512, 256)))
        one = x.data.nbytes

        def bare():
            with nc.no_graph():
                nc.gelu(x)

        bare_peak, recorded_peak = traced_peak(bare), traced_peak(lambda: nc.gelu(x))
        assert bare_peak <= one + 4096, f"graph-free gelu peaked at {bare_peak / one:.3f} arrays"
        assert recorded_peak >= 2 * one


class TestLeakyRelu:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=6), elements=st.floats()), st.data())
    def test_backward_bytes_equal_selecting_the_slope_property(self, x, data):
        # the backward's max(x >= 0, slope) picks 1 or slope as `where` would, NaN and -0.0 included
        g = data.draw(hnp.arrays(np.float64, x.shape, elements=gelu_inputs))
        leaf = nc.Tensor(x)
        nc.leaky_relu(leaf, 0.01)._bwd(g.copy())
        assert leaf.grad.tobytes() == (g * np.where(x >= 0, 1.0, 0.01)).tobytes()


class TestDropout:
    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
    def test_bytes_and_stream_equal_mul_const_by_a_float_mask(self, rate):
        rng = nc.make_rng(89)
        xs, g = signed_normal(rng, (7, 5)), signed_normal(rng, (7, 5))

        def float_mask(x, stream):
            return nc.mul_const(x, (stream.random(x.shape) >= rate) / (1.0 - rate))

        results = []
        for drop in (lambda x, stream: nc.dropout(x, rate, stream), float_mask):
            x, stream = nc.Tensor(xs), nc.make_rng(97, "dropout")
            out = drop(x, stream)
            nc.backward(total(nc.mul_const(out, g)))
            results.append((out.data.tobytes(), x.grad.tobytes(), stream.random()))
        assert results[0] == results[1]


def masked_probs(x, mask=None):
    """Softmax as the policy, critic and oracle take it, from `masked_log_softmax`; exactly 0 where masked."""
    mask = np.ones(np.shape(x), dtype=bool) if mask is None else mask
    return np.exp(nc.masked_log_softmax(x, mask))


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(masked_probs([0.0, 0.0, 0.0]), [1 / 3] * 3)

    def test_analytic(self):
        np.testing.assert_allclose(masked_probs([math.log(1.0), math.log(3.0)]), [0.25, 0.75], atol=1e-12)

    def test_large_inputs_stable(self):
        p = masked_probs([1000.0, 1000.0])
        np.testing.assert_allclose(p, [0.5, 0.5])
        assert np.all(np.isfinite(p))

    def test_sums_to_one_property(self):
        rng = nc.make_rng(11)
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 50), size=(4, 7))
            mask = rng.random((4, 7)) > 0.5
            mask[np.arange(4), rng.integers(0, 7, size=4)] = True  # every row keeps an entry
            x[~mask] = rng.choice([np.nan, np.inf, -np.inf, 1e300], size=(~mask).sum())  # masked entries are never read
            p = masked_probs(x, mask)
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(p[~mask] == 0.0)


class TestLogsumexp:
    """nc.masked_logsumexp: the one masked log-sum-exp that every softmax derives from."""

    @given(st.integers(2, 5), st.integers(1, 12), st.integers(0, 2**16))
    def test_one_row_bit_identical_to_its_row_of_a_batch_property(self, rows, width, seed):
        # one row takes its max as a Python float; a taller input keeps a (rows, 1) array
        rng = nc.make_rng(seed)
        x = rng.normal(scale=rng.uniform(0.1, 50), size=(rows, width))
        mask = rng.random((rows, width)) > 0.5
        mask[np.arange(rows), rng.integers(0, width, size=rows)] = True  # every row keeps an entry
        x[~mask] = rng.choice([np.nan, np.inf, -np.inf, 1e300], size=(~mask).sum())
        lse, log_probs = nc.masked_logsumexp(x, mask), nc.masked_log_softmax(x, mask)
        for i in range(rows):
            assert nc.masked_logsumexp(x[i : i + 1], mask[i : i + 1]).tobytes() == lse[i : i + 1].tobytes()
            assert nc.masked_log_softmax(x[i : i + 1], mask[i : i + 1]).tobytes() == log_probs[i : i + 1].tobytes()

    def test_one_row_without_allowed_entries_rejected(self):
        with pytest.raises(ValueError, match="^masked_logsumexp: a row has no allowed entries$"):
            nc.masked_log_softmax(np.zeros((1, 3)), np.zeros((1, 3), dtype=bool))

    def test_uniform_nine(self):
        assert nc.masked_logsumexp(np.zeros(9), np.ones(9, dtype=bool)) == pytest.approx(math.log(9), abs=1e-12)

    def test_direct_evaluation(self):
        out = nc.masked_logsumexp([1.0, 0.0], [True, True])
        assert out == pytest.approx(math.log(math.exp(1.0) + 1.0), abs=1e-12)

    def test_singleton(self):
        assert nc.masked_logsumexp([3.25], [True]) == pytest.approx(3.25, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nc.masked_logsumexp(np.zeros(0), np.zeros(0, dtype=bool))
        with pytest.raises(ValueError, match="no allowed entries"):
            nc.masked_logsumexp(np.zeros((2, 3)), np.array([[True, False, False], [False, False, False]]))

    def test_fully_masked_row_named_by_the_guard(self):
        # the mask is read only when some row max is -inf; a fully masked row still raises the guard's message
        message = "^masked_logsumexp: a row has no allowed entries$"
        with pytest.raises(ValueError, match=message):
            nc.masked_logsumexp(np.array([1.0, np.nan, 2.0]), np.zeros(3, dtype=bool))
        x = np.array([[1.0, np.nan, 2.0], [0.5, np.inf, -1.0], [3.0, 4.0, 5.0]])
        with pytest.raises(ValueError, match=message):
            nc.masked_logsumexp(x, np.array([[True, False, True], [False, False, False], [True, True, True]]))
        with pytest.raises(ValueError, match=message):
            nc.masked_logsumexp(np.zeros((2, 0)), np.zeros((2, 0), dtype=bool))

    def test_row_of_allowed_minus_inf_passes_the_guard(self):
        # a row max of -inf from allowed entries is not a fully masked row: the guard reads the mask and lets it through
        x = np.array([[-np.inf, -np.inf, 1.0], [0.0, 2.0, 1.0]])
        with np.errstate(invalid="ignore"):  # -inf - -inf
            out = nc.masked_logsumexp(x, np.array([[True, True, False], [True, False, True]]))
        assert math.isnan(out[0])
        assert out[1] == pytest.approx(math.log(1.0 + math.e), abs=1e-15)

    def test_bounds_property(self):
        rng = nc.make_rng(13)
        for _ in range(50):
            x = rng.normal(scale=10, size=rng.integers(1, 12))
            mask = rng.random(len(x)) > 0.3
            mask[rng.integers(0, len(x))] = True
            val = nc.masked_logsumexp(x, mask)
            assert val >= x[mask].max() - 1e-12
            assert val <= x[mask].max() + math.log(mask.sum()) + 1e-12

    def test_masked_entries_ignored(self):
        x = np.array([[0.5, 1e300, -2.0], [7.0, -1.0, np.inf]])
        mask = np.array([[True, False, True], [True, True, False]])
        expected = [math.log(math.exp(0.5) + math.exp(-2.0)), math.log(math.exp(7.0) + math.exp(-1.0))]
        np.testing.assert_allclose(nc.masked_logsumexp(x, mask), expected, rtol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(nc.ShapeError):
            nc.masked_logsumexp(np.zeros((2, 3)), np.ones(3, dtype=bool))

    def test_rows_op_is_helper_bit_for_bit(self):
        rng = nc.make_rng(14)
        x = rng.normal(scale=20, size=(6, 9))
        mask = rng.random((6, 9)) > 0.4
        mask[:, 4] = True
        rows = nc.masked_logsumexp_rows(nc.Tensor(x), mask)
        assert rows.data.tobytes() == nc.masked_logsumexp(x, mask).tobytes()

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**16))
    def test_rows_gradient_is_masked_softmax_bit_for_bit_property(self, n, width, seed):
        # the backward reuses the forward's log-sum-exp; masked entries may hold anything
        rng = nc.make_rng(seed)
        x = rng.normal(scale=10, size=(n, width))
        mask = rng.random((n, width)) > 0.4
        mask[np.arange(n), rng.integers(0, width, n)] = True
        x[~mask] = rng.choice([np.nan, np.inf, -np.inf, 1e300], size=int((~mask).sum()))
        g = rng.normal(size=n)
        a = nc.Tensor(x)
        nc.masked_logsumexp_rows(a, mask)._bwd(g)
        assert a.grad.tobytes() == (np.exp(nc.masked_log_softmax(x, mask)) * g[:, None]).tobytes()


class TestCrossEntropy:
    def test_perfect_prediction_limit(self):
        logits = nc.Tensor([[60.0, 0.0, 0.0]])
        out = nc.cross_entropy(logits, [0])
        assert float(out.data) == pytest.approx(0.0, abs=1e-20)

    def test_uniform_nine(self):
        logits = nc.Tensor(np.zeros((5, 9)))
        out = nc.cross_entropy(logits, [0, 3, 8, 2, 4])
        assert float(out.data) == pytest.approx(math.log(9), abs=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            nc.cross_entropy(nc.Tensor(np.zeros((2, 4))), [0, 4])

    def test_grad_matches_finite_differences(self):
        rng = nc.make_rng(17)
        logits = nc.Tensor(rng.normal(size=(3, 4)))
        targets = [1, 0, 3]
        loss = nc.cross_entropy(logits, targets)
        nc.backward(loss)
        numeric = fd_grad(lambda: float(nc.cross_entropy(nc.Tensor(logits.data), targets).data), logits.data)
        rel = np.abs(logits.grad - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() <= 1e-6


class TestLayerNorm:
    def test_constant_vector_zeroed(self):
        x = nc.Tensor([4.0, 4.0, 4.0])
        out = nc.layer_norm(x, nc.Tensor(np.ones(3)), nc.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_scale(self):
        # variance of [1, -1] is 1; epsilon shrinks the output slightly
        out = nc.layer_norm(nc.Tensor([1.0, -1.0]), nc.Tensor(np.ones(2)), nc.Tensor(np.zeros(2)))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, [expected, -expected], atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = nc.make_rng(19)
        x = nc.Tensor(rng.normal(size=(4, 6)))
        gain = nc.Tensor(rng.normal(size=6))
        bias = nc.Tensor(rng.normal(size=6))

        def run():
            return total(nc.mul_const(nc.layer_norm(x, gain, bias), x2_const))

        x2_const = rng.normal(size=(4, 6))
        loss = run()
        nc.backward(loss)
        for t in (x, gain, bias):
            analytic = t.grad.copy()
            numeric = fd_grad(lambda: float(run().data), t.data, eps=1e-5)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
            assert rel.max() <= 1e-5

    @given(st.integers(1, 40), st.integers(1, 70), st.floats(1e-3, 1e3), st.integers(0, 2**16))
    def test_sum_means_equal_ndarray_mean_property(self, rows, width, scale, seed):
        # the array helper divides sums by the width; ndarray.mean must round identically
        rng = np.random.default_rng(seed)
        x, gain, bias = scale * rng.normal(size=(rows, width)), rng.normal(size=width), rng.normal(size=width)
        ref_out, ref_xhat, inv_std = reference_layer_norm(x, gain, bias)
        out, (xhat, got_inv_std) = nc.layer_norm_fwd(x, gain, bias), nc._normalize(x, 1e-5)
        np.testing.assert_array_equal(got_inv_std, inv_std)
        np.testing.assert_array_equal(xhat, ref_xhat)
        np.testing.assert_array_equal(out, ref_out)

    @given(st.integers(1, 6), st.integers(1, 70), st.floats(1e-3, 1e3), st.integers(0, 2**16), st.booleans())
    def test_graph_free_bits_equal_recorded_op_and_formula_property(self, rows, width, scale, seed, one_dim):
        # without a graph the output is built in the normalized x's own array, with the same bits
        rng = np.random.default_rng(seed)
        x, gain, bias = scale * rng.normal(size=(rows, width)), rng.normal(size=width), rng.normal(size=width)
        if one_dim:
            x = x[0]

        def run():
            return nc.layer_norm(nc.Tensor(x), nc.Tensor(gain), nc.Tensor(bias))

        recorded = run()
        with nc.no_graph():
            bare = run()
        assert recorded._parents and bare._parents == () and bare._bwd is None
        want = reference_layer_norm(x, gain, bias)[0].tobytes()
        assert bare.data.tobytes() == want and recorded.data.tobytes() == want
        assert nc.layer_norm_fwd(x, gain, bias).tobytes() == want


    @given(st.integers(2, 6), st.integers(1, 70), st.floats(1e-3, 1e3), st.integers(0, 2**16))
    def test_one_row_path_bit_identical_to_array_path_property(self, rows, width, scale, seed):
        # a (1, d) input takes its mean and variance as Python floats; a taller input runs the array path
        rng = np.random.default_rng(seed)
        x, gain, bias = scale * rng.normal(size=(rows, width)), rng.normal(size=width), rng.normal(size=width)
        out, (xhat, inv_std) = nc.layer_norm_fwd(x, gain, bias), nc._normalize(x, 1e-5)
        for i in range(rows):
            for row in (x[i : i + 1], x[i::rows]):  # contiguous, and a strided view
                one_out, (one_xhat, one_inv_std) = nc.layer_norm_fwd(row, gain, bias), nc._normalize(row, 1e-5)
                assert isinstance(one_inv_std, float)
                assert one_out.tobytes() == out[i : i + 1].tobytes() and one_xhat.tobytes() == xhat[i : i + 1].tobytes()
                assert np.float64(one_inv_std).tobytes() == inv_std[i].tobytes()


class TestAdamW:
    def test_zero_lr_zero_decay_noop(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.3, 0.7])
        state = nc.adamw_init(p, lr=0.0, weight_decay=0.0)
        nc.adamw_step(p, g, state)
        np.testing.assert_array_equal(p, [1.0, -2.0])
        assert state.step == 1

    def test_single_step_hand_replay(self):
        p = np.array([1.0])
        g = np.array([1.0])
        state = nc.adamw_init(p, lr=0.1, weight_decay=0.0)
        nc.adamw_step(p, g, state)
        # bias-corrected moments give a unit direction: p = 1 - 0.1 * 1/(1 + eps)
        assert p[0] == pytest.approx(0.9, abs=1e-7)

    def test_two_step_replay_against_textbook_formula(self):
        # Decoupled weight decay (Loshchilov & Hutter), then Adam's bias-corrected step, per element.
        # Unequal gradients keep m/sqrt(v) away from +-1, where an update by the sign of m would also fit.
        lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
        assert (nc.ADAM_BETA1, nc.ADAM_BETA2, nc.ADAM_EPS) == (b1, b2, eps)
        grads = [np.array([1.0, 0.1]), np.array([-0.5, 0.3])]
        p = np.array([0.5, -1.0])
        want, m, v = p.copy(), np.zeros(2), np.zeros(2)
        for t, g in enumerate(grads, start=1):
            want = want - lr * wd * want
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            want = want - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        state = nc.adamw_init(p, lr=lr, weight_decay=wd)
        for g in grads:
            nc.adamw_step(p, g, state)
        assert state.step == 2
        np.testing.assert_allclose(p, want, rtol=0, atol=1e-12)

    def test_decay_only_multiplicative_shrink(self):
        p = np.array([2.0, -4.0])
        g = np.zeros(2)
        state = nc.adamw_init(p, lr=0.05, weight_decay=0.1)
        nc.adamw_step(p, g, state)
        np.testing.assert_allclose(p, np.array([2.0, -4.0]) * (1 - 0.05 * 0.1))

    def test_shape_mismatch(self):
        p = np.zeros(3)
        state = nc.adamw_init(p, lr=0.1, weight_decay=0.0)
        with pytest.raises(nc.ShapeError):
            nc.adamw_step(p, np.zeros(4), state)

    def test_second_moment_shape_mismatch(self):
        p = np.zeros(3)
        state = nc.adamw_init(p, lr=0.1, weight_decay=0.0)
        state.v = np.zeros(4)
        with pytest.raises(nc.ShapeError, match=r"\(4,\)"):
            nc.adamw_step(p, np.zeros(3), state)
        assert state.step == 0 and p.tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_in_place_step_keeps_the_formulas_bytes(self, weight_decay):
        # five steps in place against the whole-array formulas: vector, m and v hold the same bytes, grad is untouched
        rng = nc.make_rng(83)
        p = rng.normal(size=257)
        replay = p.copy()
        state, ref = nc.adamw_init(p, 3e-2, weight_decay), nc.adamw_init(replay, 3e-2, weight_decay)
        for _ in range(5):
            g = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=257)
            g[rng.random(257) < 0.1] = -0.0
            kept = g.copy()
            nc.adamw_step(p, g, state)
            reference_adamw_step(replay, g, ref)
            assert g.tobytes() == kept.tobytes()
            for got, want in ((p, replay), (state.m, ref.m), (state.v, ref.v)):
                assert got.tobytes() == want.tobytes()
        assert state.step == ref.step == 5


class TestFiniteDiffCheck:
    def test_square(self):
        p = nc.Tensor([3.0])

        def f():
            return total(nc.mul(p, p))

        err = finite_diff_check(f, [p], eps=1e-4)
        assert err <= 1e-9

    def test_constant_function(self):
        p = nc.Tensor([1.0, 2.0])

        def f():
            return nc.Tensor(5.0)

        err = finite_diff_check(f, [p])
        assert err == 0.0

    def test_eps_bounds(self):
        p = nc.Tensor([1.0])
        with pytest.raises(ValueError):
            finite_diff_check(lambda: total(p), [p], eps=0.5)

    def test_nonfinite_rejected(self):
        p = nc.Tensor([1.0])
        with pytest.raises(nc.EvaluationError):
            finite_diff_check(lambda: nc.Tensor(float("nan")), [p])


class TestCompositeGradients:
    """Reverse-mode gradients of each op family vs central differences."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mlp_block(self, seed):
        rng = nc.make_rng(23, seed)
        x = nc.Tensor(rng.normal(size=(3, 5)))
        w1 = nc.Tensor(rng.normal(size=(5, 7)))
        b1 = nc.Tensor(rng.normal(size=7))
        w2 = nc.Tensor(rng.normal(size=(7, 2)))

        for affine in (lambda x, w, b: nc.add(nc.matmul(x, w), b), nc.linear):

            def f():
                h = nc.gelu(affine(x, w1, b1))
                return nc.mean_all(nc.matmul(h, w2))

            assert finite_diff_check(f, [x, w1, b1, w2], eps=1e-5) <= 1e-6

    def test_attention_block(self):
        rng = nc.make_rng(29)
        x = nc.Tensor(rng.normal(size=(4, 8)))
        wq = nc.Tensor(rng.normal(size=(8, 8), scale=0.5))
        wk = nc.Tensor(rng.normal(size=(8, 8), scale=0.5))
        wv = nc.Tensor(rng.normal(size=(8, 8), scale=0.5))

        def f():
            ctx = nc.block_causal_attention(nc.matmul(x, wq), nc.matmul(x, wk), nc.matmul(x, wv), n_heads=2, plan=nc.segment_plan([4]))
            return nc.mean_all(ctx)

        assert finite_diff_check(f, [x, wq, wk, wv], eps=1e-5) <= 1e-5

    def test_block_attention_matches_separate(self):
        rng = nc.make_rng(31)
        q1, k1, v1 = (rng.normal(size=(3, 4)) for _ in range(3))
        q2, k2, v2 = (rng.normal(size=(5, 4)) for _ in range(3))
        joint = nc.block_causal_attention(
            nc.Tensor(np.vstack([q1, q2])),
            nc.Tensor(np.vstack([k1, k2])),
            nc.Tensor(np.vstack([v1, v2])),
            n_heads=2,
            plan=nc.segment_plan([3, 5]),
        )
        solo1 = nc.block_causal_attention(nc.Tensor(q1), nc.Tensor(k1), nc.Tensor(v1), n_heads=2, plan=nc.segment_plan([3]))
        solo2 = nc.block_causal_attention(nc.Tensor(q2), nc.Tensor(k2), nc.Tensor(v2), n_heads=2, plan=nc.segment_plan([5]))
        np.testing.assert_array_equal(joint.data[:3], solo1.data)
        np.testing.assert_array_equal(joint.data[3:], solo2.data)

    def test_masked_ops(self):
        rng = nc.make_rng(37)
        x = nc.Tensor(rng.normal(size=(4, 6)))
        mask = rng.random((4, 6)) > 0.3
        mask[:, 0] = True  # every row keeps at least one entry

        def f():
            return nc.mean_all(nc.masked_logsumexp_rows(x, mask))

        assert finite_diff_check(f, [x], eps=1e-5) <= 1e-6
        p = masked_probs(x.data, mask)
        assert np.all(p[~mask] == 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_masked_kl(self):
        rng = nc.make_rng(41)
        logits = nc.Tensor(rng.normal(size=(3, 5)))
        mask = np.ones((3, 5), dtype=bool)
        mask[0, 2] = False
        ref = rng.normal(size=(3, 5))

        def f():
            return nc.mean_all(nc.masked_kl_rows(logits, ref, mask))

        assert finite_diff_check(f, [logits], eps=1e-5) <= 1e-6
        # KL of a distribution against itself is zero
        self_lp = np.where(mask, logits.data - nc.masked_logsumexp(logits.data, mask)[:, None], 0.0)
        kl = nc.masked_kl_rows(nc.Tensor(logits.data), self_lp, mask)
        np.testing.assert_allclose(kl.data, 0.0, atol=1e-12)

    def test_gather_and_slice(self):
        rng = nc.make_rng(43)
        table = nc.Tensor(rng.normal(size=(6, 4)))
        idx = np.array([0, 2, 2, 5])

        def f():
            rows = nc.gather_rows(table, idx)
            return total(nc.slice_rows(rows, 1, 3))

        assert finite_diff_check(f, [table], eps=1e-5) <= 1e-8

    def test_embed_sum(self):
        # a one-hot table read twice, a bincount table and a distinct-rows lookup, under one upstream gradient
        rng = nc.make_rng(45)
        small, large = nc.Tensor(rng.normal(size=(3, 4))), nc.Tensor(rng.normal(size=(nc.ONEHOT_MAX_ROWS + 3, 4)))
        idx = [np.array([0, 2, 2, 1, 0]), np.array([7, 7, 0, nc.ONEHOT_MAX_ROWS + 2, 7]), np.array([2, 0, 1, 1, 2]), np.array([4, 3, 2, 1, 0])]
        g = rng.normal(size=(5, 4))

        def f():
            return total(nc.mul_const(nc.embed_sum([small, large, small, large], idx), g))

        assert finite_diff_check(f, [small, large], eps=1e-5) <= 1e-8

    def test_slice_rows_gradient_reaches_its_rows_only(self):
        rng = nc.make_rng(44)
        w = nc.Tensor(rng.normal(size=(6, 3)))
        g_top, g_bottom = rng.normal(size=(2, 3)), rng.normal(size=(3, 3))
        top, bottom = nc.slice_rows(w, 0, 2), nc.slice_rows(w, 3, 6)
        np.testing.assert_array_equal(bottom.data, w.data[3:6])
        nc.backward(nc.add(total(nc.mul_const(top, g_top)), total(nc.mul_const(bottom, g_bottom))))
        np.testing.assert_array_equal(w.grad, np.concatenate([g_top, np.zeros((1, 3)), g_bottom]))


def attention_with_grads(q, k, v, g, n_heads, segments):
    """Context and q/k/v gradients of block attention under the upstream gradient `g`."""
    q, k, v = nc.Tensor(q), nc.Tensor(k), nc.Tensor(v)
    ctx = nc.block_causal_attention(q, k, v, n_heads, nc.segment_plan(segments))
    nc.backward(total(nc.mul_const(ctx, g)))
    return ctx.data, q.grad, k.grad, v.grad


class TestMaskedAttention:
    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6), st.sampled_from([1, 2, 8]), st.integers(0, 2**16))
    def test_in_place_weights_are_the_out_of_place_formula_property(self, batch, rows, keys, head_dim, seed):
        # scale, mask, shift, exp and normalise run in the one scores buffer, with the bits of the formula on fresh arrays
        rng = np.random.default_rng(seed)
        qh, kh, vh = rng.normal(size=(batch, rows, head_dim)), rng.normal(size=(batch, keys, head_dim)), rng.normal(size=(batch, keys, head_dim))
        hidden = rng.random((rows, keys)) < 0.4
        hidden[:, 0] = False  # every query sees a key
        for mask in (hidden, None):
            scores = (qh @ kh.swapaxes(-1, -2)) * (1.0 / math.sqrt(head_dim))
            scores = np.where(~hidden if mask is not None else True, scores, -np.inf)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            ctx, got = nc.masked_attention(qh, kh, vh, mask)
            assert got.tobytes() == w.tobytes() and ctx.tobytes() == (w @ vh).tobytes()


class TestBlockAttention:
    """Segments of equal length run stacked; each must still behave as if run alone."""

    @given(
        segments=st.lists(st.integers(1, 5), min_size=1, max_size=8),
        n_heads=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_grouped_equals_one_call_per_segment_property(self, segments, n_heads, seed):
        rng = nc.make_rng(47, seed)
        q, k, v, g = (rng.normal(size=(sum(segments), 4)) for _ in range(4))
        ctx, gq, gk, gv = attention_with_grads(q, k, v, g, n_heads, segments)
        start = 0
        for seg in segments:
            sl = slice(start, start + seg)
            s_ctx, s_gq, s_gk, s_gv = attention_with_grads(q[sl], k[sl], v[sl], g[sl], n_heads, [seg])
            for joint, solo in ((ctx, s_ctx), (gq, s_gq), (gk, s_gk), (gv, s_gv)):
                np.testing.assert_array_equal(joint[sl], solo)
            start += seg

    def test_mixed_lengths_finite_differences(self):
        rng = nc.make_rng(53)
        x = nc.Tensor(rng.normal(size=(10, 4)))
        wq, wk, wv = (nc.Tensor(rng.normal(size=(4, 4), scale=0.5)) for _ in range(3))
        g = rng.normal(size=(10, 4))

        def f():
            ctx = nc.block_causal_attention(
                nc.matmul(x, wq), nc.matmul(x, wk), nc.matmul(x, wv), n_heads=2, plan=nc.segment_plan([3, 1, 3, 2, 1])
            )
            return total(nc.mul_const(ctx, g))

        assert finite_diff_check(f, [x, wq, wk, wv], eps=1e-5) <= 1e-5

    def test_segments_must_cover_rows(self):
        x = nc.Tensor(np.zeros((4, 4)))
        with pytest.raises(nc.ShapeError):
            nc.block_causal_attention(x, x, x, 2, nc.segment_plan([1, 2]))

    @pytest.mark.parametrize("rows", [5, 7])
    def test_malformed_queries_rejected(self, rows):
        # two segments of 3 rows hold 6 keys, and every row queries
        x = nc.Tensor(np.zeros((6, 4)))
        with pytest.raises(nc.ShapeError, match=f"^q has {rows} rows for 6 keys$"):
            nc.block_causal_attention(nc.Tensor(np.zeros((rows, 4))), x, x, 2, nc.segment_plan([3, 3]))


def signed_normal(rng, shape):
    """Normal draws with about a quarter of the entries -0.0."""
    x = rng.normal(size=shape)
    return np.where(rng.random(shape) < 0.25, -0.0, x)


def onehot_share(rows, idx, g):
    """`gather_rows`' one-hot backward share, built independently: onehot(idx) @ g, one column per index."""
    idx = np.asarray(idx).ravel()
    return (np.arange(rows)[:, None] == idx).astype(np.float64) @ g.reshape(idx.size, -1)


class TestEmbedSum:
    """One node for a sum of row lookups, with the bits of the chain of `gather_rows` and `add` nodes that sums the same rows."""

    @given(
        st.lists(st.tuples(st.integers(1, 2 * nc.ONEHOT_MAX_ROWS), st.booleans()), min_size=1, max_size=4),
        st.integers(1, 3 * nc.ONEHOT_MAX_ROWS),
        st.integers(1, 5),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**16),
    )
    @example([(8, True), (40, False), (3, False)], 5, 2, True, True, 0)  # the distinct-rows, bincount and one-hot branches
    def test_equals_chained_gathers_bytes_property(self, specs, n, width, prior, twice, seed):
        # tables on both sides of the one-hot limit, with distinct or repeated rows; `twice` lists table 0
        # again at the end, and `prior` has a gather of table 0 give it a gradient before the sum's share
        rng = nc.make_rng(seed)
        datas = [signed_normal(rng, (rows, width)) for rows, _ in specs]
        idxs = [rng.permutation(rows)[:n] if distinct and n <= rows else rng.integers(0, rows, n) for rows, distinct in specs]
        extra, upstream = rng.integers(0, specs[0][0], n), signed_normal(rng, (n, width))

        def run(embed):
            tables = [nc.Tensor(data) for data in datas]
            listed, indices = tables + tables[:1] * twice, idxs + [idxs[0][::-1].copy()] * twice
            out = embed(listed, indices)
            root = nc.add(nc.gather_rows(tables[0], extra), out) if prior else out
            nc.backward(total(nc.mul_const(root, upstream)))
            return [out.data.tobytes()] + [t.grad.tobytes() for t in tables]

        def chain(tables, indices):
            x = nc.gather_rows(tables[0], indices[0])
            for table, idx in zip(tables[1:], indices[1:]):
                x = nc.add(x, nc.gather_rows(table, idx))
            return x

        assert run(nc.embed_sum) == run(chain)


class TestGatherGradients:
    def test_duplicates_equal_add_at(self):
        # 7 indices into 5 rows: the one-hot product
        rng = nc.make_rng(61)
        table = nc.Tensor(rng.normal(size=(5, 3)))
        idx = np.array([4, 1, 4, 0, 4, 1, 2])
        g = rng.normal(size=(7, 3))
        nc.backward(total(nc.mul_const(nc.gather_rows(table, idx), g)))
        assert table.grad.tobytes() == onehot_share(5, idx, g).tobytes()
        expected = np.zeros((5, 3))
        np.add.at(expected, idx, g)
        np.testing.assert_allclose(table.grad, expected, rtol=0, atol=1e-15 * np.abs(g).sum())

    def test_second_gather_adds_as_add_at(self):
        # a table read by two gathers: 5 indices into 4 rows take the one-hot product, which adds its summed
        # share onto any gradient the table holds; 3 indices with a duplicate take the bincount, as np.add.at
        rng = nc.make_rng(67)
        table = nc.Tensor(rng.normal(size=(4, 3)))
        idx1, idx2 = np.array([0, 3, 3]), np.array([3, 1, 3, 3, 0])
        g1, g2 = rng.normal(size=(3, 3)) * 1e-3, rng.normal(size=(5, 3)) * 1e3
        rows1, rows2 = nc.gather_rows(table, idx1), nc.gather_rows(table, idx2)
        loss = nc.add(total(nc.mul_const(rows1, g1)), total(nc.mul_const(rows2, g2)))
        order = [id(node) for node in nc.backward(loss).nodes]
        # backward runs the recorded nodes last to first
        first, second = (idx2, g2), (idx1, g1)
        if order.index(id(rows1)) > order.index(id(rows2)):
            first, second = second, first
        expected = None
        for idx, g in (first, second):
            if len(idx) > 4:
                share = onehot_share(4, idx, g)
                expected = share if expected is None else expected + share
            else:
                expected = np.zeros((4, 3)) if expected is None else expected
                np.add.at(expected, idx, g)
        assert table.grad.tobytes() == expected.tobytes()
        add_at = np.zeros((4, 3))
        np.add.at(add_at, *first)
        np.add.at(add_at, *second)
        np.testing.assert_allclose(table.grad, add_at, rtol=0, atol=1e-15 * (np.abs(g1).sum() + np.abs(g2).sum()))

    @given(st.integers(1, 2 * nc.ONEHOT_MAX_ROWS), st.integers(1, 64), st.integers(0, 4 * nc.ONEHOT_MAX_ROWS), st.booleans(), st.integers(0, 2**16))
    def test_branches_pinned_and_near_add_at_property(self, rows, width, n, prior, seed):
        # tables on both sides of the one-hot limit: the product equals prior + onehot @ g, every other
        # branch equals the bincount, and both stay within 1e-15 of the summed magnitudes of np.add.at
        rng = nc.make_rng(seed)
        idx = rng.integers(0, rows, n)
        g = signed_normal(rng, (n, width))
        table, reference = nc.Tensor(np.zeros((rows, width))), nc.Tensor(np.zeros((rows, width)))
        add_at = np.zeros((rows, width))
        if prior:
            table.grad = signed_normal(rng, (rows, width))
            reference.grad, add_at = table.grad.copy(), table.grad.copy()
        magnitude = np.abs(g).sum() + np.abs(add_at).sum()
        nc.gather_rows(table, idx)._bwd(g)
        if rows < n and rows <= nc.ONEHOT_MAX_ROWS:
            share = onehot_share(rows, idx, g)
            expected = reference.grad + share if prior else share
        else:
            nc._scatter_accum(reference, (idx.reshape(-1, 1) * width + np.arange(width)).ravel(), g)
            expected = reference.grad
        assert table.grad.tobytes() == expected.tobytes()
        np.add.at(add_at, idx, g)
        assert np.abs(table.grad - add_at).max(initial=0.0) <= 1e-15 * magnitude

    def test_per_row_equals_add_at(self):
        rng = nc.make_rng(71)
        a = nc.Tensor(rng.normal(size=(4, 6)))
        idx = np.array([5, 0, 5, 2])
        g = rng.normal(size=4)
        nc.backward(total(nc.mul_const(nc.gather_per_row(a, idx), g)))
        expected = np.zeros((4, 6))
        np.add.at(expected, (np.arange(4), idx), g)
        np.testing.assert_array_equal(a.grad, expected)

    @given(st.lists(st.integers(0, 7), unique=True, max_size=8), st.integers(1, 3), st.booleans(), st.integers(0, 2**16))
    def test_unique_rows_equal_bincount_path_property(self, idx, width, prior, seed):
        # distinct rows skip the whole-table bincount; the gradient keeps its bits, signed zeros too
        rng = nc.make_rng(seed)
        idx = np.asarray(idx, dtype=np.intp)
        g = signed_normal(rng, (len(idx), width))
        table, reference = nc.Tensor(np.zeros((8, width))), nc.Tensor(np.zeros((8, width)))
        if prior:
            table.grad = signed_normal(rng, (8, width))
            reference.grad = table.grad.copy()
        nc.gather_rows(table, idx)._bwd(g)
        nc._scatter_accum(reference, (idx.reshape(-1, 1) * width + np.arange(width)).ravel(), g)
        assert table.grad.tobytes() == reference.grad.tobytes()


class TestLazyGradients:
    """The first gradient a node receives is its own array; later ones add into it."""

    def test_fan_out_sums(self):
        x = nc.Tensor([1.0, -2.0, 3.0])
        nc.backward(total(nc.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        rng = nc.make_rng(73)
        h = nc.Tensor(rng.normal(size=(3, 4)))
        w1, w2 = nc.Tensor(rng.normal(size=(4, 2))), nc.Tensor(rng.normal(size=(4, 5)))
        nc.backward(nc.add(total(nc.matmul(h, w1)), total(nc.matmul(h, w2))))
        np.testing.assert_allclose(h.grad, np.tile(w1.data.sum(axis=1) + w2.data.sum(axis=1), (3, 1)), rtol=1e-14)

    def test_siblings_not_aliased(self):
        a, b = nc.Tensor(np.ones(3)), nc.Tensor(np.ones(3))
        out = nc.add(a, b)
        nc.backward(total(nc.mul_const(out, [3.0, 4.0, 12.0])))
        nc.clip_grad_norm([a.grad], 1.0)
        np.testing.assert_allclose(a.grad, [3 / 13, 4 / 13, 12 / 13])
        np.testing.assert_array_equal(b.grad, [3.0, 4.0, 12.0])
        assert out.grad is None  # an interior node's gradient goes once its closure has run

    def test_handed_over_gradients_keep_their_bytes(self):
        # add and sub hand their own g to the first operand instead of copying it; the sums keep the bits
        # of a first share copied and later shares added in backward order
        rng = nc.make_rng(79)
        xs, g, g3 = signed_normal(rng, (4, 3)), signed_normal(rng, (4, 3)), signed_normal(rng, (12, 3))
        w = nc.Tensor(rng.normal(size=(3, 3)))

        def grad_of(build, upstream):
            x = nc.Tensor(xs)
            nc.backward(total(nc.mul_const(build(x), upstream)))
            return x.grad.tobytes()

        assert grad_of(lambda x: nc.add(x, x), g) == (g + g).tobytes()
        assert grad_of(lambda x: nc.sub(x, x), g) == (g + -g).tobytes()
        assert grad_of(lambda x: nc.concat_rows([x] * 3), g3) == (g3[:4] + g3[4:8] + g3[8:]).tobytes()
        through_matmul = g + g @ w.data.T  # the add runs first, then the matmul adds its share
        assert grad_of(lambda x: nc.add(x, nc.matmul(x, w)), g) == through_matmul.tobytes()
        assert grad_of(lambda x: nc.add(nc.matmul(x, w), x), g) == through_matmul.tobytes()
        assert grad_of(lambda x: nc.sub(x, nc.matmul(x, w)), g) == (g + -(g @ w.data.T)).tobytes()

    def test_chain_backward_holds_a_few_gradients(self):
        # 50 chained nodes over a (256, 64) leaf: each interior gradient goes once its closure has passed
        # it on, so at most a node's gradient and its parent's share are alive, plus the leaf's
        x = nc.Tensor(nc.make_rng(83).normal(size=(256, 64)))
        h = x
        for _ in range(50):
            h = nc.mul_const(h, 1.0)
        peak = traced_peak(lambda: nc.backward(h))
        np.testing.assert_array_equal(x.grad, np.ones((256, 64)))
        assert peak <= 3 * x.data.nbytes, f"backward peaked at {peak / x.data.nbytes:.1f} arrays"

    def test_mean_all_full_shape(self):
        x = nc.Tensor(np.zeros((2, 5)))
        nc.backward(nc.mean_all(x))
        assert x.grad.shape == (2, 5)
        np.testing.assert_array_equal(x.grad, np.full((2, 5), 0.1))

    def test_empty_gather_gives_zeros(self):
        table = nc.Tensor(np.ones((3, 2)))
        other = nc.Tensor([[2.0, 2.0]])
        # the empty gather joins other's row: `total` of an empty tensor would average nothing
        loss = total(nc.concat_rows([nc.gather_rows(table, np.zeros(0, dtype=np.intp)), other]))
        nc.backward(loss)
        assert table.grad is not None
        np.testing.assert_array_equal(table.grad, np.zeros((3, 2)))
        np.testing.assert_array_equal(other.grad, [[1.0, 1.0]])

    def test_stale_gradients_dropped(self):
        x = nc.Tensor([1.0, 2.0])
        for _ in range(2):
            nc.backward(total(nc.mul_const(x, 3.0)))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def small_graph(seed=5):
    """A loss over matmul, layer norm, GELU, attention and cross-entropy, and its three leaves."""
    rng = nc.make_rng(seed)
    x, w = nc.Tensor(rng.normal(size=(6, 4))), nc.Tensor(rng.normal(size=(4, 4)))
    gain, bias = nc.Tensor(np.ones(4)), nc.Tensor(np.zeros(4))
    h = nc.gelu(nc.layer_norm(nc.matmul(x, w), gain, bias))
    ctx = nc.block_causal_attention(h, h, h, 2, nc.segment_plan([2, 4]))
    return nc.cross_entropy(nc.add(ctx, h), [0, 1, 2, 3, 0, 1]), (x, w, gain)


class TestGraphConsumption:
    def test_backward_drops_closures_and_parent_links(self):
        loss, leaves = small_graph()
        inner = [id(node) for node in nc.ComputationRecord.from_root(loss).nodes if node._bwd is not None]
        record = nc.backward(loss)
        assert [id(node) for node in record.nodes if id(node) in inner] == inner  # order kept
        for node in record.nodes:
            if id(node) in inner:  # interior gradients go once consumed; leaves keep theirs
                assert node._parents is None and node._bwd is None and node.grad is None
            else:
                assert node._parents == () and node._bwd is None and node.grad is not None
        for leaf in leaves:
            assert any(node is leaf for node in record.nodes)

    def test_second_backward_raises_and_keeps_gradients(self):
        loss, (x, w, gain) = small_graph()
        nc.backward(loss)
        grads = [t.grad.copy() for t in (x, w, gain)]
        with pytest.raises(nc.GraphConsumedError):
            nc.backward(loss)
        for t, g in zip((x, w, gain), grads):
            np.testing.assert_array_equal(t.grad, g)

    def test_new_graph_over_a_consumed_node_raises(self):
        x = nc.Tensor([1.0, 2.0])
        h = nc.mul_const(x, 3.0)
        nc.backward(total(h))
        with pytest.raises(nc.GraphConsumedError):
            nc.backward(total(nc.mul(h, x)))
        nc.backward(total(nc.mul_const(x, 2.0)))  # leaves serve any number of graphs
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_no_graph_records_nothing_and_changes_no_value(self):
        recorded, _ = small_graph()
        with nc.no_graph():
            bare, (x, _, _) = small_graph()
            assert nc.dropout(x, 0.5, nc.make_rng(1))._parents == ()
        assert bare.data.tobytes() == recorded.data.tobytes()
        assert bare._parents == () and bare._bwd is None
        assert nc.ComputationRecord.from_root(bare).nodes == [bare]
        assert small_graph()[0]._bwd is not None  # recording resumes after the block

    def test_no_graph_restores_recording_after_an_error(self):
        with pytest.raises(nc.ShapeError):
            with nc.no_graph():
                nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))
        assert nc.add(nc.Tensor([1.0]), nc.Tensor([2.0]))._bwd is not None


class TestClipGradNorm:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_norm_returned_and_gradients_left(self, bad):
        # a scale of max_norm / inf = 0 turned an inf entry into NaN and every other entry into 0
        g = np.array([bad, 3.0, 4.0])
        np.testing.assert_equal(nc.clip_grad_norm([g], 1.0), bad)
        np.testing.assert_array_equal(g, [bad, 3.0, 4.0])

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, float("nan")])
    def test_non_positive_bound_rejected(self, max_norm):
        g = np.array([3.0, 4.0])
        with pytest.raises(ValueError, match="max_norm"):
            nc.clip_grad_norm([g], max_norm)
        np.testing.assert_array_equal(g, [3.0, 4.0])


probability_rows = (
    st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9)
    .map(lambda w: [x if x > 0.25 else 0.0 for x in w])  # about a quarter masked to zero
    .filter(lambda w: sum(w) > 0)
    .map(lambda w: np.asarray(w) / sum(w))
)


class TestInverseCdf:
    @given(probability_rows, st.integers(0, 2**32))
    def test_draws_what_choice_draws_property(self, p, seed):
        choice, uniform = nc.make_rng(seed, "choice"), nc.make_rng(seed, "choice")
        for _ in range(3):
            assert nc.inverse_cdf(p, uniform.random()) == choice.choice(9, p=p)

    @given(st.lists(probability_rows, min_size=1, max_size=5), st.integers(0, 2**32))
    def test_rows_draw_as_one_row_each_property(self, rows, seed):
        p = np.stack(rows)
        u = nc.make_rng(seed).random(len(rows))
        assert nc.inverse_cdf(p, u).tolist() == [nc.inverse_cdf(row, x) for row, x in zip(rows, u.tolist())]

    def test_masked_entries_never_drawn(self):
        p = np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        assert nc.inverse_cdf(np.tile(p, (3, 1)), [0.0, 0.4999, 0.9999]).tolist() == [1, 1, 4]

    @pytest.mark.parametrize(
        "p",
        [
            [0.5, 0.5, np.nan],
            [0.5, 0.5, np.inf],
            [1.5, -0.5, 0.0],
            [0.5, 0.4, 0.0],
            [0.0, 0.0, 0.0],
        ],
        ids=["nan", "inf", "negative", "sum-below-one", "zeros"],
    )
    def test_rejects_what_choice_rejects(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            nc.make_rng(0).choice(3, p=p)
        with pytest.raises(nc.DistributionError, match="row 1: probabilities must be finite, non-negative and sum to 1"):
            nc.inverse_cdf(np.stack([np.array([1.0, 0.0, 0.0]), p]), [0.5, 0.5])

    @pytest.mark.parametrize("p", [[0.5, 0.5, np.nan], [1.5, -0.5, 0.0], [0.5, 0.4, 0.0]], ids=["nan", "negative", "sum-below-one"])
    def test_one_row_rejects_as_a_batch_does(self, p):
        # one row takes its total as a Python float; its checks are the batch's
        with pytest.raises(nc.DistributionError, match="^row 0: probabilities must be finite, non-negative and sum to 1"):
            nc.inverse_cdf(np.array([p]), [0.5])

    @pytest.mark.parametrize("seed", range(4))
    def test_sum_within_choice_tolerance_accepted(self, seed):
        p = np.array([0.5, 0.5 + 0.5 * nc.SUM_ATOL])
        assert nc.inverse_cdf(p, nc.make_rng(seed).random()) == nc.make_rng(seed).choice(2, p=p)


class TestDeterminism:
    @pytest.mark.parametrize("part", [2.5, 2.0, True, None, np.float64(2.0), np.bool_(True)])
    def test_key_part_neither_str_nor_integer_rejected(self, part):
        # make_rng(0, "generate", 2.5) used to give trip 2's stream, as the key took int(2.5)
        with pytest.raises(TypeError, match="is neither a str nor an integer$"):
            nc.make_rng(0, "generate", part)

    def test_numpy_integer_key_part_keys_as_its_int(self):
        np.testing.assert_array_equal(nc.make_rng(np.int64(3), "generate", np.int32(2)).random(4), nc.make_rng(3, "generate", 2).random(4))

    def test_rng_streams_replay(self):
        a = nc.make_rng(5, "stream").normal(size=10)
        b = nc.make_rng(5, "stream").normal(size=10)
        np.testing.assert_array_equal(a, b)
        c = nc.make_rng(5, "other").normal(size=10)
        assert not np.array_equal(a, c)

    def test_op_sequence_bit_identical(self):
        def pipeline():
            rng = nc.make_rng(99)
            x = nc.Tensor(rng.normal(size=(5, 5)))
            w = nc.Tensor(rng.normal(size=(5, 3)))
            h = nc.gelu(nc.matmul(x, w))
            loss = nc.mean_all(nc.masked_logsumexp_rows(h, np.ones(h.shape, dtype=bool)))
            nc.backward(loss)
            return x.data.tobytes(), loss.data.tobytes(), w.grad.tobytes()

        assert pipeline() == pipeline()
