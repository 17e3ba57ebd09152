import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajforge import numcore as nc


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
        x = nc.tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = nc.tensor(np.eye(2))
        out = nc.matmul(eye, x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_product(self):
        a = nc.tensor([[1.0, 2.0], [3.0, 4.0]])
        b = nc.tensor([[1.0], [1.0]])
        out = nc.matmul(a, b)
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_shapes(self):
        a = nc.tensor(np.zeros((2, 3)))
        b = nc.tensor(np.zeros((2, 3)))
        with pytest.raises(nc.ShapeError, match=r"\(2, 3\)"):
            nc.matmul(a, b)

    def test_grad_matches_finite_differences(self):
        rng = nc.make_rng(7)
        a = nc.Tensor(rng.normal(size=(3, 4)))
        b_val = rng.normal(size=(4, 2))

        loss = nc.sum_all(nc.matmul(a, nc.tensor(b_val)))
        nc.backward(loss)
        numeric = fd_grad(lambda: float(nc.sum_all(nc.matmul(nc.Tensor(a.data), nc.tensor(b_val))).data), a.data)
        rel = np.abs(a.grad - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() <= 1e-6
        # grad of sum(A@B) wrt A is the row-broadcast of B's column sums
        np.testing.assert_allclose(a.grad, np.tile(b_val.sum(axis=1), (3, 1)))


def masked_probs(x, mask=None):
    """Softmax as the policy, critic and oracle derive it from masked_logsumexp; exactly 0 where masked."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.ones(x.shape, dtype=bool) if mask is None else mask
    return np.exp(np.where(mask, x, -np.inf) - nc.masked_logsumexp(x, mask)[..., None])


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
            p = masked_probs(x, mask)
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(p[~mask] == 0.0)


class TestLogsumexp:
    """nc.masked_logsumexp: the one masked log-sum-exp that every softmax derives from."""

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


class TestCrossEntropy:
    def test_perfect_prediction_limit(self):
        logits = nc.tensor([[60.0, 0.0, 0.0]])
        out = nc.cross_entropy(logits, [0])
        assert out.item() == pytest.approx(0.0, abs=1e-20)

    def test_uniform_nine(self):
        logits = nc.tensor(np.zeros((5, 9)))
        out = nc.cross_entropy(logits, [0, 3, 8, 2, 4])
        assert out.item() == pytest.approx(math.log(9), abs=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            nc.cross_entropy(nc.tensor(np.zeros((2, 4))), [0, 4])

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
        x = nc.tensor([4.0, 4.0, 4.0])
        out = nc.layer_norm(x, nc.tensor(np.ones(3)), nc.tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_scale(self):
        # variance of [1, -1] is 1; epsilon shrinks the output slightly
        out = nc.layer_norm(nc.tensor([1.0, -1.0]), nc.tensor(np.ones(2)), nc.tensor(np.zeros(2)))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, [expected, -expected], atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = nc.make_rng(19)
        x = nc.Tensor(rng.normal(size=(4, 6)))
        gain = nc.Tensor(rng.normal(size=6))
        bias = nc.Tensor(rng.normal(size=6))

        def run():
            return nc.sum_all(nc.mul(nc.layer_norm(x, gain, bias), x2_const))

        x2_const = rng.normal(size=(4, 6))
        loss = run()
        nc.backward(loss)
        for t in (x, gain, bias):
            analytic = t.grad.copy()
            numeric = fd_grad(lambda: float(run().data), t.data, eps=1e-5)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
            assert rel.max() <= 1e-5


class TestAdamW:
    def test_zero_lr_zero_decay_noop(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.3, 0.7])
        state = nc.adamw_init([p], lr=0.0, weight_decay=0.0)
        nc.adamw_step([p], [g], state)
        np.testing.assert_array_equal(p, [1.0, -2.0])
        assert state.step == 1

    def test_single_step_hand_replay(self):
        p = np.array([1.0])
        g = np.array([1.0])
        state = nc.adamw_init([p], lr=0.1, weight_decay=0.0)
        nc.adamw_step([p], [g], state)
        # bias-corrected moments give a unit direction: p = 1 - 0.1 * 1/(1 + eps)
        assert p[0] == pytest.approx(0.9, abs=1e-7)

    def test_decay_only_multiplicative_shrink(self):
        p = np.array([2.0, -4.0])
        g = np.zeros(2)
        state = nc.adamw_init([p], lr=0.05, weight_decay=0.1)
        nc.adamw_step([p], [g], state)
        np.testing.assert_allclose(p, np.array([2.0, -4.0]) * (1 - 0.05 * 0.1))

    def test_shape_mismatch(self):
        p = np.zeros(3)
        state = nc.adamw_init([p], lr=0.1, weight_decay=0.0)
        with pytest.raises(nc.ShapeError):
            nc.adamw_step([p], [np.zeros(4)], state)


class TestFiniteDiffCheck:
    def test_square(self):
        p = nc.tensor([3.0])

        def f():
            return nc.sum_all(nc.mul(p, p))

        err = nc.finite_diff_check(f, [p], eps=1e-4)
        assert err <= 1e-9

    def test_constant_function(self):
        p = nc.tensor([1.0, 2.0])

        def f():
            return nc.tensor(5.0)

        err = nc.finite_diff_check(f, [p])
        assert err == 0.0

    def test_eps_bounds(self):
        p = nc.tensor([1.0])
        with pytest.raises(ValueError):
            nc.finite_diff_check(lambda: nc.sum_all(p), [p], eps=0.5)

    def test_nonfinite_rejected(self):
        p = nc.tensor([1.0])
        with pytest.raises(nc.EvaluationError):
            nc.finite_diff_check(lambda: nc.tensor(float("nan")), [p])


class TestCompositeGradients:
    """Reverse-mode gradients of each op family vs central differences."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mlp_block(self, seed):
        rng = nc.make_rng(23, seed)
        x = nc.Tensor(rng.normal(size=(3, 5)))
        w1 = nc.Tensor(rng.normal(size=(5, 7)))
        b1 = nc.Tensor(rng.normal(size=7))
        w2 = nc.Tensor(rng.normal(size=(7, 2)))

        def f():
            h = nc.gelu(nc.add(nc.matmul(x, w1), b1))
            return nc.mean_all(nc.matmul(h, w2))

        assert nc.finite_diff_check(f, [x, w1, b1, w2], eps=1e-5) <= 1e-6

    def test_attention_block(self):
        rng = nc.make_rng(29)
        x = nc.Tensor(rng.normal(size=(4, 8)))
        wq = nc.Tensor(rng.normal(size=(8, 8), scale=0.5))
        wk = nc.Tensor(rng.normal(size=(8, 8), scale=0.5))
        wv = nc.Tensor(rng.normal(size=(8, 8), scale=0.5))

        def f():
            ctx, _ = nc.block_causal_attention(nc.matmul(x, wq), nc.matmul(x, wk), nc.matmul(x, wv), n_heads=2, segments=[4])
            return nc.mean_all(ctx)

        assert nc.finite_diff_check(f, [x, wq, wk, wv], eps=1e-5) <= 1e-5

    def test_block_attention_matches_separate(self):
        rng = nc.make_rng(31)
        q1, k1, v1 = (rng.normal(size=(3, 4)) for _ in range(3))
        q2, k2, v2 = (rng.normal(size=(5, 4)) for _ in range(3))
        joint, _ = nc.block_causal_attention(
            nc.tensor(np.vstack([q1, q2])),
            nc.tensor(np.vstack([k1, k2])),
            nc.tensor(np.vstack([v1, v2])),
            n_heads=2,
            segments=[3, 5],
        )
        solo1, _ = nc.block_causal_attention(nc.tensor(q1), nc.tensor(k1), nc.tensor(v1), n_heads=2, segments=[3])
        solo2, _ = nc.block_causal_attention(nc.tensor(q2), nc.tensor(k2), nc.tensor(v2), n_heads=2, segments=[5])
        np.testing.assert_array_equal(joint.data[:3], solo1.data)
        np.testing.assert_array_equal(joint.data[3:], solo2.data)

    def test_masked_ops(self):
        rng = nc.make_rng(37)
        x = nc.Tensor(rng.normal(size=(4, 6)))
        mask = rng.random((4, 6)) > 0.3
        mask[:, 0] = True  # every row keeps at least one entry

        def f():
            return nc.mean_all(nc.masked_logsumexp_rows(x, mask))

        assert nc.finite_diff_check(f, [x], eps=1e-5) <= 1e-6
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

        assert nc.finite_diff_check(f, [logits], eps=1e-5) <= 1e-6
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
            return nc.sum_all(nc.slice_cols(rows, 1, 3))

        assert nc.finite_diff_check(f, [table], eps=1e-5) <= 1e-8


def attention_with_grads(q, k, v, g, n_heads, segments):
    """Context, weights and q/k/v gradients of block attention under the upstream gradient `g`."""
    q, k, v = nc.tensor(q), nc.tensor(k), nc.tensor(v)
    ctx, weights = nc.block_causal_attention(q, k, v, n_heads, segments)
    nc.backward(nc.sum_all(nc.mul_const(ctx, g)))
    return ctx.data, weights, q.grad, k.grad, v.grad


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
        ctx, weights, gq, gk, gv = attention_with_grads(q, k, v, g, n_heads, segments)
        assert len(weights) == len(segments)
        start = 0
        for seg, w in zip(segments, weights):
            sl = slice(start, start + seg)
            s_ctx, (s_w,), s_gq, s_gk, s_gv = attention_with_grads(q[sl], k[sl], v[sl], g[sl], n_heads, [seg])
            assert w.shape == (n_heads, seg, seg)
            np.testing.assert_array_equal(w, s_w)
            for joint, solo in ((ctx, s_ctx), (gq, s_gq), (gk, s_gk), (gv, s_gv)):
                np.testing.assert_array_equal(joint[sl], solo)
            start += seg

    def test_mixed_lengths_finite_differences(self):
        rng = nc.make_rng(53)
        x = nc.Tensor(rng.normal(size=(10, 4)))
        wq, wk, wv = (nc.Tensor(rng.normal(size=(4, 4), scale=0.5)) for _ in range(3))
        g = rng.normal(size=(10, 4))

        def f():
            ctx, _ = nc.block_causal_attention(
                nc.matmul(x, wq), nc.matmul(x, wk), nc.matmul(x, wv), n_heads=2, segments=[3, 1, 3, 2, 1]
            )
            return nc.sum_all(nc.mul_const(ctx, g))

        assert nc.finite_diff_check(f, [x, wq, wk, wv], eps=1e-5) <= 1e-5

    def test_segments_must_cover_rows(self):
        x = nc.tensor(np.zeros((4, 4)))
        with pytest.raises(nc.ShapeError):
            nc.block_causal_attention(x, x, x, 2, [1, 2])


class TestGatherGradients:
    def test_duplicates_equal_add_at(self):
        rng = nc.make_rng(61)
        table = nc.Tensor(rng.normal(size=(5, 3)))
        idx = np.array([4, 1, 4, 0, 4, 1, 2])
        g = rng.normal(size=(7, 3))
        nc.backward(nc.sum_all(nc.mul_const(nc.gather_rows(table, idx), g)))
        expected = np.zeros((5, 3))
        np.add.at(expected, idx, g)
        np.testing.assert_array_equal(table.grad, expected)

    def test_second_gather_adds_as_add_at(self):
        # a table read by two gathers: the second one's rows sum onto the first one's gradient in index order
        rng = nc.make_rng(67)
        table = nc.Tensor(rng.normal(size=(4, 3)))
        idx1, idx2 = np.array([0, 3, 3]), np.array([3, 1, 3, 3, 0])
        g1, g2 = rng.normal(size=(3, 3)) * 1e-3, rng.normal(size=(5, 3)) * 1e3
        rows1, rows2 = nc.gather_rows(table, idx1), nc.gather_rows(table, idx2)
        loss = nc.add(nc.sum_all(nc.mul_const(rows1, g1)), nc.sum_all(nc.mul_const(rows2, g2)))
        order = [id(node) for node in nc.backward(loss).nodes]
        # backward runs the recorded nodes last to first
        first, second = (idx2, g2), (idx1, g1)
        if order.index(id(rows1)) > order.index(id(rows2)):
            first, second = second, first
        expected = np.zeros((4, 3))
        np.add.at(expected, *first)
        np.add.at(expected, *second)
        np.testing.assert_array_equal(table.grad, expected)

    def test_per_row_equals_add_at(self):
        rng = nc.make_rng(71)
        a = nc.Tensor(rng.normal(size=(4, 6)))
        idx = np.array([5, 0, 5, 2])
        g = rng.normal(size=4)
        nc.backward(nc.sum_all(nc.mul_const(nc.gather_per_row(a, idx), g)))
        expected = np.zeros((4, 6))
        np.add.at(expected, (np.arange(4), idx), g)
        np.testing.assert_array_equal(a.grad, expected)


class TestLazyGradients:
    """The first gradient a node receives is its own array; later ones add into it."""

    def test_fan_out_sums(self):
        x = nc.tensor([1.0, -2.0, 3.0])
        nc.backward(nc.sum_all(nc.add(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        rng = nc.make_rng(73)
        h = nc.Tensor(rng.normal(size=(3, 4)))
        w1, w2 = nc.tensor(rng.normal(size=(4, 2))), nc.tensor(rng.normal(size=(4, 5)))
        nc.backward(nc.add(nc.sum_all(nc.matmul(h, w1)), nc.sum_all(nc.matmul(h, w2))))
        np.testing.assert_allclose(h.grad, np.tile(w1.data.sum(axis=1) + w2.data.sum(axis=1), (3, 1)), rtol=1e-14)

    def test_siblings_not_aliased(self):
        a, b = nc.tensor(np.ones(3)), nc.tensor(np.ones(3))
        out = nc.add(a, b)
        nc.backward(nc.sum_all(nc.mul_const(out, [3.0, 4.0, 12.0])))
        nc.clip_grad_norm([a.grad], 1.0)
        np.testing.assert_allclose(a.grad, [3 / 13, 4 / 13, 12 / 13])
        np.testing.assert_array_equal(b.grad, [3.0, 4.0, 12.0])
        np.testing.assert_array_equal(out.grad, [3.0, 4.0, 12.0])

    def test_mean_all_full_shape(self):
        x = nc.tensor(np.zeros((2, 5)))
        nc.backward(nc.mean_all(x))
        assert x.grad.shape == (2, 5)
        np.testing.assert_array_equal(x.grad, np.full((2, 5), 0.1))

    def test_empty_gather_gives_zeros(self):
        table = nc.tensor(np.ones((3, 2)))
        other = nc.tensor([2.0])
        loss = nc.add(nc.sum_all(nc.gather_rows(table, np.zeros(0, dtype=np.intp))), nc.sum_all(other))
        nc.backward(loss)
        assert table.grad is not None
        np.testing.assert_array_equal(table.grad, np.zeros((3, 2)))
        np.testing.assert_array_equal(other.grad, [1.0])

    def test_stale_gradients_dropped(self):
        x = nc.tensor([1.0, 2.0])
        for _ in range(2):
            nc.backward(nc.sum_all(nc.mul_const(x, 3.0)))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])


class TestDeterminism:
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
