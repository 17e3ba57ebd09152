import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from helpers import finite_diff_check, oracle_trip, traced_peak

from trajforge import checkpoint as ck
from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import synthgen as sg
from trajforge import tokenizer as tk
from trajforge import trajmodel as tm
from trajforge.numcore import make_rng


def small_model(d=16, layers=1, heads=2, users=4, grid=5, dropout=0.0, seed=1, max_len=20, init_std=0.02):
    net = ng.GridNetwork(ng.GridSpec(grid, grid))
    # max_len 0, a vocabulary of one timestep, is no SynthConfig, so the timestep table is sized here
    vocab = dataclasses.replace(tk.vocab_sizes(net, sg.SynthConfig(users=users)), max_timestep=max_len + 1)
    cfg = tm.ModelConfig(vocab=vocab, d_model=d, n_layers=layers, n_heads=heads, dropout=dropout, init_std=init_std)
    return net, tm.PolicyModel(cfg, rng=make_rng(seed))


def sample_trip(net, seed=3, user=1, n_users=4, max_len=19):
    """An oracle trip cut to its first 8 moves."""
    prefs = sg.PreferenceParams(make_rng(seed, "theta").normal(size=(n_users, 3)))
    return first_moves(oracle_trip(seed, (0, net.n_positions - 1), user, prefs, net, max_len, depart_bin=2, speed_bin=7), 8)


def first_moves(traj, n):
    """`traj` cut to its first `n` moves."""
    return dataclasses.replace(traj, positions=traj.positions[: n + 1], actions=traj.actions[:n])


logit_rows = st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9).map(np.array)
feasible_rows = st.lists(st.booleans(), min_size=9, max_size=9).filter(any).map(np.array)
temperatures = st.floats(0.05, 10.0)


def reference_forward(model, trip):
    """Independent plain-numpy replay of the architecture equations: the logits at each of the trip's moves."""
    cfg = model.cfg
    steps = tk.encode_trips([trip])
    t_len = steps.n_steps
    d = cfg.d_model

    def g(t):
        return t.data

    prev = np.concatenate([[tk.BLANK], steps.action[:-1]])  # the move that led to each step, BLANK at the first
    seq = (
        g(model.emb_position)[steps.position]
        + g(model.emb_origin)[steps.origin]
        + g(model.emb_destination)[steps.destination]
        + g(model.emb_depart)[steps.depart]
        + g(model.emb_speed)[steps.speed]
        + g(model.emb_user)[steps.user]
        + g(model.emb_timestep)[steps.timestep]
        + g(model.emb_action)[prev]
    )

    def ln(x, gain, bias):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g(gain) + g(bias)

    def gelu(x):
        return 0.5 * x * (1 + np.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))

    x = ln(seq, model.ln_emb_gain, model.ln_emb_bias)
    hd = d // cfg.n_heads
    for layer in model.layers:
        h = ln(x, layer["ln1_gain"], layer["ln1_bias"])
        q, k, v = h @ g(layer["wq"]), h @ g(layer["wk"]), h @ g(layer["wv"])
        ctx = np.zeros_like(q)
        for head in range(cfg.n_heads):
            sl = slice(head * hd, (head + 1) * hd)
            qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
            for i in range(t_len):
                scores = np.array([qh[i] @ kh[j] / math.sqrt(hd) for j in range(i + 1)])
                w = np.exp(scores - scores.max())
                w /= w.sum()
                ctx[i, sl] = w @ vh[: i + 1]
        x = x + ctx @ g(layer["wo"])
        h2 = ln(x, layer["ln2_gain"], layer["ln2_bias"])
        x = x + gelu(h2 @ g(layer["ff_w1"]) + g(layer["ff_b1"])) @ g(layer["ff_w2"]) + g(layer["ff_b2"])
    x = ln(x, model.ln_f_gain, model.ln_f_bias)
    return (x @ g(model.head_w) + g(model.head_b))[:-1]  # the terminal step makes no decision


GELU_C = math.sqrt(2 / math.pi)


def ln_forward(x, gain, bias):
    xhat = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
    return xhat * gain + bias, xhat


def ln_backward(dy, xhat, x, gain):
    """(dx, dgain, dbias) of `ln_forward`."""
    dxhat = dy * gain
    inv_std = 1 / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
    dx = inv_std * (dxhat - dxhat.mean(-1, keepdims=True) - xhat * (dxhat * xhat).mean(-1, keepdims=True))
    return dx, (dy * xhat).sum(0), dy.sum(0)


def reference_loss_and_grads(model, trips, masks=None):
    """Mean action NLL over the decision steps of `trips` and its gradient for every parameter,
    replayed in plain numpy over all T rows of every trip of T steps in every layer, its terminal step's too.

    `masks`, if given, lists the dropout masks in draw order (embedding, then each layer's attention
    and feed-forward outputs), each over the rows of every step of the trips, back to back.
    """
    cfg = model.cfg
    tables = [tk.encode_trips([trip]) for trip in trips]
    P = {name: t.data for name, t in model.parameters()}
    G = {name: np.zeros_like(value) for name, value in P.items()}
    d, hd = cfg.d_model, cfg.d_model // cfg.n_heads
    heads = [slice(i * hd, (i + 1) * hd) for i in range(cfg.n_heads)]
    n_layers = len(model.layers)
    n_dec = sum(int(w.decision_mask.sum()) for w in tables)
    loss, row0 = 0.0, 0
    for w in tables:
        n = w.n_steps
        drop = [np.ones((n, d))] * (1 + 2 * n_layers) if masks is None else [m[row0 : row0 + n] for m in masks]
        row0 += n
        elements = [
            ("emb_position", w.position),
            ("emb_origin", w.origin),
            ("emb_destination", w.destination),
            ("emb_depart", w.depart),
            ("emb_speed", w.speed),
            ("emb_user", w.user),
        ]
        elements += [("emb_timestep", w.timestep), ("emb_action", np.concatenate([[tk.BLANK], w.action[:-1]]))]
        seq = sum(P[name][idx] for name, idx in elements)
        y, seq_hat = ln_forward(seq, P["ln_emb_gain"], P["ln_emb_bias"])
        x = y * drop[0]
        caches = []
        for i in range(n_layers):
            p = {key: P[f"layer{i}.{key}"] for key in model.layers[i]}
            h, h_hat = ln_forward(x, p["ln1_gain"], p["ln1_bias"])
            q, k, v = h @ p["wq"], h @ p["wk"], h @ p["wv"]
            ctx, probs = np.empty((n, d)), []
            for sl in heads:
                scores = np.where(np.tri(n, dtype=bool), q[:, sl] @ k[:, sl].T / math.sqrt(hd), -np.inf)
                pr = np.exp(scores - scores.max(1, keepdims=True))
                probs.append(pr / pr.sum(1, keepdims=True))
                ctx[:, sl] = probs[-1] @ v[:, sl]
            x1 = x + (ctx @ p["wo"]) * drop[1 + 2 * i]
            h2, h2_hat = ln_forward(x1, p["ln2_gain"], p["ln2_bias"])
            u = h2 @ p["ff_w1"] + p["ff_b1"]
            t = np.tanh(GELU_C * (u + 0.044715 * u**3))
            gu = 0.5 * u * (1 + t)
            caches.append((p, x, h, h_hat, q, k, v, probs, ctx, x1, h2, h2_hat, u, t, gu))
            x = x1 + (gu @ p["ff_w2"] + p["ff_b2"]) * drop[2 + 2 * i]
        z, z_hat = ln_forward(x, P["ln_f_gain"], P["ln_f_bias"])
        logits = z @ P["head_w"] + P["head_b"]
        rows = np.flatnonzero(w.decision_mask)
        shifted = logits - logits.max(1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(1, keepdims=True))
        loss -= logp[rows, w.action[rows]].sum() / n_dec

        dlogits = np.zeros_like(logits)
        dlogits[rows] = np.exp(logp[rows])
        dlogits[rows, w.action[rows]] -= 1
        dlogits /= n_dec
        G["head_w"] += z.T @ dlogits
        G["head_b"] += dlogits.sum(0)
        dz = dlogits @ P["head_w"].T
        dx, dgain, dbias = ln_backward(dz, z_hat, x, P["ln_f_gain"])
        G["ln_f_gain"] += dgain
        G["ln_f_bias"] += dbias
        for i in reversed(range(n_layers)):
            p, x_in, h, h_hat, q, k, v, probs, ctx, x1, h2, h2_hat, u, t, gu = caches[i]
            g = {key: G[f"layer{i}.{key}"] for key in p}
            df = dx * drop[2 + 2 * i]
            g["ff_b2"] += df.sum(0)
            g["ff_w2"] += gu.T @ df
            du = (df @ p["ff_w2"].T) * (0.5 * (1 + t) + 0.5 * u * (1 - t * t) * GELU_C * (1 + 3 * 0.044715 * u * u))
            g["ff_b1"] += du.sum(0)
            g["ff_w1"] += h2.T @ du
            dx1, dgain, dbias = ln_backward(du @ p["ff_w1"].T, h2_hat, x1, p["ln2_gain"])
            g["ln2_gain"] += dgain
            g["ln2_bias"] += dbias
            dx1 += dx
            da = dx1 * drop[1 + 2 * i]
            g["wo"] += ctx.T @ da
            dctx = da @ p["wo"].T
            dq, dk, dv = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
            for sl, pr in zip(heads, probs):
                dv[:, sl] = pr.T @ dctx[:, sl]
                dp = dctx[:, sl] @ v[:, sl].T
                ds = pr * (dp - (pr * dp).sum(1, keepdims=True)) / math.sqrt(hd)
                dq[:, sl] = ds @ k[:, sl]
                dk[:, sl] = ds.T @ q[:, sl]
            for key, dm in (("wq", dq), ("wk", dk), ("wv", dv)):
                g[key] += h.T @ dm
            dh = dq @ p["wq"].T + dk @ p["wk"].T + dv @ p["wv"].T
            dx, dgain, dbias = ln_backward(dh, h_hat, x_in, p["ln1_gain"])
            g["ln1_gain"] += dgain
            g["ln1_bias"] += dbias
            dx += dx1
        dseq, dgain, dbias = ln_backward(dx * drop[0], seq_hat, seq, P["ln_emb_gain"])
        G["ln_emb_gain"] += dgain
        G["ln_emb_bias"] += dbias
        for name, idx in elements:
            np.add.at(G[name], idx, dseq)
    return loss, G


def random_trips(vocab, sizes, seed):
    """Trips of random tokens, one of each number of steps in `sizes`; their moves need not be the network's."""
    rng = np.random.default_rng(seed)
    return [
        sg.Trajectory(
            i,
            int(rng.integers(vocab.users)),
            int(rng.integers(vocab.depart_bins)),
            int(rng.integers(vocab.speed_bins)),
            rng.integers(0, vocab.positions, n).tolist(),
            rng.integers(0, tk.BLANK, n - 1).tolist(),
        )
        for i, n in enumerate(sizes)
    ]


def assert_matches_replay(model, trips, rng=None, masks=None):
    """`batch_nll` and every parameter gradient equal the full-row replay within 1e-12 relative."""
    loss = tm.batch_nll(trips, model, rng=rng)
    nc.backward(loss)
    ref_loss, ref_grads = reference_loss_and_grads(model, trips, masks)
    assert abs(float(loss.data) - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, t in model.parameters():
        scale = np.abs(ref_grads[name]).max()
        assert np.abs(t.grad - ref_grads[name]).max() <= 1e-12 * scale, name


def computed_rows(trips):
    """Rows of the trips' steps, back to back, that `forward_batch` computes in every layer, in its
    order: each trip's m decision steps, all but its terminal one."""
    rows, row0 = [], 0
    for t in trips:
        rows.append(row0 + np.arange(len(t.actions)))
        row0 += len(t.positions)
    return np.concatenate(rows)


def walk_trip(ctx, positions, actions):
    """The trip of `ctx` that makes the moves `actions` through `positions`, its last being `ctx.destination`."""
    assert positions[-1] == ctx.destination
    return sg.Trajectory(ctx.traj_id, ctx.user_id, ctx.depart_bin, ctx.speed_bin, positions, actions)


def random_walk(net, origin, moves, seed):
    """Positions and actions of `moves` uniformly random feasible moves from `origin`."""
    rng = np.random.default_rng(seed)
    positions, actions = [origin], []
    for _ in range(moves):
        a = int(rng.choice(np.flatnonzero(net.feasible[positions[-1]])))
        actions.append(a)
        positions.append(int(net.succ[positions[-1], a]))
    return positions, actions


def decoder_step(decoder, rows, positions, prev_actions):
    """One decoder step of the trips `rows` (indices into the decoder's contexts), as `roll_out` calls it."""
    return decoder.step(np.asarray(rows, dtype=np.intp), np.asarray(positions, dtype=np.intp), np.asarray(prev_actions, dtype=np.intp))


def decoder_logits(model, ctx, positions, actions):
    """Decoder logits at every step of a trip, fed one step at a time as generation does."""
    decoder = tm._Decoder(model, tm._context_columns([ctx]))
    return [decoder_step(decoder, [0], [pos], [actions[t - 1] if t else -1])[0] for t, pos in enumerate(positions)]


class TestForward:
    def test_single_step_shape(self):
        net, model = small_model()
        out = tm.forward_batch([first_moves(sample_trip(net), 1)], model)
        assert out.logits.data.shape == (1, 9)
        assert np.all(np.isfinite(out.logits.data))

    def test_matches_independent_replay(self):
        net, model = small_model(d=4, layers=1, heads=1)
        trip = sample_trip(net)
        out = tm.forward_batch([trip], model)
        ref = reference_forward(model, trip)
        np.testing.assert_allclose(out.logits.data, ref, rtol=1e-10, atol=1e-12)

    def test_matches_replay_multihead_multilayer(self):
        net, model = small_model(d=8, layers=2, heads=2, seed=9)
        trip = sample_trip(net, seed=11)
        out = tm.forward_batch([trip], model)
        ref = reference_forward(model, trip)
        np.testing.assert_allclose(out.logits.data, ref, rtol=1e-10, atol=1e-12)

    def test_causality_bit_identical(self):
        net, model = small_model()
        trip = sample_trip(net)
        moves = len(trip.actions)
        assert moves >= 3
        base = tm.forward_batch([trip], model).logits.data.copy()
        cut = moves - 2
        # perturb everything after step cut's token: the action at cut, which step cut + 1's token holds,
        # and all later steps but the last position, which every step reads as its destination
        actions = [*trip.actions[:cut], (trip.actions[cut] + 1) % 9] + [0] * (moves - cut - 1)
        positions = [*trip.positions[: cut + 1], *[1] * (moves - cut - 1), trip.positions[-1]]
        after = tm.forward_batch([dataclasses.replace(trip, positions=positions, actions=actions)], model).logits.data
        assert np.array_equal(base[: cut + 1], after[: cut + 1])
        assert not np.array_equal(base[cut + 1 :], after[cut + 1 :])

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError, match="n_layers"):
            small_model(layers=0)

    @pytest.mark.parametrize("field, value", [("n_heads", 0), ("d_model", 0), ("ff_mult", 0), ("init_std", -1.0), ("init_std", float("nan"))])
    def test_degenerate_width_or_scale_rejected_by_name(self, field, value):
        vocab = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), sg.SynthConfig(users=2))
        with pytest.raises(ValueError, match=f"^{field} must be"):
            tm.ModelConfig(vocab, **{field: value})

    @pytest.mark.parametrize(
        "field, value, others",
        [("d_model", True, dict(n_heads=1)), ("n_layers", 2.0, {}), ("n_heads", 2.5, {}), ("ff_mult", True, {}), ("d_model", None, {})],
    )
    def test_int_field_holding_bool_or_fraction_rejected_by_name(self, field, value, others):
        # d_model True used to act as 1, n_layers 2.0 to fail later as a bare TypeError, and d_model
        # None to raise a bare TypeError from its bound, which ran before its integer check
        vocab = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), sg.SynthConfig(users=2))
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            tm.ModelConfig(vocab, **{field: value}, **others)

    def test_numpy_integer_fields_accepted(self):
        vocab = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), sg.SynthConfig(users=2))
        cfg = tm.ModelConfig(vocab, d_model=np.int64(8), n_layers=np.int32(1), n_heads=np.int64(2), ff_mult=np.int64(2))
        trip = sample_trip(ng.GridNetwork(ng.GridSpec(3, 3)), n_users=2, max_len=5)
        assert tm.forward_batch([trip], tm.PolicyModel(cfg)).logits.shape == (len(trip.actions), 9)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="dropout"):
            small_model(dropout=rate)

    def test_no_graph_logits_bit_identical_and_bare(self):
        net, model = small_model(d=8, layers=2, heads=2, init_std=0.5)
        trips = random_trips(model.cfg.vocab, [5, 2, 3], seed=3)
        recorded = tm.forward_batch(trips, model).logits
        with nc.no_graph():
            bare = tm.forward_batch(trips, model).logits
        assert bare.data.tobytes() == recorded.data.tobytes()
        assert bare._parents == () and bare._bwd is None
        assert recorded._parents

    def test_no_graph_lowers_peak_memory(self):
        net, model = small_model(d=32, layers=2, heads=2)
        trips = random_trips(model.cfg.vocab, [8 if i % 3 == 0 else 9 for i in range(64)], seed=4)

        def bare_forward():
            with nc.no_graph():
                tm.forward_batch(trips, model)

        recorded = traced_peak(lambda: tm.forward_batch(trips, model))
        bare = traced_peak(bare_forward)
        assert bare < 0.6 * recorded  # ~16 MB with the graph, ~6 MB without

    def test_non_integer_user_rejected_by_name(self):
        # user 2.7 used to give user 2's logits; now the trip rejects it when made, before forward_batch can meet it
        net, _ = small_model()
        with pytest.raises(ValueError, match=r"^user_id must be an integer, got 2.7$"):
            dataclasses.replace(sample_trip(net, user=2), user_id=2.7, traj_id=4)

    def test_overlength_window_rejected(self):
        # a window is the whole trip: one longer than the context is named by check_vocab's timestep check
        net, model = small_model(max_len=1)  # the policy reads at most 2 steps
        fits, too_long = first_moves(sample_trip(net), 1), dataclasses.replace(sample_trip(net), traj_id=5)
        tm.forward_batch([fits], model)
        with pytest.raises(tk.EncodingError, match="^trajectory 5: timestep 2 outside vocabulary of 2$"):
            tm.forward_batch([fits, too_long], model)

    @given(st.lists(st.integers(2, 21), min_size=1, max_size=6), st.integers(0, 2**16))
    def test_batch_equals_separate_trips(self, sizes, seed):
        # a window is the whole trip: each trip's rows of a batched pass are its own pass's
        net, model = small_model(layers=2, heads=2, init_std=0.5)
        trips = random_trips(model.cfg.vocab, sizes, seed)
        joint = tm.forward_batch(trips, model)
        assert joint.sizes == sizes
        start = 0
        for trip in trips:
            solo = tm.forward_batch([trip], model)
            decisions = len(trip.actions)
            np.testing.assert_allclose(joint.logits.data[start : start + decisions], solo.logits.data, rtol=1e-12, atol=1e-14)
            start += decisions
        assert start == len(joint.logits.data)


class TestNllLoss:
    def test_uniform_logits_ln9(self):
        net, model = small_model()
        model.vector[:] = 0.0
        loss = tm.batch_nll([sample_trip(net)], model)
        assert float(loss.data) == pytest.approx(math.log(9), abs=1e-12)

    def test_empty_batch_rejected(self):
        # every trip makes a move, so only a batch of no trips has no decision step
        net, model = small_model()
        with pytest.raises(ValueError, match="^no trips in batch$"):
            tm.batch_nll([], model)

    def test_gradient_matches_finite_differences(self):
        # well-scaled weights keep gradients away from the guard-denominator floor
        net, model = small_model(d=8, layers=1, heads=2, users=2, grid=3, max_len=6, init_std=0.3)
        prefs = sg.PreferenceParams(np.array([[2.0, 0.0, -1.0], [1.0, -1.0, 0.0]]))
        traj = oracle_trip(5, (0, 8), 0, prefs, net, 6, depart_bin=1, speed_bin=3)

        def f():
            return tm.batch_nll([traj], model)

        err = finite_diff_check(f, model.param_tensors(), eps=1e-4)
        assert err <= 1e-4


class TestDecisionRows:
    """`forward_batch` computes only rows that reach a decision; the loss must not notice."""

    @given(
        st.integers(1, 3),
        st.sampled_from([1, 2, 4]),
        st.integers(2, 6),
        st.lists(st.integers(2, 6), min_size=1, max_size=4),
        st.integers(0, 2**16),
    )
    def test_loss_and_gradients_match_full_row_replay_property(self, layers, heads, context, sizes, seed):
        net, model = small_model(d=8, layers=layers, heads=heads, grid=4, seed=seed, max_len=context - 1, init_std=0.5)
        assert_matches_replay(model, random_trips(model.cfg.vocab, [min(n, context) for n in sizes], seed))

    def test_dropout_masks_are_drawn_at_the_computed_rows(self):
        rate = 0.2
        net, model = small_model(d=8, layers=2, heads=2, grid=4, dropout=rate, init_std=0.5)
        trips = random_trips(model.cfg.vocab, [5, 2, 3, 4, 3], seed=5)
        rows = computed_rows(trips)
        draws = make_rng(7, "dropout")
        masks = []
        for _ in range(5):  # embedding, layer 0, the last layer
            mask = np.ones((sum(len(t.positions) for t in trips), 8))  # rows no loss reads keep ones
            mask[rows] = (draws.random((len(rows), 8)) >= rate) / (1 - rate)
            masks.append(mask)
        assert_matches_replay(model, trips, rng=make_rng(7, "dropout"), masks=masks)

    def test_dropout_stream_advances_by_the_computed_rows(self):
        net, model = small_model(d=8, layers=3, heads=2, grid=4, dropout=0.2)
        trips = random_trips(model.cfg.vocab, [4, 2, 4, 2], seed=6)
        rows = computed_rows(trips)
        rng = make_rng(8, "dropout")
        tm.batch_nll(trips, model, rng)
        fresh = make_rng(8, "dropout")
        for _ in range(7):  # the embedding, and two per layer
            fresh.random((len(rows), 8))
        assert rng.random() == fresh.random()

    def test_terminal_windows_gradient_matches_finite_differences(self):
        net, model = small_model(d=8, layers=2, heads=2, users=2, grid=3, max_len=6, init_std=0.3)
        prefs = sg.PreferenceParams(np.array([[2.0, 0.0, -1.0], [1.0, -1.0, 0.0]]))
        # a window is the whole trip, so each ends in its terminal step: two trips, and the second's last move alone
        trajs = [oracle_trip(s, (0, 8), s % 2, prefs, net, 6, depart_bin=1, speed_bin=3) for s in (5, 6)]
        last_move = dataclasses.replace(trajs[1], positions=trajs[1].positions[-2:], actions=trajs[1].actions[-1:])

        def f():
            return tm.batch_nll([*trajs, last_move], model)

        assert finite_diff_check(f, model.param_tensors(), eps=1e-4) <= 1e-4


def draw_moves(p, u):
    """The first moves that `roll_out` draws from the (9,) action probabilities `p` at the uniforms
    `u`, one trip per uniform, from the centre of a 3x3 grid, where every action is feasible."""
    u = np.asarray(u, dtype=float).reshape(-1, 1)
    trips = sg.roll_out(ng.GridNetwork(ng.GridSpec(3, 3)), [4] * len(u), [0] * len(u), u, lambda rows, pos, prev: np.tile(p, (len(rows), 1)))
    return np.array([moves[0] for _, moves, _ in trips])


class TestSampleAction:
    """A move is drawn by `synthgen.roll_out` from the policy's probabilities; the greedy rows are `generate_scored`'s."""

    def test_single_feasible(self):
        p = np.exp(nc.masked_log_softmax(np.zeros(9), np.arange(9) == 6))
        assert draw_moves(p, make_rng(0).random()).tolist() == [6]

    def test_greedy_tie_break(self):
        # at an all-zero parameter vector every logit is 0, so every feasible action ties
        net, model = small_model(layers=2, max_len=12)
        model.vector[:] = 0.0
        for origin, destination in ((0, 24), (24, 0), (12, 4), (7, 20)):
            ctx = tm.GenerationContext(origin, destination, 2, 7, 1, max_len=12, temperature=0.0, seed=3)
            res = tm.generate_scored(ctx, model, net)
            traj = res.trajectory
            assert list(traj.actions) == [int(np.argmax(net.feasible[p])) for p in traj.positions[:-1]]
            uniform = [np.log(1.0 / net.feasible[p].sum()) for p in traj.positions[:-1]]
            np.testing.assert_allclose(res.log_probs, uniform, rtol=1e-15)

    def test_uniform_frequencies_within_3_sigma(self):
        n = 100_000
        counts = np.bincount(draw_moves(np.full(9, 1 / 9), make_rng(123).random(n)), minlength=9)
        expected = n / 9
        sigma = math.sqrt(n * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_infeasible_never_sampled(self):
        feasible = np.isin(np.arange(9), [0, 4, 8])
        p = np.exp(nc.masked_log_softmax(np.zeros(9), feasible))
        assert feasible[draw_moves(p, make_rng(7).random(200))].all()

    @given(logit_rows, feasible_rows, temperatures, st.integers(0, 2**32))
    def test_feasible_only_property(self, logits, feasible, temperature, seed):
        p = np.exp(nc.masked_log_softmax(logits / temperature, feasible))
        assert feasible[draw_moves(p, make_rng(seed).random())].all()

    @given(logit_rows, feasible_rows, temperatures)
    def test_masked_log_probs_distribution_property(self, logits, feasible, temperature):
        # the masked log-softmax of the tempered logits, as generate_scored scores a move
        p = np.exp(nc.masked_log_softmax(logits / temperature, feasible))
        assert p[feasible].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p[~feasible] == 0.0)


class TestGenerate:
    def test_null_trip_rejected(self):
        net, model = small_model()
        with pytest.raises(sg.GenerationError):
            tm.generate_scored(tm.GenerationContext(3, 3, 0, 0, 0), model, net).trajectory

    def test_network_of_wrong_size_rejected(self):
        net, model = small_model()
        with pytest.raises(ValueError, match="network of 9 positions for a policy vocabulary of 25"):
            tm.generate_scored(tm.GenerationContext(0, 8, 0, 0, 0, max_len=10), model, ng.GridNetwork(ng.GridSpec(3, 3)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("origin", 25), ("destination", -1), ("depart_bin", 24), ("speed_bin", -1), ("user_id", 4), ("user_id", -1),
            ("user_id", 2**64), ("origin", -(2**64)), ("speed_bin", 2**63),  # past int64: used to escape as OverflowError
        ],
    )
    def test_context_outside_vocabulary_rejected(self, field, value):
        net, model = small_model()
        fields = dict(origin=0, destination=24, depart_bin=2, speed_bin=7, user_id=1)
        fields[field] = value
        column = dict(depart_bin="depart", speed_bin="speed", user_id="user").get(field, field)
        with pytest.raises(tk.EncodingError, match=f"^generation context: {column} {value} outside vocabulary"):
            tm.generate_scored(tm.GenerationContext(**fields, max_len=19), model, net)

    @pytest.mark.parametrize("temperature", [float("nan"), -0.5, None, float("inf")])
    def test_temperature_not_at_least_zero_rejected_by_name(self, temperature):
        # None used to raise a bare TypeError from the bound, and inf to sample uniformly over the feasible moves
        rule = ">= 0" if temperature == -0.5 else "a finite real number"
        with pytest.raises(ValueError, match=f"^temperature must be {rule}, got {temperature}$"):
            tm.GenerationContext(0, 24, 2, 7, 1, temperature=temperature)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_raises_evaluation_error(self, value):
        # the batched forward and the graph-free decoder each check their logits
        net, model = small_model()
        model.head_b.data[0] = value
        with pytest.raises(nc.EvaluationError, match="^non-finite values in action logits$"):
            tm.forward_batch([sample_trip(net)], model)
        with pytest.raises(nc.EvaluationError, match="^non-finite values in action logits$"):
            tm.generate_scored(tm.GenerationContext(0, 24, 2, 7, 1, max_len=19), model, net)

    def test_vocabulary_of_one_timestep_rejected(self):
        # the origin's timestep is the vocabulary's only one, which leaves no room for a move
        net = ng.GridNetwork(ng.GridSpec(5, 5))
        vocab = dataclasses.replace(tk.vocab_sizes(net, sg.SynthConfig(users=4)), max_timestep=1)
        cfg = tm.ModelConfig(vocab=vocab, d_model=8, n_heads=2)
        model = tm.PolicyModel(cfg, rng=make_rng(0))
        with pytest.raises(sg.GenerationError, match="max_len must allow at least one move"):
            tm.generate_scored(tm.GenerationContext(0, 24, 2, 7, 1, max_len=19), model, net)

    def test_trips_pinned(self):
        # SHA-256 of the positions, actions and flags of 40 contexts at temperatures 1 and 0; log-prob
        # bytes are left out, as they depend on the BLAS build. Most trips run past 4 moves. At init_std
        # 0.02 the action probabilities are near uniform, so a change to what a move is conditioned on
        # rarely moves a draw across a CDF boundary; the init_std 0.5 model's trips see it.
        trips = sg.gen_dataset(sg.SynthConfig(users=4, n_trajectories=40, max_len=12, seed=3))[0].trajectories
        for init_std, want in (
            (0.02, "d9a8cdf738830be395cb1872750bb67b03b0d7adfcf38b66a0b5814010efe829"),
            (0.5, "de93c3d58c3dd92752711b75cc509265bf2e5a0a776e4251f2d62a734b0a8ac7"),
        ):
            net, model = small_model(layers=2, max_len=12, seed=7, init_std=init_std)
            digest, moves = hashlib.sha256(), []
            for temperature in (1.0, 0.0):
                for t in trips:
                    fields = dict(depart_bin=t.depart_bin, speed_bin=t.speed_bin, user_id=t.user_id, traj_id=t.traj_id)
                    ctx = tm.GenerationContext(t.origin, t.destination, max_len=12, temperature=temperature, seed=5, **fields)
                    traj = tm.generate_scored(ctx, model, net).trajectory
                    digest.update(repr((list(traj.positions), list(traj.actions), traj.flag)).encode())
                    moves.append(len(traj.actions))
            assert sum(m > 4 for m in moves) > 40
            assert digest.hexdigest() == want, f"init_std {init_std}"

    def test_same_seed_identical(self):
        net, model = small_model()
        ctx = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=1.0, seed=42)
        a = tm.generate_scored(ctx, model, net).trajectory
        b = tm.generate_scored(ctx, model, net).trajectory
        assert a.positions == b.positions and a.actions == b.actions

    def test_greedy_deterministic_function(self):
        net, model = small_model()
        ctx1 = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=0.0, seed=1)
        ctx2 = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=0.0, seed=999)
        assert tm.generate_scored(ctx1, model, net).trajectory.positions == tm.generate_scored(ctx2, model, net).trajectory.positions

    @pytest.mark.parametrize("field, part", [("seed", 2**200), ("traj_id", -(2**130))])
    def test_rng_key_past_128_bits_named(self, field, part):
        # int.to_bytes used to escape as a bare OverflowError
        net, model = small_model()
        ctx = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, **{field: part})
        with pytest.raises(ValueError, match=f"^rng key part {part} is outside the signed 128-bit range$"):
            tm.generate([ctx], model, net)

    @given(
        on_grid=st.booleans(),
        temperature=st.sampled_from([0.0, 1.0]),
        seed=st.integers(0, 2**16),
        model_seed=st.integers(0, 3),
        data=st.data(),
    )
    def test_all_actions_feasible(self, on_grid, temperature, seed, model_seed, data):
        if on_grid:
            net = ng.GridNetwork(ng.GridSpec(4, 4))
        else:  # links 3 and 5 are dead ends: no downstream link
            net = ng.LinkGraph([[1, 2], [4, 0], [3, 5], [], [1, 3, 6], [], [4]])
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=2, max_len=12))
        cfg = tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=2, dropout=0.0, init_std=0.5)
        model = tm.PolicyModel(cfg, rng=make_rng(model_seed))
        cell = st.integers(0, net.n_positions - 1)
        origin, destination = data.draw(cell, label="origin"), data.draw(cell, label="destination")
        assume(origin != destination and net.hops[destination][origin] >= 0)
        ctx = tm.GenerationContext(origin, destination, 1, 2, 1, max_len=12, temperature=temperature, seed=seed)
        res = tm.generate_scored(ctx, model, net)
        traj = res.trajectory
        for pos, act in zip(traj.positions, traj.actions):
            assert net.feasible[pos, act]
        last = traj.positions[-1]
        assert (traj.flag == "complete") == (last == destination)
        if traj.flag == "dead_end":
            assert not net.feasible[last].any()
        if traj.flag == "truncated":
            assert len(traj.actions) == ctx.max_len and net.feasible[last].any()
        lp = res.log_probs
        assert lp.shape == (len(traj.actions),) and np.all(np.isfinite(lp)) and np.all(lp <= 0.0)

    def test_user_row_swap_swaps_generations(self):
        net, model = small_model()
        swapped = model.copy()
        rows = swapped.emb_user.data
        rows[[1, 2]] = rows[[2, 1]]
        ctx_u1 = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=1.0, seed=11)
        ctx_u2 = tm.GenerationContext(0, 24, 2, 7, 2, max_len=19, temperature=1.0, seed=11)
        a = tm.generate_scored(ctx_u1, model, net).trajectory
        b = tm.generate_scored(ctx_u2, swapped, net).trajectory
        assert a.positions == b.positions and a.actions == b.actions

    def test_max_len_truncates(self):
        net, model = small_model()
        traj = tm.generate_scored(tm.GenerationContext(0, 24, 0, 0, 0, max_len=2, seed=3), model, net).trajectory
        if traj.flag == "truncated":
            assert len(traj.actions) == 2
        else:
            assert traj.destination == 24

    @pytest.mark.parametrize("temperature", [1.0, 0.0])
    def test_log_probs_scored_once_per_move(self, monkeypatch, temperature):
        net, model = small_model()
        ctx = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=temperature, seed=5)
        calls = []
        scorer = nc.masked_log_softmax
        monkeypatch.setattr(nc, "masked_log_softmax", lambda *args: calls.append(args) or scorer(*args))
        res = tm.generate_scored(ctx, model, net)
        monkeypatch.undo()
        traj = res.trajectory
        assert len(calls) == len(traj.actions) == len(res.log_probs)
        for t, a in enumerate(traj.actions):
            logits = decoder_logits(model, ctx, traj.positions[: t + 1], traj.actions[:t])[-1]
            lp = nc.masked_log_softmax(logits / (temperature or 1.0), net.feasible[traj.positions[t]])
            assert lp[a].tobytes() == res.log_probs[t].tobytes()

    @given(
        temperature=st.sampled_from([0.0, 1.0]),
        n_trips=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        model_seed=st.integers(0, 3),
    )
    def test_batch_equals_sequential_property(self, temperature, n_trips, seed, model_seed):
        # each row of one `generate` call takes its own `generate_scored` trip, its log-probs within
        # 1e-12: at more than one trip the products round otherwise, never by enough to move a draw here
        net, model = small_model(layers=2, max_len=12, seed=model_seed, init_std=0.5)
        rng = np.random.default_rng(seed)
        ends = [rng.choice(net.n_positions, size=2, replace=False) for _ in range(n_trips)]
        contexts = [
            tm.GenerationContext(int(o), int(d), int(rng.integers(24)), int(rng.integers(120)), int(rng.integers(4)),
                                 max_len=12, temperature=temperature, seed=seed, traj_id=i)
            for i, (o, d) in enumerate(ends)
        ]
        batch = tm.generate(contexts, model, net)
        assert len(batch) == n_trips
        for ctx, res in zip(contexts, batch):
            one = tm.generate_scored(ctx, model, net)
            assert res.trajectory == one.trajectory
            np.testing.assert_allclose(res.log_probs, one.log_probs, rtol=0, atol=1e-12)

    def test_batch_trips_leave_at_different_moves(self):
        # the rows of one call end at different moves, so the decoder drops rows mid-batch; the streams of
        # seed 6 end these 40 trips at 8 different lengths
        net, model = small_model(layers=2, max_len=12, seed=7, init_std=0.5)
        trips = sg.gen_dataset(sg.SynthConfig(users=4, n_trajectories=40, max_len=12, seed=3))[0].trajectories
        contexts = [
            tm.GenerationContext(t.origin, t.destination, t.depart_bin, t.speed_bin, t.user_id, max_len=12, seed=6, traj_id=t.traj_id)
            for t in trips
        ]
        batch = tm.generate(contexts, model, net)
        assert len({len(r.trajectory.actions) for r in batch}) > 5
        for ctx, res in zip(contexts, batch):
            one = tm.generate_scored(ctx, model, net)
            assert res.trajectory == one.trajectory
            np.testing.assert_allclose(res.log_probs, one.log_probs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("field, value", [("max_len", 11), ("temperature", 0.5)])
    def test_batch_of_differing_max_len_or_temperature_rejected(self, field, value):
        net, model = small_model()
        base = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19)
        odd = dataclasses.replace(base, **{field: value})
        with pytest.raises(ValueError, match="^context 2: max_len .* and temperature .* differ from context 0's 19 and 1.0$"):
            tm.generate([base, base, odd, odd], model, net)

    def test_batch_context_outside_vocabulary_named_by_row(self):
        net, model = small_model()
        good, bad = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19), tm.GenerationContext(0, 24, 2, 7, 4, max_len=19)
        with pytest.raises(tk.EncodingError, match="^generation context 1: user 4 outside vocabulary of 4$"):
            tm.generate([good, bad], model, net)

    def test_empty_batch(self):
        net, model = small_model()
        assert tm.generate([], model, net) == []

    @pytest.mark.parametrize(
        "field, value", [("origin", 2.5), ("depart_bin", True), ("max_len", 2.5), ("traj_id", 2.5), ("seed", True), ("user_id", 1.0)]
    )
    def test_int_field_holding_bool_or_fraction_rejected_by_name(self, field, value):
        # 2.5 used to pass check_columns by its cast and fail in the decoder, True to select a whole
        # table, max_len 2.5 to fail inside numpy, and traj_id 2.5 to draw trip 2's stream
        fields = {**dict(origin=0, destination=24, depart_bin=2, speed_bin=7, user_id=1), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            tm.GenerationContext(**fields)

    def test_numpy_integer_context_generates_as_int(self):
        net, model = small_model()
        fields = dict(origin=0, destination=24, depart_bin=2, speed_bin=7, user_id=1, max_len=19, seed=3, traj_id=4)
        as_numpy = tm.GenerationContext(**{name: np.int64(value) for name, value in fields.items()})
        want = tm.generate_scored(tm.GenerationContext(**fields), model, net)
        got = tm.generate_scored(as_numpy, model, net)
        assert (got.trajectory.positions, got.log_probs.tobytes()) == (want.trajectory.positions, want.log_probs.tobytes())

    def test_dead_end_flagged(self):
        graph = ng.LinkGraph([[1], []])
        vocab = tk.vocab_sizes(graph, sg.SynthConfig(users=1, max_len=5))
        cfg = tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, dropout=0.0)
        model = tm.PolicyModel(cfg, rng=make_rng(0))
        traj = tm.generate_scored(tm.GenerationContext(0, 1, 0, 0, 0, max_len=5, seed=0), model, graph).trajectory
        # link 1 is the destination, so this completes; dead ends only occur mid-route
        assert traj.flag == "complete"
        # branch into a cul-de-sac: from 0, action 0 heads toward dest 3, action 1 strands at 2
        graph2 = ng.LinkGraph([[1, 2], [3], [], []])
        vocab2 = tk.vocab_sizes(graph2, sg.SynthConfig(users=1, max_len=5))
        cfg2 = tm.ModelConfig(vocab=vocab2, d_model=8, n_layers=1, n_heads=1, dropout=0.0)
        model2 = tm.PolicyModel(cfg2, rng=make_rng(0))
        flags = {
            tm.generate_scored(tm.GenerationContext(0, 3, 0, 0, 0, max_len=5, temperature=1.0, seed=s), model2, graph2).trajectory.flag
            for s in range(12)
        }
        assert "dead_end" in flags
        assert flags <= {"dead_end", "complete"}

    def test_dead_end_on_the_last_allowed_move_flagged_dead_end(self):
        # test_all_actions_feasible's link graph: the twelfth and last move enters dead-end link 3,
        # which the trip loop used to flag "truncated"
        net = ng.LinkGraph([[1, 2], [4, 0], [3, 5], [], [1, 3, 6], [], [4]])
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=2, max_len=12))
        cfg = tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=2, dropout=0.0, init_std=0.5)
        model = tm.PolicyModel(cfg, rng=make_rng(0))
        traj = tm.generate_scored(tm.GenerationContext(1, 2, 1, 2, 1, max_len=12, temperature=1.0, seed=27), model, net).trajectory
        assert traj.positions == (1, 0, 1, 4, 1, 4, 6, 4, 6, 4, 6, 4, 3)
        assert traj.flag == "dead_end"


class TestDecoder:
    @given(
        st.integers(1, 3),
        st.sampled_from([1, 2, 4]),
        st.integers(1, 12),
        st.integers(0, 2**16),
    )
    def test_matches_forward_batch_property(self, layers, heads, moves, seed):
        # at every move, the decoder's cache of the trip so far scores what one pass over the trip walked
        # one move further does at that move: attention is causal, so no row reads a later step
        net, model = small_model(d=8, layers=layers, heads=heads, grid=4, seed=seed, init_std=0.5)
        positions, actions = random_walk(net, 5, moves + 1, seed)
        ctx = tm.GenerationContext(5, positions[-1], 2, 7, 1, seed=seed)
        expected = tm.forward_batch([walk_trip(ctx, positions, actions)], model).logits.data
        got = decoder_logits(model, ctx, positions[:-1], actions[:-1])
        assert len(got) == len(expected) == moves + 1
        for logits, want in zip(got, expected):
            np.testing.assert_allclose(logits, want, rtol=0, atol=1e-12)

    @given(st.integers(1, 9), st.integers(0, 2**16))
    def test_state_tokens_are_the_ordered_element_sum_property(self, moves, seed):
        # every token is the layer norm of forward_batch's ordered sum, the previous move last, bit for bit
        net, model = small_model(d=8, grid=4, seed=seed, init_std=0.5)
        ctx = tm.GenerationContext(5, 15, 2, 7, 1)
        positions, actions = random_walk(net, ctx.origin, moves, seed)
        decoder = tm._Decoder(model, tm._context_columns([ctx]))
        tokens, run = [], decoder._run
        decoder._run = lambda x: tokens.append(x[-1].copy()) or run(x)
        for t, pos in enumerate(positions):
            decoder_step(decoder, [0], [pos], [actions[t - 1] if t else -1])
            s_sum = (
                model.emb_position.data[pos]
                + model.emb_origin.data[ctx.origin]
                + model.emb_destination.data[ctx.destination]
                + model.emb_depart.data[ctx.depart_bin]
                + model.emb_speed.data[ctx.speed_bin]
                + model.emb_user.data[ctx.user_id]
                + model.emb_timestep.data[t]
                + model.emb_action.data[actions[t - 1] if t else tk.BLANK]
            )
            want = nc.layer_norm_fwd(s_sum[None], model.ln_emb_gain.data, model.ln_emb_bias.data)[0]
            assert tokens[t].tobytes() == want.tobytes()

    def test_rows_run_per_move(self):
        # a move runs the one token of step t
        net, model = small_model(d=8, layers=2, heads=2, seed=4)
        ctx = tm.GenerationContext(0, 24, 2, 7, 1)
        positions, actions = random_walk(net, ctx.origin, 6, seed=8)
        decoder = tm._Decoder(model, tm._context_columns([ctx]))
        rows, run = [], decoder._run
        decoder._run = lambda x: rows.append(len(x)) or run(x)
        for t, pos in enumerate(positions):
            decoder_step(decoder, [0], [pos], [actions[t - 1] if t else -1])
        assert rows == [1] * len(positions)

    @given(
        st.integers(1, 3),
        st.sampled_from([1, 2, 4]),
        st.lists(st.integers(0, 9), min_size=2, max_size=5),
        st.integers(0, 2**16),
    )
    def test_batch_matches_forward_batch_as_trips_leave_property(self, layers, heads, moves, seed):
        # trips of different lengths leave the batch at different steps, and the caches drop their rows;
        # every live trip's logits are still those of a fresh pass over its own trip so far
        net, model = small_model(d=8, layers=layers, heads=heads, grid=4, seed=seed, init_std=0.5)
        rng = np.random.default_rng(seed)
        origins, departs, speeds, users = (rng.integers(0, n, size=len(moves)) for n in (16, 24, 120, 4))
        # trip i takes moves[i] + 1 decoder steps, and one pass over it walked one move further scores them
        walks = [random_walk(net, int(o), n + 1, seed + i) for i, (o, n) in enumerate(zip(origins, moves))]
        contexts = [
            tm.GenerationContext(int(o), positions[-1], int(dep), int(sp), int(u))
            for o, (positions, _), dep, sp, u in zip(origins, walks, departs, speeds, users)
        ]
        expected = [tm.forward_batch([walk_trip(ctx, *walk)], model).logits.data for ctx, walk in zip(contexts, walks)]
        decoder = tm._Decoder(model, tm._context_columns(contexts))
        sizes = []
        for t in range(max(moves) + 1):
            live = [i for i, n in enumerate(moves) if n >= t]
            sizes.append(len(live))
            prev = [walks[i][1][t - 1] if t else -1 for i in live]
            logits = decoder_step(decoder, live, [walks[i][0][t] for i in live], prev)
            assert logits.shape == (len(live), 9)
            for row, i in zip(logits, live):
                np.testing.assert_allclose(row, expected[i][t], rtol=0, atol=1e-12)
        assert sizes == sorted(sizes, reverse=True) and sizes[0] == len(moves)

    def test_batch_rows_run_per_move(self):
        # each live trip runs the one token of step t; a finished trip's rows leave
        net, model = small_model(d=8, layers=2, heads=2, seed=4)
        contexts = [tm.GenerationContext(0, 24, 2, 7, 1), tm.GenerationContext(3, 20, 1, 5, 2), tm.GenerationContext(12, 0, 0, 0, 3)]
        walks = [random_walk(net, ctx.origin, n, seed=8 + n) for ctx, n in zip(contexts, (6, 2, 4))]
        decoder = tm._Decoder(model, tm._context_columns(contexts))
        rows, run = [], decoder._run
        decoder._run = lambda x: rows.append(len(x)) or run(x)
        for t in range(7):
            live = [i for i, (positions, _) in enumerate(walks) if len(positions) > t]
            decoder_step(decoder, live, [walks[i][0][t] for i in live], [walks[i][1][t - 1] if t else -1 for i in live])
        assert rows == [3, 3, 3, 2, 2, 1, 1]
        assert decoder.caches[0].shape[1] == 1  # the caches hold the one trip still under way


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        net, model = small_model(d=8, layers=2)
        path = tmp_path / "policy.ckpt"
        model.save(path, meta={"epochs_done": 3})
        loaded, meta = ck.load(path, tm.PolicyModel)
        assert meta == {"epochs_done": 3}
        for (n1, t1), (n2, t2) in zip(model.parameters(), loaded.parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_loss_identical_after_round_trip(self, tmp_path):
        net, model = small_model(d=8)
        trip = sample_trip(net)
        before = float(tm.batch_nll([trip], model).data)
        path = tmp_path / "p.ckpt"
        model.save(path)
        loaded, _ = ck.load(path, tm.PolicyModel)
        assert float(tm.batch_nll([trip], loaded).data) == before

    def test_vocab_mismatch_rejected(self, tmp_path):
        net, model = small_model(grid=5)
        path = tmp_path / "p.ckpt"
        model.save(path)
        other = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), sg.SynthConfig(users=4, max_len=20))
        with pytest.raises(ck.CheckpointError, match="vocabulary"):
            ck.load(path, tm.PolicyModel, other)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"not a checkpoint\n\x00\x01")
        with pytest.raises(ck.CheckpointError):
            ck.load(path, tm.PolicyModel)

    def test_truncated_blob_rejected(self, tmp_path):
        net, model = small_model(d=8, layers=1)
        path = tmp_path / "p.ckpt"
        model.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ck.CheckpointError, match="blob"):
            ck.load(path, tm.PolicyModel)
