import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import synthgen as sg
from trajforge import tokenizer as tk
from trajforge import trajmodel as tm
from trajforge.numcore import make_rng


def small_model(d=16, layers=1, heads=2, context=8, users=4, grid=5, dropout=0.0, seed=1, max_len=20, init_std=0.02):
    net = ng.GridNetwork(ng.GridSpec(grid, grid))
    vocab = tk.vocab_sizes(net, sg.SynthConfig(users=users, max_len=max_len))
    cfg = tm.ModelConfig(
        vocab=vocab, d_model=d, n_layers=layers, n_heads=heads, context=context, dropout=dropout, init_std=init_std
    )
    return net, tm.PolicyModel(cfg, rng=make_rng(seed))


def sample_window(net, seed=3, user=1, n_users=4, max_len=19):
    prefs = sg.PreferenceParams(make_rng(seed, "theta").normal(size=(n_users, 3)))
    traj = sg.gen_trajectory(seed, (0, net.n_positions - 1), user, prefs, net, max_len, depart_bin=2, speed_bin=7)
    return tk.windowize(tk.encode_episode(traj), 8, 8)[0]


logit_rows = st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9).map(np.array)
feasible_rows = st.lists(st.booleans(), min_size=9, max_size=9).filter(any).map(np.array)
temperatures = st.floats(0.05, 10.0)


def reference_forward(model, window):
    """Independent plain-numpy replay of the architecture equations."""
    cfg = model.cfg
    t_len = window.n_steps
    d = cfg.d_model

    def g(t):
        return t.data

    ts = g(model.emb_timestep)[window.timestep]
    s_tok = (
        g(model.emb_position)[window.position]
        + g(model.emb_origin)[window.origin]
        + g(model.emb_destination)[window.destination]
        + g(model.emb_depart)[window.depart]
        + g(model.emb_speed)[window.speed]
        + g(model.emb_user)[window.user]
        + ts
    )
    a_tok = g(model.emb_action)[window.action] + ts
    seq = np.empty((2 * t_len, d))
    seq[0::2] = s_tok
    seq[1::2] = a_tok

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
            for i in range(2 * t_len):
                scores = np.array([qh[i] @ kh[j] / math.sqrt(hd) for j in range(i + 1)])
                w = np.exp(scores - scores.max())
                w /= w.sum()
                ctx[i, sl] = w @ vh[: i + 1]
        x = x + ctx @ g(layer["wo"])
        h2 = ln(x, layer["ln2_gain"], layer["ln2_bias"])
        x = x + gelu(h2 @ g(layer["ff_w1"]) + g(layer["ff_b1"])) @ g(layer["ff_w2"]) + g(layer["ff_b2"])
    x = ln(x, model.ln_f_gain, model.ln_f_bias)
    return x[0::2] @ g(model.head_w) + g(model.head_b)


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


def reference_loss_and_grads(model, windows, masks=None):
    """Mean action NLL over the decision steps of `windows` and its gradient for every parameter,
    replayed in plain numpy over all 2T rows of every window in every layer.

    `masks`, if given, lists the dropout masks in draw order (embedding, then each layer's attention
    and feed-forward outputs), each over the 2 * (total steps) rows of the windows' token streams.
    """
    cfg = model.cfg
    P = {name: t.data for name, t in model.parameters()}
    G = {name: np.zeros_like(value) for name, value in P.items()}
    d, hd = cfg.d_model, cfg.d_model // cfg.n_heads
    heads = [slice(i * hd, (i + 1) * hd) for i in range(cfg.n_heads)]
    n_layers = len(model.layers)
    n_dec = sum(int(w.decision_mask.sum()) for w in windows)
    loss, row0 = 0.0, 0
    for w in windows:
        n = 2 * w.n_steps
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
        ts = P["emb_timestep"][w.timestep]
        seq = np.empty((n, d))
        seq[0::2] = sum(P[name][idx] for name, idx in elements) + ts
        seq[1::2] = P["emb_action"][w.action] + ts
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
        logits = z[0::2] @ P["head_w"] + P["head_b"]
        rows = np.flatnonzero(w.decision_mask)
        shifted = logits - logits.max(1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(1, keepdims=True))
        loss -= logp[rows, w.action[rows]].sum() / n_dec

        dlogits = np.zeros_like(logits)
        dlogits[rows] = np.exp(logp[rows])
        dlogits[rows, w.action[rows]] -= 1
        dlogits /= n_dec
        G["head_w"] += z[0::2].T @ dlogits
        G["head_b"] += dlogits.sum(0)
        dz = np.zeros((n, d))
        dz[0::2] = dlogits @ P["head_w"].T
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
            np.add.at(G[name], idx, dseq[0::2])
        np.add.at(G["emb_action"], w.action, dseq[1::2])
        np.add.at(G["emb_timestep"], w.timestep, dseq[0::2] + dseq[1::2])
    return loss, G


def random_windows(vocab, specs, seed):
    """Windows of random tokens, one per (steps, terminal) spec; a terminal window ends in a BLANK step."""
    rng = np.random.default_rng(seed)
    windows = []
    for n, terminal in specs:
        action = rng.integers(0, tk.BLANK, n)
        if terminal:
            action[-1] = tk.BLANK
        t0 = int(rng.integers(0, vocab.max_timestep - n + 1))
        windows.append(
            tk.EpisodeTokens(
                traj_id=len(windows),
                flag="complete",
                position=rng.integers(0, vocab.positions, n),
                origin=rng.integers(0, vocab.positions, n),
                destination=rng.integers(0, vocab.positions, n),
                depart=rng.integers(0, vocab.depart_bins, n),
                speed=rng.integers(0, vocab.speed_bins, n),
                user=rng.integers(0, vocab.users, n),
                action=action,
                timestep=np.arange(t0, t0 + n),
            )
        )
    return windows


def assert_matches_replay(model, windows, rng=None, masks=None):
    """`batch_nll` and every parameter gradient equal the full-row replay within 1e-12 relative."""
    loss = tm.batch_nll(windows, model, rng=rng)
    nc.backward(loss)
    ref_loss, ref_grads = reference_loss_and_grads(model, windows, masks)
    assert abs(loss.item() - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, t in model.parameters():
        scale = np.abs(ref_grads[name]).max()
        assert np.abs(t.grad - ref_grads[name]).max() <= 1e-12 * scale, name


def computed_rows(windows):
    """Rows of the windows' joint 2-token streams that `forward_batch` computes, in its order: those of
    the embedding and every layer but the last (each window's first 2m - 1 tokens), and those of the
    last layer (each window's m decision state tokens)."""
    stream, states, row0 = [], [], 0
    for w in windows:
        m = int(w.decision_mask.sum())
        stream.append(row0 + np.arange(max(2 * m - 1, 0)))
        states.append(row0 + 2 * np.arange(m))
        row0 += 2 * w.n_steps
    return np.concatenate(stream), np.concatenate(states)


def trailing_window(ctx, positions, actions, context):
    """Tokens of the trailing `context` steps of a trip being generated.

    The pending decision gets the placeholder action 0, so `forward_batch` reads the last step;
    nothing attends to that token."""
    n = len(positions)
    start = max(0, n - context)
    size = n - start

    def full(value):
        return np.full(size, value, dtype=np.int64)

    return tk.EpisodeTokens(
        traj_id=ctx.traj_id,
        flag="partial",
        position=np.array(positions[start:], dtype=np.int64),
        origin=full(ctx.origin),
        destination=full(ctx.destination),
        depart=full(ctx.depart_bin),
        speed=full(ctx.speed_bin),
        user=full(ctx.user_id),
        action=np.array(actions[start:] + [0], dtype=np.int64),
        timestep=np.arange(start, n, dtype=np.int64),
    )


def random_walk(net, origin, moves, seed):
    """Positions and actions of `moves` uniformly random feasible moves from `origin`."""
    rng = np.random.default_rng(seed)
    positions, actions = [origin], []
    for _ in range(moves):
        a = int(rng.choice(np.flatnonzero(net.feasible[positions[-1]])))
        actions.append(a)
        positions.append(ng.apply_action(net, positions[-1], a))
    return positions, actions


def decoder_logits(model, ctx, positions, actions):
    """Decoder logits at every step of a trip, fed one step at a time as generation does."""
    decoder = tm._Decoder(model, ctx)
    return [decoder.step(pos, actions[t - 1] if t else None) for t, pos in enumerate(positions)]


class TestEmbedState:
    def test_zero_tables_zero_vector(self):
        net, model = small_model()
        for _, t in model.parameters():
            t.data = np.zeros_like(t.data)
        state = ng.EnvState(0, 0, 24, 2, 7, 1)
        np.testing.assert_array_equal(tm.embed_state(state, model), np.zeros(model.cfg.d_model))

    def test_user_difference_is_row_difference(self):
        net, model = small_model()
        s1 = ng.EnvState(3, 0, 24, 2, 7, 1)
        s2 = ng.EnvState(3, 0, 24, 2, 7, 2)
        diff = tm.embed_state(s1, model) - tm.embed_state(s2, model)
        np.testing.assert_allclose(diff, model.emb_user.data[1] - model.emb_user.data[2], atol=1e-15)

    def test_sum_order_invariant(self):
        # commutativity: the state embedding equals the sum of its six element rows
        net, model = small_model()
        state = ng.EnvState(7, 0, 24, 5, 11, 3)
        manual = (
            model.emb_position.data[7]
            + model.emb_origin.data[0]
            + model.emb_destination.data[24]
            + model.emb_depart.data[5]
            + model.emb_speed.data[11]
            + model.emb_user.data[3]
        )
        np.testing.assert_allclose(tm.embed_state(state, model), manual, atol=1e-15)


class TestForward:
    def test_single_step_shape(self):
        net, model = small_model()
        window = sample_window(net).slice(0, 1)
        out = tm.forward_batch([window], model)
        assert out.logits.data.shape == (1, 9)
        assert np.all(np.isfinite(out.logits.data))

    def test_matches_independent_replay(self):
        net, model = small_model(d=4, layers=1, heads=1)
        window = sample_window(net)
        out = tm.forward_batch([window], model)
        ref = reference_forward(model, window)
        np.testing.assert_allclose(out.logits.data, ref, rtol=1e-10, atol=1e-12)

    def test_matches_replay_multihead_multilayer(self):
        net, model = small_model(d=8, layers=2, heads=2, seed=9)
        window = sample_window(net, seed=11)
        out = tm.forward_batch([window], model)
        ref = reference_forward(model, window)
        np.testing.assert_allclose(out.logits.data, ref, rtol=1e-10, atol=1e-12)

    def test_causality_bit_identical(self):
        net, model = small_model()
        window = sample_window(net)
        t_len = window.n_steps
        assert t_len >= 3
        base = tm.forward_batch([window], model).logits.data.copy()
        cut = t_len - 2
        # perturb everything after s_cut: the action at cut and all later steps
        mutated = window.slice(0, t_len)
        mutated.action = mutated.action.copy()
        mutated.position = mutated.position.copy()
        mutated.action[cut] = (mutated.action[cut] + 1) % 9
        mutated.action[cut + 1 :] = 0
        mutated.position[cut + 1 :] = 1
        after = tm.forward_batch([mutated], model).logits.data
        assert np.array_equal(base[: cut + 1], after[: cut + 1])
        assert not np.array_equal(base[cut + 1 :], after[cut + 1 :])

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError, match="n_layers"):
            small_model(layers=0)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="dropout"):
            small_model(dropout=rate)

    def test_no_graph_logits_bit_identical_and_bare(self):
        net, model = small_model(d=8, layers=2, heads=2, context=4, init_std=0.5)
        windows = random_windows(model.cfg.vocab, [(4, False), (2, True), (3, True)], seed=3)
        recorded = tm.forward_batch(windows, model).logits
        with nc.no_graph():
            bare = tm.forward_batch(windows, model).logits
        assert bare.data.tobytes() == recorded.data.tobytes()
        assert bare._parents == () and bare._bwd is None
        assert recorded._parents

    def test_no_graph_lowers_peak_memory(self):
        net, model = small_model(d=32, layers=2, heads=2, context=8)
        windows = random_windows(model.cfg.vocab, [(8, i % 3 == 0) for i in range(64)], seed=4)

        def peak(graph):
            tracemalloc.start()
            try:
                if graph:
                    out = tm.forward_batch(windows, model)
                else:
                    with nc.no_graph():
                        out = tm.forward_batch(windows, model)
                return tracemalloc.get_traced_memory()[1], out
            finally:
                tracemalloc.stop()

        recorded, _ = peak(graph=True)
        bare, _ = peak(graph=False)
        assert bare < 0.6 * recorded  # ~16 MB with the graph, ~6 MB without

    def test_overlength_window_rejected(self):
        net, model = small_model(context=2)
        window = sample_window(net)
        with pytest.raises(ValueError, match="exceeds context"):
            tm.forward_batch([window], model)


class TestInterleave:
    def test_matches_per_window_loop(self):
        sizes = [3, 1, 5, 3, 2]
        total = sum(sizes)
        perm = np.empty(2 * total, dtype=np.intp)
        s_index = np.empty(total, dtype=np.intp)
        seq_off = step_off = 0
        for t_len in sizes:
            rows = np.arange(t_len)
            for k in range(2):
                perm[seq_off + 2 * rows + k] = k * total + step_off + rows
            s_index[step_off + rows] = seq_off + 2 * rows
            seq_off += 2 * t_len
            step_off += t_len
        got_perm, got_s_index = tm._interleave(total)
        np.testing.assert_array_equal(got_perm, perm)
        np.testing.assert_array_equal(got_s_index, s_index)

    def test_batch_equals_separate_windows(self):
        net, model = small_model(layers=2, heads=2)
        windows = [sample_window(net, seed=s) for s in (3, 4, 5)]
        windows.append(windows[0].slice(0, 2))
        joint = tm.forward_batch(windows, model)
        start = 0
        for w in windows:
            solo = tm.forward_batch([w], model)
            decisions = int(w.decision_mask.sum())
            np.testing.assert_allclose(joint.logits.data[start : start + decisions], solo.logits.data, rtol=1e-12, atol=1e-14)
            start += decisions


class TestNllLoss:
    def test_uniform_logits_ln9(self):
        net, model = small_model()
        for _, t in model.parameters():
            t.data = np.zeros_like(t.data)
        window = sample_window(net)
        loss = tm.batch_nll([window], model)
        assert loss.item() == pytest.approx(math.log(9), abs=1e-12)

    def test_no_decision_steps_rejected(self):
        net, model = small_model()
        prefs = sg.PreferenceParams(np.ones((1, 3)))
        traj = sg.gen_trajectory(2, (0, 1), 0, prefs, net, 19)
        ep = tk.encode_episode(traj)
        terminal_only = ep.slice(ep.n_steps - 1, ep.n_steps)
        assert terminal_only.action[0] == tk.BLANK
        with pytest.raises(tm.LossError):
            tm.batch_nll([terminal_only], model)

    def test_gradient_matches_finite_differences(self):
        # well-scaled weights keep gradients away from the guard-denominator floor
        net, model = small_model(d=8, layers=1, heads=2, users=2, grid=3, max_len=6, init_std=0.3)
        prefs = sg.PreferenceParams(np.array([[2.0, 0.0, -1.0], [1.0, -1.0, 0.0]]))
        traj = sg.gen_trajectory(5, (0, 8), 0, prefs, net, 6, depart_bin=1, speed_bin=3)
        window = tk.windowize(tk.encode_episode(traj), 8, 8)[0]

        def f():
            return tm.batch_nll([window], model)

        err = nc.finite_diff_check(f, model.param_tensors(), eps=1e-4)
        assert err <= 1e-4


class TestDecisionRows:
    """`forward_batch` computes only rows that reach a decision; the loss must not notice."""

    @given(
        st.integers(1, 3),
        st.sampled_from([1, 2, 4]),
        st.integers(1, 5),
        st.lists(st.tuples(st.integers(1, 5), st.booleans()), min_size=1, max_size=4),
        st.integers(0, 2**16),
    )
    def test_loss_and_gradients_match_full_row_replay_property(self, layers, heads, context, specs, seed):
        net, model = small_model(d=8, layers=layers, heads=heads, context=context, grid=4, seed=seed, init_std=0.5)
        windows = random_windows(model.cfg.vocab, [(min(n, context), terminal) for n, terminal in specs], seed)
        if not any(w.decision_mask.any() for w in windows):
            with pytest.raises(tm.LossError):
                tm.batch_nll(windows, model)
            return
        assert_matches_replay(model, windows)

    def test_dropout_masks_are_drawn_at_the_computed_rows(self):
        rate = 0.2
        net, model = small_model(d=8, layers=2, heads=2, context=4, grid=4, dropout=rate, init_std=0.5)
        windows = random_windows(model.cfg.vocab, [(4, False), (1, True), (3, True), (4, True), (2, False)], seed=5)
        stream, states = computed_rows(windows)
        draws = make_rng(7, "dropout")
        masks = []
        for rows in (stream, stream, stream, states, states):  # embedding, layer 0, the last layer
            mask = np.ones((2 * sum(w.n_steps for w in windows), 8))  # rows no loss reads keep ones
            mask[rows] = (draws.random((len(rows), 8)) >= rate) / (1 - rate)
            masks.append(mask)
        assert_matches_replay(model, windows, rng=make_rng(7, "dropout"), masks=masks)

    def test_dropout_stream_advances_by_the_computed_rows(self):
        net, model = small_model(d=8, layers=3, heads=2, context=4, grid=4, dropout=0.2)
        windows = random_windows(model.cfg.vocab, [(4, True), (1, True), (3, False), (2, True)], seed=6)
        stream, states = computed_rows(windows)
        rng = make_rng(8, "dropout")
        tm.batch_nll(windows, model, rng)
        fresh = make_rng(8, "dropout")
        for rows in [stream] * 5 + [states] * 2:
            fresh.random((len(rows), 8))
        assert rng.random() == fresh.random()

    def test_terminal_only_windows_change_nothing(self):
        # at context 1 every trip's last window holds only its terminal step
        net, model = small_model(d=16, layers=2, heads=2, context=1, seed=3)
        prefs = sg.PreferenceParams(make_rng(9, "theta").normal(size=(4, 3)))
        trajs = [sg.gen_trajectory(s, (s % 5, 24 - s), s % 4, prefs, net, 19) for s in range(6)]
        windows = [w for traj in trajs for w in tk.windowize(tk.encode_episode(traj), 1, 1)]
        decided = [w for w in windows if w.decision_mask.any()]
        assert len(windows) - len(decided) == len(trajs)
        mixed = tm.forward_batch(windows, model)
        assert mixed.sizes == [1] * len(windows)
        assert tm.forward_batch([w for w in windows if not w.decision_mask.any()], model).logits.data.shape == (0, 9)
        np.testing.assert_allclose(tm.batch_nll(windows, model).item(), tm.batch_nll(decided, model).item(), rtol=1e-14)
        np.testing.assert_allclose(mixed.logits.data, tm.forward_batch(decided, model).logits.data, rtol=1e-13, atol=1e-15)

    def test_terminal_windows_gradient_matches_finite_differences(self):
        net, model = small_model(d=8, layers=2, heads=2, users=2, grid=3, context=3, max_len=6, init_std=0.3)
        prefs = sg.PreferenceParams(np.array([[2.0, 0.0, -1.0], [1.0, -1.0, 0.0]]))
        trajs = [sg.gen_trajectory(s, (0, 8), s % 2, prefs, net, 6, depart_bin=1, speed_bin=3) for s in (5, 6)]
        episodes = [tk.encode_episode(traj) for traj in trajs]
        windows = [ep.slice(ep.n_steps - n, ep.n_steps) for ep, n in zip(episodes, (3, 2))]
        windows.append(episodes[0].slice(episodes[0].n_steps - 1, episodes[0].n_steps))  # terminal step alone
        assert all(w.action[-1] == tk.BLANK for w in windows)

        def f():
            return tm.batch_nll(windows, model)

        assert nc.finite_diff_check(f, model.param_tensors(), eps=1e-4) <= 1e-4


class TestSampleAction:
    def test_single_feasible(self):
        rng = make_rng(0)
        assert tm.sample_action(np.zeros(9), np.arange(9) == 6, 1.0, rng) == 6

    def test_greedy_tie_break(self):
        rng = make_rng(0)
        logits = np.array([1.0, 2.0, 2.0, 0, 0, 0, 0, 0, 0])
        assert tm.sample_action(logits, np.ones(9, dtype=bool), 0.0, rng) == 1

    def test_empty_feasible(self):
        with pytest.raises(tm.DeadEndError):
            tm.sample_action(np.zeros(9), np.zeros(9, dtype=bool), 1.0, make_rng(0))

    def test_uniform_frequencies_within_3_sigma(self):
        rng = make_rng(123)
        n = 100_000
        counts = np.zeros(9, dtype=int)
        logits = np.zeros(9)
        feasible = np.ones(9, dtype=bool)
        for _ in range(n):
            counts[tm.sample_action(logits, feasible, 1.0, rng)] += 1
        expected = n / 9
        sigma = math.sqrt(n * (1 / 9) * (8 / 9))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_infeasible_never_sampled(self):
        rng = make_rng(7)
        feasible = np.isin(np.arange(9), [0, 4, 8])
        for _ in range(200):
            assert feasible[tm.sample_action(np.zeros(9), feasible, 1.0, rng)]

    @given(logit_rows, feasible_rows, st.one_of(st.just(0.0), temperatures), st.integers(0, 2**32))
    def test_feasible_only_property(self, logits, feasible, temperature, seed):
        assert feasible[tm.sample_action(logits, feasible, temperature, make_rng(seed))]

    @given(logit_rows, feasible_rows, temperatures)
    def test_masked_log_probs_distribution_property(self, logits, feasible, temperature):
        p = np.exp(tm.masked_log_probs(logits, feasible, temperature))
        assert p[feasible].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p[~feasible] == 0.0)


class TestGenerate:
    def test_null_trip_rejected(self):
        net, model = small_model()
        with pytest.raises(sg.GenerationError):
            tm.generate(tm.GenerationContext(3, 3, 0, 0, 0), model, net)

    @pytest.mark.parametrize(
        "field, value",
        [("origin", 25), ("destination", -1), ("depart_bin", 24), ("speed_bin", -1), ("user_id", 4), ("user_id", -1)],
    )
    def test_context_outside_vocabulary_rejected(self, field, value):
        net, model = small_model()
        fields = dict(origin=0, destination=24, depart_bin=2, speed_bin=7, user_id=1)
        fields[field] = value
        with pytest.raises(tk.EncodingError, match=field):
            tm.generate_scored(tm.GenerationContext(**fields, max_len=19), model, net)

    def test_same_seed_identical(self):
        net, model = small_model()
        ctx = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=1.0, seed=42)
        a = tm.generate(ctx, model, net)
        b = tm.generate(ctx, model, net)
        assert a.positions == b.positions and a.actions == b.actions

    def test_greedy_deterministic_function(self):
        net, model = small_model()
        ctx1 = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=0.0, seed=1)
        ctx2 = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=0.0, seed=999)
        assert tm.generate(ctx1, model, net).positions == tm.generate(ctx2, model, net).positions

    def test_all_actions_feasible(self):
        net, model = small_model()
        for seed in range(5):
            traj = tm.generate(tm.GenerationContext(0, 24, 0, 0, 0, max_len=19, seed=seed), model, net)
            for pos, act in zip(traj.positions, traj.actions):
                assert net.feasible[pos, act]

    def test_user_row_swap_swaps_generations(self):
        net, model = small_model()
        swapped = model.copy()
        rows = swapped.emb_user.data.copy()
        rows[[1, 2]] = rows[[2, 1]]
        swapped.emb_user.data = rows
        ctx_u1 = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=1.0, seed=11)
        ctx_u2 = tm.GenerationContext(0, 24, 2, 7, 2, max_len=19, temperature=1.0, seed=11)
        a = tm.generate(ctx_u1, model, net)
        b = tm.generate(ctx_u2, swapped, net)
        assert a.positions == b.positions and a.actions == b.actions

    def test_max_len_truncates(self):
        net, model = small_model()
        traj = tm.generate(tm.GenerationContext(0, 24, 0, 0, 0, max_len=2, seed=3), model, net)
        if traj.flag == "truncated":
            assert len(traj.actions) == 2
        else:
            assert traj.destination == 24

    @pytest.mark.parametrize("temperature", [1.0, 0.0])
    def test_log_probs_scored_once_per_move(self, monkeypatch, temperature):
        net, model = small_model()
        ctx = tm.GenerationContext(0, 24, 2, 7, 1, max_len=19, temperature=temperature, seed=5)
        calls = []
        scorer = tm.masked_log_probs
        monkeypatch.setattr(tm, "masked_log_probs", lambda *args: calls.append(args) or scorer(*args))
        res = tm.generate_scored(ctx, model, net)
        monkeypatch.undo()
        traj = res.trajectory
        assert len(calls) == len(traj.actions) == len(res.log_probs)
        for t, a in enumerate(traj.actions):
            replay = tm._Decoder(model, ctx)
            for s in range(t + 1):
                logits = replay.step(traj.positions[s], traj.actions[s - 1] if s else None)
            lp = tm.masked_log_probs(logits, net.feasible[traj.positions[t]], temperature or 1.0)
            assert lp[a].tobytes() == res.log_probs[t].tobytes()

    def test_dead_end_flagged(self):
        graph = ng.LinkGraph([[1], []])
        vocab = tk.vocab_sizes(graph, sg.SynthConfig(users=1, max_len=5))
        cfg = tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, context=4, dropout=0.0)
        model = tm.PolicyModel(cfg, rng=make_rng(0))
        traj = tm.generate(tm.GenerationContext(0, 1, 0, 0, 0, max_len=5, seed=0), model, graph)
        # link 1 is the destination, so this completes; dead ends only occur mid-route
        assert traj.flag == "complete"
        # branch into a cul-de-sac: from 0, action 0 heads toward dest 3, action 1 strands at 2
        graph2 = ng.LinkGraph([[1, 2], [3], [], []])
        vocab2 = tk.vocab_sizes(graph2, sg.SynthConfig(users=1, max_len=5))
        cfg2 = tm.ModelConfig(vocab=vocab2, d_model=8, n_layers=1, n_heads=1, context=4, dropout=0.0)
        model2 = tm.PolicyModel(cfg2, rng=make_rng(0))
        flags = {
            tm.generate(tm.GenerationContext(0, 3, 0, 0, 0, max_len=5, temperature=1.0, seed=s), model2, graph2).flag
            for s in range(12)
        }
        assert "dead_end" in flags
        assert flags <= {"dead_end", "complete"}


class TestDecoder:
    @given(
        st.integers(1, 3),
        st.sampled_from([1, 2, 4]),
        st.integers(1, 5),
        st.integers(1, 12),
        st.integers(0, 2**16),
    )
    def test_matches_forward_batch_property(self, layers, heads, context, moves, seed):
        # trips shorter and longer than the context: appended steps and slid windows alike
        net, model = small_model(d=8, layers=layers, heads=heads, context=context, grid=4, seed=seed, init_std=0.5)
        ctx = tm.GenerationContext(5, 15, 2, 7, 1, seed=seed)
        positions, actions = random_walk(net, ctx.origin, moves, seed)
        for t, logits in enumerate(decoder_logits(model, ctx, positions, actions)):
            window = trailing_window(ctx, positions[: t + 1], actions[:t], context)
            expected = tm.forward_batch([window], model).logits.data[-1]
            np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)

    def test_slid_window_matches_independent_replay(self):
        net, model = small_model(d=8, layers=2, heads=2, context=3, seed=4, init_std=0.5)
        ctx = tm.GenerationContext(0, 24, 2, 7, 1)
        positions, actions = random_walk(net, ctx.origin, 6, seed=8)
        logits = decoder_logits(model, ctx, positions, actions)[-1]
        ref = reference_forward(model, trailing_window(ctx, positions, actions, 3))[-1]
        np.testing.assert_allclose(logits, ref, rtol=1e-10, atol=1e-12)

    def test_rows_run_per_move(self):
        # a move runs a_{t-1} and s_t (s_0 alone at t = 0); a slid window reruns its 2 * context - 1 rows
        context = 3
        net, model = small_model(d=8, layers=2, heads=2, context=context, seed=4)
        ctx = tm.GenerationContext(0, 24, 2, 7, 1)
        positions, actions = random_walk(net, ctx.origin, 6, seed=8)
        decoder = tm._Decoder(model, ctx)
        rows, run = [], decoder._run
        decoder._run = lambda x: rows.append(len(x)) or run(x)
        for t, pos in enumerate(positions):
            decoder.step(pos, actions[t - 1] if t else None)
        assert rows == [1, 2, 2] + [2 * context - 1] * (len(positions) - context)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        net, model = small_model(d=8, layers=2)
        path = tmp_path / "policy.ckpt"
        model.save(path, meta={"epochs_done": 3})
        loaded, meta = tm.load_checkpoint(path)
        assert meta == {"epochs_done": 3}
        for (n1, t1), (n2, t2) in zip(model.parameters(), loaded.parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_loss_identical_after_round_trip(self, tmp_path):
        net, model = small_model(d=8)
        window = sample_window(net)
        before = tm.batch_nll([window], model).item()
        path = tmp_path / "p.ckpt"
        model.save(path)
        loaded, _ = tm.load_checkpoint(path)
        assert tm.batch_nll([window], loaded).item() == before

    def test_vocab_mismatch_rejected(self, tmp_path):
        net, model = small_model(grid=5)
        path = tmp_path / "p.ckpt"
        model.save(path)
        other = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), sg.SynthConfig(users=4, max_len=20))
        with pytest.raises(tm.CheckpointError, match="vocabulary"):
            tm.load_checkpoint(path, expect_vocab=other)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"not a checkpoint\n\x00\x01")
        with pytest.raises(tm.CheckpointError):
            tm.load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        net, model = small_model(d=8, layers=1)
        path = tmp_path / "p.ckpt"
        model.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(tm.CheckpointError, match="blob"):
            tm.load_checkpoint(path)
