import math

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
    vocab = tk.vocab_sizes(net, {"users": users, "max_len": max_len})
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
    r_tok = g(model.emb_rtg)[window.rtg] + ts
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
    seq = np.empty((3 * t_len, d))
    seq[0::3] = r_tok
    seq[1::3] = s_tok
    seq[2::3] = a_tok

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
            for i in range(3 * t_len):
                scores = np.array([qh[i] @ kh[j] / math.sqrt(hd) for j in range(i + 1)])
                w = np.exp(scores - scores.max())
                w /= w.sum()
                ctx[i, sl] = w @ vh[: i + 1]
        x = x + ctx @ g(layer["wo"])
        h2 = ln(x, layer["ln2_gain"], layer["ln2_bias"])
        x = x + gelu(h2 @ g(layer["ff_w1"]) + g(layer["ff_b1"])) @ g(layer["ff_w2"]) + g(layer["ff_b2"])
    x = ln(x, model.ln_f_gain, model.ln_f_bias)
    return x[1::3] @ g(model.head_w) + g(model.head_b)


def trailing_window(ctx, positions, actions, context):
    """Tokens of the trailing `context` steps of a trip being generated; the pending decision is BLANK."""
    n = len(positions)
    start = max(0, n - context)
    size = n - start

    def full(value):
        return np.full(size, value, dtype=np.int64)

    return tk.ContextWindow(
        traj_id=ctx.traj_id,
        flag="partial",
        rtg=np.array([int(p != ctx.destination) for p in positions[start:]], dtype=np.int64),
        position=np.array(positions[start:], dtype=np.int64),
        origin=full(ctx.origin),
        destination=full(ctx.destination),
        depart=full(ctx.depart_bin),
        speed=full(ctx.speed_bin),
        user=full(ctx.user_id),
        action=np.array(actions[start:] + [tk.BLANK], dtype=np.int64),
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
        out = tm.forward(window, model)
        assert out.logits.data.shape == (1, 9)
        assert np.all(np.isfinite(out.logits.data))

    def test_matches_independent_replay(self):
        net, model = small_model(d=4, layers=1, heads=1)
        window = sample_window(net)
        out = tm.forward(window, model)
        ref = reference_forward(model, window)
        np.testing.assert_allclose(out.logits.data, ref, rtol=1e-10, atol=1e-12)

    def test_matches_replay_multihead_multilayer(self):
        net, model = small_model(d=8, layers=2, heads=2, seed=9)
        window = sample_window(net, seed=11)
        out = tm.forward(window, model)
        ref = reference_forward(model, window)
        np.testing.assert_allclose(out.logits.data, ref, rtol=1e-10, atol=1e-12)

    def test_causality_bit_identical(self):
        net, model = small_model()
        window = sample_window(net)
        t_len = window.n_steps
        assert t_len >= 3
        base = tm.forward(window, model).logits.data.copy()
        cut = t_len - 2
        # perturb everything after s_cut: the action at cut and all later steps
        mutated = window.slice(0, t_len)
        mutated.action = mutated.action.copy()
        mutated.rtg = mutated.rtg.copy()
        mutated.position = mutated.position.copy()
        mutated.action[cut] = (mutated.action[cut] + 1) % 9
        mutated.action[cut + 1 :] = 0
        mutated.rtg[cut + 1 :] = 0
        mutated.position[cut + 1 :] = 1
        after = tm.forward(mutated, model).logits.data
        assert np.array_equal(base[: cut + 1], after[: cut + 1])
        assert not np.array_equal(base[cut + 1 :], after[cut + 1 :])

    def test_attention_maps_shape(self):
        net, model = small_model(layers=2, heads=2)
        window = sample_window(net)
        out = tm.forward(window, model, retain_attention=True)
        assert len(out.attention) == 2
        hmat = out.attention[0][0]
        assert hmat.shape == (2, 3 * window.n_steps, 3 * window.n_steps)
        # rows are normalized over attended positions
        np.testing.assert_allclose(hmat.sum(axis=2), 1.0, atol=1e-9)

    def test_overlength_window_rejected(self):
        net, model = small_model(context=2)
        window = sample_window(net)
        with pytest.raises(ValueError, match="exceeds context"):
            tm.forward(window, model)


class TestInterleave:
    def test_matches_per_window_loop(self):
        sizes = [3, 1, 5, 3, 2]
        total = sum(sizes)
        perm = np.empty(3 * total, dtype=np.intp)
        s_index = np.empty(total, dtype=np.intp)
        seq_off = step_off = 0
        for t_len in sizes:
            rows = np.arange(t_len)
            for k in range(3):
                perm[seq_off + 3 * rows + k] = k * total + step_off + rows
            s_index[step_off + rows] = seq_off + 3 * rows + 1
            seq_off += 3 * t_len
            step_off += t_len
        got_perm, got_s_index = tm._interleave(total)
        np.testing.assert_array_equal(got_perm, perm)
        np.testing.assert_array_equal(got_s_index, s_index)

    def test_batch_equals_separate_windows(self):
        net, model = small_model(layers=2, heads=2)
        windows = [sample_window(net, seed=s) for s in (3, 4, 5)]
        windows.append(windows[0].slice(0, 2))
        joint = tm.forward_batch(windows, model, retain_attention=True)
        start = 0
        for w in windows:
            solo = tm.forward(w, model, retain_attention=True)
            np.testing.assert_allclose(joint.logits.data[start : start + w.n_steps], solo.logits.data, rtol=1e-12, atol=1e-14)
            start += w.n_steps
        for layer in range(2):
            assert [a.shape for a in joint.attention[layer]] == [(2, 3 * w.n_steps, 3 * w.n_steps) for w in windows]


class TestNllLoss:
    def test_uniform_logits_ln9(self):
        net, model = small_model()
        for _, t in model.parameters():
            t.data = np.zeros_like(t.data)
        window = sample_window(net)
        loss = tm.nll_loss(window, model)
        assert loss.item() == pytest.approx(math.log(9), abs=1e-12)

    def test_no_decision_steps_rejected(self):
        net, model = small_model()
        prefs = sg.PreferenceParams(np.ones((1, 3)))
        traj = sg.gen_trajectory(2, (0, 1), 0, prefs, net, 19)
        ep = tk.encode_episode(traj)
        terminal_only = ep.slice(ep.n_steps - 1, ep.n_steps)
        assert terminal_only.action[0] == tk.BLANK
        with pytest.raises(tm.LossError):
            tm.nll_loss(terminal_only, model)

    def test_gradient_matches_finite_differences(self):
        # well-scaled weights keep gradients away from the guard-denominator floor
        net, model = small_model(d=8, layers=1, heads=2, users=2, grid=3, max_len=6, init_std=0.3)
        prefs = sg.PreferenceParams(np.array([[2.0, 0.0, -1.0], [1.0, -1.0, 0.0]]))
        traj = sg.gen_trajectory(5, (0, 8), 0, prefs, net, 6, depart_bin=1, speed_bin=3)
        window = tk.windowize(tk.encode_episode(traj), 8, 8)[0]

        def f():
            return tm.nll_loss(window, model)

        err = nc.finite_diff_check(f, model.param_tensors(), eps=1e-4)
        assert err <= 1e-4


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
        vocab = tk.vocab_sizes(graph, {"users": 1, "max_len": 5})
        cfg = tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, context=4, dropout=0.0)
        model = tm.PolicyModel(cfg, rng=make_rng(0))
        traj = tm.generate(tm.GenerationContext(0, 1, 0, 0, 0, max_len=5, seed=0), model, graph)
        # link 1 is the destination, so this completes; dead ends only occur mid-route
        assert traj.flag == "complete"
        # branch into a cul-de-sac: from 0, action 0 heads toward dest 3, action 1 strands at 2
        graph2 = ng.LinkGraph([[1, 2], [3], [], []])
        vocab2 = tk.vocab_sizes(graph2, {"users": 1, "max_len": 5})
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


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        net, model = small_model(d=8, layers=2)
        path = tmp_path / "policy.ckpt"
        tm.save_checkpoint(model, path, meta={"epochs_done": 3})
        loaded, meta = tm.load_checkpoint(path)
        assert meta == {"epochs_done": 3}
        for (n1, t1), (n2, t2) in zip(model.parameters(), loaded.parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_loss_identical_after_round_trip(self, tmp_path):
        net, model = small_model(d=8)
        window = sample_window(net)
        before = tm.nll_loss(window, model).item()
        path = tmp_path / "p.ckpt"
        tm.save_checkpoint(model, path)
        loaded, _ = tm.load_checkpoint(path)
        assert tm.nll_loss(window, loaded).item() == before

    def test_vocab_mismatch_rejected(self, tmp_path):
        net, model = small_model(grid=5)
        path = tmp_path / "p.ckpt"
        tm.save_checkpoint(model, path)
        other = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), {"users": 4, "max_len": 20})
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
        tm.save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(tm.CheckpointError, match="blob"):
            tm.load_checkpoint(path)
