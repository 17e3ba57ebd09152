import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import rewardirl as ri
from trajforge import synthgen as sg
from trajforge import tokenizer as tk
from trajforge.numcore import make_rng
from trajforge.pretrain import TrainingDivergenceError


def grid_critic(d=8, grid=3, users=2, seed=1, init_std=0.02):
    net = ng.GridNetwork(ng.GridSpec(grid, grid))
    vocab = tk.vocab_sizes(net, sg.SynthConfig(users=users, max_len=10))
    cfg = ri.CriticConfig(vocab=vocab, d=d, init_std=init_std)
    return net, ri.CriticModel(cfg, net, rng=make_rng(seed))


def zero_critic(net, users=2, d=8):
    vocab = tk.vocab_sizes(net, sg.SynthConfig(users=users, max_len=10))
    critic = ri.CriticModel(ri.CriticConfig(vocab=vocab, d=d), net, rng=make_rng(0))
    critic.vector[:] = 0.0
    return critic


def stub_critic_with_q(net, position: int, qvec, users=2, d=8):
    """Zero critic except Q(s, .) = qvec at `position` (any context); Q = 0 elsewhere."""
    critic = zero_critic(net, users=users, d=d)
    critic.emb_link.data[position, 0] = 1.0
    critic.w_state.data[2 * d, 0] = 1.0  # the link block starts at column 2d of the concat
    critic.w_base.data[0, : len(qvec)] = qvec
    return critic


def mkstate(pos, dest, origin=0, depart=0, user=0, speed=0):
    return ng.EnvState(pos, origin, dest, depart, speed, user)


def dead_end_critic():
    """A critic on links 0 -> 1 -> 2, where link 2 has no downstream link."""
    graph = ng.LinkGraph([[1], [2], []])
    vocab = tk.vocab_sizes(graph, sg.SynthConfig(users=2, max_len=10))
    return ri.CriticModel(ri.CriticConfig(vocab=vocab, d=8, init_std=0.5), graph, rng=make_rng(3))


@st.composite
def networks(draw):
    """A grid of random size, or a link graph with random downstream lists."""
    if draw(st.booleans()):
        return ng.GridNetwork(ng.GridSpec(draw(st.integers(2, 5)), draw(st.integers(2, 5))))
    n = draw(st.integers(1, 8))
    links = st.lists(st.integers(0, n - 1), max_size=ng.N_ACTIONS)
    return ng.LinkGraph(draw(st.lists(links, min_size=n, max_size=n)))


@st.composite
def random_critics(draw):
    net = draw(networks())
    spec = sg.SynthConfig(users=draw(st.integers(1, 4)), depart_bins=draw(st.integers(1, 6)), max_len=10)
    d, std = draw(st.sampled_from([1, 3, 8])), draw(st.sampled_from([0.02, 0.3, 1.0]))
    cfg = ri.CriticConfig(vocab=tk.vocab_sizes(net, spec), d=d, init_std=std)
    return ri.CriticModel(cfg, net, rng=make_rng(draw(st.integers(0, 2**16))))


def reference_q(critic, position, origin, destination, depart, user):
    """The concatenated-embedding formula on plain arrays: LeakyReLU(concat @ w_state) @ w_base + pref @ w_pref."""
    c = critic
    e_o, e_d = c.emb_origin.data[origin], c.emb_destination.data[destination]
    e_dep, e_u = c.emb_depart.data[depart], c.emb_user.data[user]
    pre = np.concatenate([e_o, e_d, c.emb_link.data[position], e_dep], axis=1) @ c.w_state.data
    h = np.where(pre >= 0, pre, ri.LEAKY_SLOPE * pre)
    return h @ c.w_base.data + (e_o + e_d + e_dep + e_u) @ c.w_pref.data


def reference_lse(x, mask):
    m = np.max(np.where(mask, x, -np.inf), axis=1)
    return m + np.log(np.sum(np.where(mask, np.exp(x - m[:, None]), 0.0), axis=1))


def reference_iq_loss(batch, critic, cfg):
    """(loss, expert_term, initial_term) replayed on plain arrays from the concatenated formula."""
    ctx = (batch.origin, batch.destination, batch.depart, batch.user)
    q_s = reference_q(critic, batch.position, *ctx)
    q_next = reference_q(critic, batch.next_position, *ctx)
    next_feas = critic.net.feasible[batch.next_position]
    next_feas[batch.is_terminal] = True  # placeholder; the terminal soft value is forced to 0
    v_next = np.where(batch.is_terminal, 0.0, reference_lse(q_next, next_feas))
    margin = q_s[np.arange(len(batch)), batch.action] - cfg.gamma * v_next
    expert = np.mean(margin - margin * margin / (4 * cfg.alpha_phi))
    init = batch.is_initial
    feas = critic.net.feasible[batch.position]
    initial = (1 - cfg.gamma) * np.mean(reference_lse(q_s[init], feas[init])) if init.any() else 0.0
    return initial - expert, expert, initial


def reference_transitions(dataset, split="train"):
    """The per-row builder that `transitions_from_dataset` vectorizes."""
    if split not in ("train", "eval"):
        raise ValueError(f"split must be 'train' or 'eval', got {split!r}")
    trajs = dataset.train() or dataset.trajectories if split == "train" else dataset.eval()
    if split == "eval" and not trajs:
        raise ValueError("no transitions: empty split 'eval'")
    cols = {k: [] for k in ("pos", "orig", "dest", "dep", "usr", "act", "nxt", "init", "term")}
    for traj in trajs:
        for t, a in enumerate(traj.actions):
            cols["pos"].append(traj.positions[t])
            cols["orig"].append(traj.origin)
            cols["dest"].append(traj.destination)
            cols["dep"].append(traj.depart_bin)
            cols["usr"].append(traj.user_id)
            cols["act"].append(a)
            cols["nxt"].append(traj.positions[t + 1])
            cols["init"].append(t == 0)
            cols["term"].append(traj.complete and t == len(traj.actions) - 1)
    idx = {k: np.asarray(cols[k], dtype=np.intp) for k in ("pos", "orig", "dest", "dep", "usr", "act", "nxt")}
    return ri.TransitionBatch(
        idx["pos"], idx["orig"], idx["dest"], idx["dep"], idx["usr"], idx["act"], idx["nxt"],
        np.asarray(cols["init"], dtype=bool), np.asarray(cols["term"], dtype=bool),
    )


@st.composite
def datasets(draw):
    """Random trips (any flag, unconnected moves allowed) on a random network, randomly split."""
    net = draw(networks())
    cell = st.integers(0, net.n_positions - 1)
    trajs = []
    for i in range(draw(st.integers(0, 6))):
        positions = draw(st.lists(cell, min_size=2, max_size=7))
        actions = draw(st.lists(st.integers(0, 8), min_size=len(positions) - 1, max_size=len(positions) - 1))
        flag = draw(st.sampled_from(["complete", "truncated", "dead_end"]))
        trajs.append(sg.Trajectory(i, draw(st.integers(0, 3)), draw(st.integers(0, 23)), 0, positions, actions, flag))
    subset = st.lists(st.integers(0, len(trajs) - 1), unique=True) if trajs else st.just([])
    return sg.Dataset(net, trajs, 4, draw(subset), draw(subset))


def assert_batches_identical(got, want):
    for name in ri.TransitionBatch.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


class TestTransitions:
    @given(dataset=datasets(), split=st.sampled_from(["train", "eval"]))
    def test_matches_per_row_builder_property(self, dataset, split):
        if split == "eval" and not dataset.eval():
            for build in (ri.transitions_from_dataset, reference_transitions):
                with pytest.raises(ValueError, match="empty split 'eval'"):
                    build(dataset, split)
            return
        assert_batches_identical(ri.transitions_from_dataset(dataset, split), reference_transitions(dataset, split))

    @pytest.mark.parametrize("split", ["evl", "Train", "", "all"])
    def test_unknown_split_rejected(self, split):
        net = ng.GridNetwork(ng.GridSpec(3, 3))
        dataset = sg.Dataset(net, [sg.Trajectory(0, 1, 2, 0, [0, 1, 2], [5, 5])], 2, train_idx=[0], eval_idx=[0])
        with pytest.raises(ValueError, match="split must be 'train' or 'eval'"):
            ri.transitions_from_dataset(dataset, split)

    def test_empty_train_falls_back_to_all_trips(self):
        net = ng.GridNetwork(ng.GridSpec(3, 3))
        trajs = [sg.Trajectory(0, 1, 2, 0, [0, 1, 2], [5, 5], "truncated"), sg.Trajectory(1, 0, 3, 0, [4, 8], [8])]
        batch = ri.transitions_from_dataset(sg.Dataset(net, trajs, 2, train_idx=[], eval_idx=[1]))
        np.testing.assert_array_equal(batch.position, [0, 1, 4])
        np.testing.assert_array_equal(batch.is_initial, [True, False, True])
        np.testing.assert_array_equal(batch.is_terminal, [False, False, True])
        assert_batches_identical(batch, reference_transitions(sg.Dataset(net, trajs, 2)))


class TestQValues:
    def test_zero_critic_zero_q(self):
        net, _ = grid_critic()
        critic = zero_critic(net)
        np.testing.assert_array_equal(ri.q_values(mkstate(4, 8), critic), np.zeros(9))

    def test_zero_pref_user_invariant(self):
        net, critic = grid_critic(users=3)
        critic.w_pref.data[:] = 0.0
        q_a = ri.q_values(mkstate(4, 8, user=0), critic)
        q_b = ri.q_values(mkstate(4, 8, user=2), critic)
        np.testing.assert_array_equal(q_a, q_b)

    def test_zero_base_user_difference_is_linear(self):
        net, critic = grid_critic(users=3)
        critic.w_base.data[:] = 0.0
        q1 = ri.q_values(mkstate(4, 8, user=1), critic)
        q2 = ri.q_values(mkstate(4, 8, user=2), critic)
        expected = (critic.emb_user.data[1] - critic.emb_user.data[2]) @ critic.w_pref.data
        np.testing.assert_allclose(q1 - q2, expected, atol=1e-12)


class TestQRows:
    @given(critic=random_critics(), k=st.integers(1, 3), data=st.data())
    def test_graph_free_equals_training_path_property(self, critic, k, data):
        v = critic.cfg.vocab
        rows = max(v.positions, v.depart_bins, v.users)
        b = data.draw(st.integers(1, 3 * rows), label="batch")  # shorter and longer than the tables
        rng = make_rng(data.draw(st.integers(0, 2**16), label="seed"))
        links = rng.integers(0, v.positions, size=(k, b))
        ctx = [rng.integers(0, n, size=b) for n in (v.positions, v.positions, v.depart_bins, v.users)]
        position = links[0] if k == 1 else links
        q_graph = ri.q_values_batch(critic, position, *ctx).data
        with nc.no_graph():
            q_free = ri.q_values_batch(critic, position, *ctx).data
        assert q_free.tobytes() == q_graph.tobytes()
        q_ref = np.concatenate([reference_q(critic, links[j], *ctx) for j in range(k)])
        scale = max(1.0, float(np.abs(q_ref).max()))
        np.testing.assert_allclose(q_free, q_ref, rtol=0, atol=1e-12 * scale)
        i = data.draw(st.integers(0, b - 1), label="row")
        state = ng.EnvState(int(links[0, i]), int(ctx[0][i]), int(ctx[1][i]), int(ctx[2][i]), 0, int(ctx[3][i]))
        np.testing.assert_allclose(ri.q_values(state, critic), q_graph[i], rtol=0, atol=1e-12 * scale)

    def test_negative_state_index_rejected(self):
        net, critic = grid_critic()
        with pytest.raises(tk.EncodingError, match="user_id -1"):
            ri.q_values(mkstate(4, 8, user=-1), critic)

    @pytest.mark.parametrize("end", ["below", "above"])
    @pytest.mark.parametrize(
        "field, table",
        [
            ("position", "positions"),
            ("origin", "positions"),
            ("destination", "positions"),
            ("depart_bin", "depart_bins"),
            ("user_id", "users"),
        ],
    )
    def test_state_outside_vocabulary_rejected_by_name(self, field, table, end):
        net, critic = grid_critic(users=3)
        value = -1 if end == "below" else getattr(critic.cfg.vocab, table)
        good = ng.EnvState(4, 0, 8, 2, 0, 1)
        bad = dataclasses.replace(good, **{field: value})
        calls = [
            lambda: ri.q_values(bad, critic),
            lambda: ri.v_star(bad, critic),
            lambda: ri.critic_policy(bad, critic),
            lambda: ri.recover_reward(bad, 8, good, False, critic, 0.9),
            lambda: ri.recover_reward(good, 8, bad, False, critic, 0.9),
        ]
        for call in calls:
            with pytest.raises(tk.EncodingError, match=f"^{field} {value} outside vocabulary"):
                call()

    def test_speed_bin_not_read(self):
        net, critic = grid_critic()
        state = mkstate(4, 8)
        far = dataclasses.replace(state, speed_bin=critic.cfg.vocab.speed_bins)
        assert ri.q_values(far, critic).tobytes() == ri.q_values(state, critic).tobytes()


class TestVStar:
    def test_zero_critic_interior_ln9(self):
        net, _ = grid_critic()
        critic = zero_critic(net)
        assert ri.v_star(mkstate(4, 8), critic) == pytest.approx(math.log(9), abs=1e-12)

    def test_single_feasible_action(self):
        graph = ng.LinkGraph([[1], []])
        critic = stub_critic_with_q(graph, 0, [2.5])
        assert ri.v_star(mkstate(0, 1), critic) == pytest.approx(2.5, abs=1e-12)

    def test_two_action_hand_value(self):
        graph = ng.LinkGraph([[1, 2], [], []])
        critic = stub_critic_with_q(graph, 0, [1.0, 0.0])
        assert ri.v_star(mkstate(0, 1), critic) == pytest.approx(math.log(math.e + 1.0), abs=1e-12)

    def test_bounds_property(self):
        net, critic = grid_critic(seed=7)
        for pos in range(9):
            for dest in range(9):
                if dest == pos:
                    continue
                state = mkstate(pos, dest)
                q = ri.q_values(state, critic)
                feas = net.feasible[pos]
                v = ri.v_star(state, critic)
                assert v >= q[feas].max() - 1e-12
                assert v <= q[feas].max() + math.log(feas.sum()) + 1e-12

    def test_dead_end_rejected_by_name(self):
        critic = dead_end_critic()
        with pytest.raises(ValueError, match="^position 2 has no feasible action"):
            ri.v_star(mkstate(2, 0), critic)
        with pytest.raises(tk.EncodingError, match="^user_id 2 outside vocabulary"):
            ri.v_star(mkstate(2, 0, user=2), critic)


class TestIqLoss:
    def _single_transition_batch(self, net, pos, act, nxt, terminal=True, initial=False):
        return ri.TransitionBatch(
            position=np.array([pos]),
            origin=np.array([0]),
            destination=np.array([nxt]),
            depart=np.array([0]),
            user=np.array([0]),
            action=np.array([act]),
            next_position=np.array([nxt]),
            is_initial=np.array([initial]),
            is_terminal=np.array([terminal]),
        )

    def test_terminal_transition_is_neg_phi(self):
        net, critic = grid_critic(seed=3)
        cfg = ri.IRLConfig(alpha_phi=0.5)
        batch = self._single_transition_batch(net, 4, 8, 8)
        loss, parts = ri.iq_loss(batch, critic, cfg)
        q_sa = ri.q_values(mkstate(4, 8), critic)[8]
        phi = q_sa - q_sa**2 / (4 * cfg.alpha_phi)
        assert float(loss.data) == pytest.approx(-phi, abs=1e-12)
        assert parts["initial_term"] == 0.0

    def test_all_initial_zero_critic_initial_term(self):
        net, _ = grid_critic()
        critic = zero_critic(net)
        cfg = ri.IRLConfig(gamma=0.9)
        batch = self._single_transition_batch(net, 4, 8, 8, terminal=False, initial=True)
        _, parts = ri.iq_loss(batch, critic, cfg)
        assert parts["initial_term"] == pytest.approx(0.1 * math.log(9), abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        net, critic = grid_critic(d=8, seed=5, init_std=0.3)
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=6, seed=4, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        batch = ri.transitions_from_dataset(dataset)
        cfg = ri.IRLConfig()

        def f():
            loss, _ = ri.iq_loss(batch, critic, cfg)
            return loss

        err = nc.finite_diff_check(f, critic.param_tensors(), eps=1e-4)
        assert err <= 1e-4

    def test_matches_concatenated_formula_replay(self):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=12, seed=7, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        batch = ri.transitions_from_dataset(dataset)
        cfg = ri.IRLConfig(gamma=0.8, alpha_phi=0.3)
        for seed, rows in ((5, slice(None)), (6, ~batch.is_initial)):
            net, critic = grid_critic(d=8, seed=seed, init_std=0.5)
            part = batch.take(np.flatnonzero(rows))
            loss, parts = ri.iq_loss(part, critic, cfg)
            want = reference_iq_loss(part, critic, cfg)
            got = (float(loss.data), parts["expert_term"], parts["initial_term"])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_unread_table_rows_get_exactly_zero_gradient(self):
        net, critic = grid_critic(d=3, seed=12, init_std=0.4)
        trajs = [sg.Trajectory(0, 1, 2, 0, [0, 1, 2], [5, 5]), sg.Trajectory(1, 1, 5, 0, [4, 5, 2], [5, 1], "truncated")]
        batch = ri.transitions_from_dataset(sg.Dataset(net, trajs, 2))
        cfg = ri.IRLConfig()

        def f():
            return ri.iq_loss(batch, critic, cfg)[0]

        assert nc.finite_diff_check(f, critic.param_tensors(), eps=1e-4) <= 1e-4
        nc.backward(f())
        read = {
            "emb_link": {0, 1, 2, 4, 5},
            "emb_origin": {0, 4},
            "emb_destination": {2},
            "emb_depart": {2, 5},
            "emb_user": {1},
        }
        for name, rows in read.items():
            grad = getattr(critic, name).grad
            unread = [r for r in range(len(grad)) if r not in rows]
            assert np.all(grad[unread] == 0.0), name
            assert np.all(np.abs(grad[sorted(rows)]).sum(axis=1) > 0), name

    def test_terminal_single_transition_optimum(self):
        # gradient descent drives Q(s, a) to the phi optimum 2 * alpha_phi
        net, critic = grid_critic(d=8, seed=6)
        cfg = ri.IRLConfig(alpha_phi=0.5, lr=5e-3)
        batch = self._single_transition_batch(net, 4, 8, 8)
        opt = nc.adamw_init(critic.vector, cfg.lr, 0.0)
        from trajforge.pretrain import apply_step

        for _ in range(3000):
            loss, _ = ri.iq_loss(batch, critic, cfg)
            apply_step(critic, loss, opt, 10.0)
        q_sa = ri.q_values(mkstate(4, 8), critic)[8]
        assert q_sa == pytest.approx(2 * cfg.alpha_phi, abs=1e-4)


class TestIRLConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("gamma", 1.0), ("alpha_phi", 0.0), ("lr", -1e-3), ("batch_size", 0), ("epochs", 0), ("grad_clip", 0.0), ("grad_clip", -1.0)],
    )
    def test_out_of_range_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ri.IRLConfig(**{field: value})


class TestTrainCritic:
    def test_user_outside_vocabulary_rejected_by_name(self):
        net, critic = grid_critic(users=1)
        trajs = [sg.Trajectory(0, 0, 0, 0, [0, 1], [5]), sg.Trajectory(3, 1, 0, 0, [0, 1], [5])]
        with pytest.raises(tk.EncodingError, match="trajectory 3: users index 1"):
            ri.train_critic(sg.Dataset(net, trajs, 2), critic, ri.IRLConfig(epochs=1))

    def test_dead_end_trip_rejected_by_name(self):
        # link 1 has no downstream link; ending there is fine only as a complete trip's last move
        graph = ng.LinkGraph([[1, 2], [], [0]])
        critic = ri.CriticModel(ri.CriticConfig(tk.vocab_sizes(graph, sg.SynthConfig(users=1)), d=8), graph, rng=make_rng(0))
        reached = sg.Trajectory(3, 0, 0, 0, [2, 0, 1], [0, 0], "complete")
        stuck = sg.Trajectory(4, 0, 0, 0, [2, 0, 1], [0, 0], "dead_end")
        ri.train_critic(sg.Dataset(graph, [reached], 1), critic, ri.IRLConfig(epochs=1))
        with pytest.raises(ValueError, match="^trajectory 4: .* position 1, which has no feasible action$"):
            ri.train_critic(sg.Dataset(graph, [reached, stuck], 1), critic, ri.IRLConfig(epochs=1))

    def test_zero_lr_unchanged(self):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=8, seed=1, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        net, critic = grid_critic()
        before = critic.params_hash()
        ri.train_critic(dataset, critic, ri.IRLConfig(lr=0.0, epochs=2))
        assert critic.params_hash() == before

    def test_tabular_chain_expert_recovered(self):
        # 4 links; the expert always picks downstream index 0: 0 -> 1 -> 2 -> 3
        graph = ng.LinkGraph([[1, 0], [2, 0], [3, 0], []])
        trajs = [sg.Trajectory(i, 0, 0, 0, [0, 1, 2, 3], [0, 0, 0], "complete") for i in range(16)]
        dataset = sg.Dataset(graph, trajs, 1)
        vocab = tk.vocab_sizes(graph, sg.SynthConfig(users=1, max_len=8))
        critic = ri.CriticModel(ri.CriticConfig(vocab=vocab, d=16), graph, rng=make_rng(2))
        ri.train_critic(dataset, critic, ri.IRLConfig(lr=3e-3, epochs=120, batch_size=64, seed=2))
        for pos in (0, 1, 2):
            probs = ri.critic_policy(mkstate(pos, 3), critic)
            assert int(np.argmax(probs)) == 0

    def test_nan_parameter_diverges(self):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=8, seed=1, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        net, critic = grid_critic()
        critic.w_base.data[0, 0] = np.nan
        with pytest.raises(TrainingDivergenceError):
            ri.train_critic(dataset, critic, ri.IRLConfig(epochs=1))

    def test_deterministic(self):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=10, seed=3, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        hashes = []
        for _ in range(2):
            net, critic = grid_critic(seed=8)
            ri.train_critic(dataset, critic, ri.IRLConfig(epochs=3, seed=5))
            hashes.append(critic.params_hash())
        assert hashes[0] == hashes[1]


class TestCriticLog:
    def test_epoch_loss_is_initial_minus_expert(self, tmp_path):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=20, seed=2, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        net, critic = grid_critic(seed=4)
        _, log = ri.train_critic(dataset, critic, ri.IRLConfig(epochs=3, batch_size=16, seed=1))
        assert [row[0] for row in log.rows] == [0, 1, 2]
        for _, loss, _, expert, initial in log.rows:
            assert loss == pytest.approx(initial - expert, abs=1e-12)
            assert initial != 0.0
        path = tmp_path / "critic.csv"
        log.write_csv(path)
        header, *lines = path.read_text().splitlines()
        assert header == "epoch,loss,seconds,expert_term,initial_term"
        for line, row in zip(lines, log.rows, strict=True):
            fields = line.split(",")
            assert [float(fields[i]) for i in (1, 3, 4)] == [row[1], row[3], row[4]]


class TestRecoverReward:
    @given(dataset=datasets(), data=st.data())
    def test_equals_iq_loss_margin_property(self, dataset, data):
        net = dataset.net
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=4, depart_bins=24, max_len=10))
        d, std = data.draw(st.sampled_from([1, 3, 8])), data.draw(st.sampled_from([0.02, 0.3, 1.0]))
        critic_cfg = ri.CriticConfig(vocab=vocab, d=d, init_std=std)
        critic = ri.CriticModel(critic_cfg, net, rng=make_rng(data.draw(st.integers(0, 2**16))))
        batch = ri.transitions_from_dataset(dataset)
        # a real move starts where some action is feasible; one into a dead end that does not end the trip has no soft value
        live = net.feasible[batch.position].any(axis=1) & (batch.is_terminal | net.feasible[batch.next_position].any(axis=1))
        batch = batch.take(np.flatnonzero(live))
        assume(len(batch) > 0)
        cfg = ri.IRLConfig(gamma=data.draw(st.sampled_from([0.5, 0.9])))
        margins, bellman_margin = [], ri.bellman_margin
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ri, "bellman_margin", lambda *args: margins.append(bellman_margin(*args)) or margins[-1])
            ri.iq_loss(batch, critic, cfg)
        (want,) = [m.data for m in margins]
        got = [
            ri.recover_reward(
                ng.EnvState(batch.position[i], batch.origin[i], batch.destination[i], batch.depart[i], 0, batch.user[i]),
                int(batch.action[i]),
                ng.EnvState(batch.next_position[i], batch.origin[i], batch.destination[i], batch.depart[i], 0, batch.user[i]),
                bool(batch.is_terminal[i]),
                critic,
                cfg.gamma,
            )
            for i in range(len(batch))
        ]
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    def test_terminal_at_dead_end_destination_is_q(self):
        # link 1 has no downstream link: no action is feasible at the trip's destination
        graph = ng.LinkGraph([[1, 0], []])
        vocab = tk.vocab_sizes(graph, sg.SynthConfig(users=2, max_len=10))
        critic = ri.CriticModel(ri.CriticConfig(vocab=vocab, d=8, init_std=0.5), graph, rng=make_rng(3))
        assert not graph.feasible[1].any()
        state = mkstate(0, 1, user=1)
        r = ri.recover_reward(state, 0, mkstate(1, 1, user=1), True, critic, 0.9)
        assert r == pytest.approx(float(ri.q_values(state, critic)[0]), abs=1e-12)

    @pytest.mark.parametrize("action", [9, -1])
    def test_action_outside_range_rejected_by_name(self, action):
        net, critic = grid_critic()
        with pytest.raises(ValueError, match=rf"^action {action} outside \[0, 9\)"):
            ri.recover_reward(mkstate(4, 8), action, mkstate(5, 8), False, critic, 0.9)
        with pytest.raises(tk.EncodingError, match="^position -1 outside vocabulary"):  # the states are checked first
            ri.recover_reward(mkstate(-1, 8), action, mkstate(5, 8), False, critic, 0.9)

    def test_non_terminal_dead_end_next_state_rejected_by_name(self):
        critic = dead_end_critic()
        with pytest.raises(ValueError, match="^position 2 has no feasible action"):
            ri.recover_reward(mkstate(1, 0), 0, mkstate(2, 0), False, critic, 0.9)
        assert math.isfinite(ri.recover_reward(mkstate(1, 2), 0, mkstate(2, 2), True, critic, 0.9))

    def test_zero_critic_rewards(self):
        # terminal: r = Q(s,a) = 0; non-terminal: the soft value of a zero
        # critic is ln(#feasible), so r = -gamma * ln 9 at interior next states
        net, _ = grid_critic()
        critic = zero_critic(net)
        r0 = ri.recover_reward(mkstate(4, 8), 8, mkstate(8, 8), True, critic, 0.9)
        assert r0 == 0.0
        r = ri.recover_reward(mkstate(0, 8), 8, mkstate(4, 8), False, critic, 0.9)
        assert r == pytest.approx(-0.9 * math.log(9), abs=1e-12)

    def test_terminal_reward_is_q(self):
        net, critic = grid_critic(seed=9)
        state = mkstate(4, 8)
        r = ri.recover_reward(state, 8, mkstate(8, 8), True, critic, 0.9)
        assert r == pytest.approx(float(ri.q_values(state, critic)[8]), abs=1e-15)

    def test_unit_q_against_nine_zero_actions(self):
        net, _ = grid_critic(grid=5)
        critic = stub_critic_with_q(net, 12, [0.0] * 9, d=8)
        critic.w_base.data[0, 4] = 1.0  # Q(s, stay) = 1 at position 12 only
        state = mkstate(12, 17)
        nxt = mkstate(6, 17)  # interior, 9 feasible zero-Q actions
        r = ri.recover_reward(state, 4, nxt, False, critic, 0.9)
        assert r == pytest.approx(1.0 - 0.9 * math.log(9), abs=1e-12)

    def test_next_state_with_other_context_is_two_q_calls(self):
        net, critic = grid_critic(grid=4, users=3, seed=15, init_std=0.5)
        state = mkstate(5, 15, origin=0, depart=3, user=1)
        nxt = mkstate(6, 11, origin=2, depart=7, user=2)
        r = ri.recover_reward(state, 5, nxt, False, critic, 0.9)
        q_next = ri.q_values(nxt, critic)
        want = ri.q_values(state, critic)[5] - 0.9 * nc.masked_logsumexp(q_next, net.feasible[6])
        assert r == pytest.approx(want, abs=1e-12)
        same_context = mkstate(6, 15, origin=0, depart=3, user=1)
        assert r != pytest.approx(ri.recover_reward(state, 5, same_context, False, critic, 0.9), abs=1e-6)

    def test_discounted_sum_identity(self):
        # exact rearrangement of the reward recursion along a trajectory:
        # sum_t gamma^t r_t = Q(s0,a0) - gamma^T V*(s_T) [non-terminal]
        #                     - sum_{t>=1} gamma^t (V*(s_t) - Q(s_t,a_t))
        net, critic = grid_critic(grid=4, seed=11)
        gamma = 0.9
        prefs = sg.PreferenceParams(np.array([[3.0, -1.0, -1.0], [1.0, 0.0, 0.0]]))
        for seed in range(6):
            traj = sg.gen_trajectory(seed, (0, 15), seed % 2, prefs, net, 8)
            states = [traj.state_at(t) for t in range(len(traj.positions))]
            T = len(traj.actions)
            rewards = [
                ri.recover_reward(
                    states[t],
                    traj.actions[t],
                    states[t + 1],
                    traj.complete and t == T - 1,
                    critic,
                    gamma,
                )
                for t in range(T)
            ]
            lhs = sum(gamma**t * r for t, r in enumerate(rewards))
            rhs = float(ri.q_values(states[0], critic)[traj.actions[0]])
            if not traj.complete:
                rhs -= gamma**T * ri.v_star(states[T], critic)
            rhs -= sum(
                gamma**t * (ri.v_star(states[t], critic) - float(ri.q_values(states[t], critic)[traj.actions[t]]))
                for t in range(1, T)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestCriticPolicy:
    def test_uniform_q_uniform_policy(self):
        net, _ = grid_critic()
        critic = zero_critic(net)
        probs = ri.critic_policy(mkstate(4, 8), critic)
        np.testing.assert_allclose(probs, np.full(9, 1 / 9), atol=1e-12)

    def test_margin_concentrates(self):
        net, _ = grid_critic(grid=5)
        critic = stub_critic_with_q(net, 12, [0.0] * 9, d=8)
        critic.w_base.data[0, 3] = 10.0
        probs = ri.critic_policy(mkstate(12, 20), critic)
        assert probs[3] >= 0.99

    def test_infeasible_exactly_zero(self):
        net, critic = grid_critic()
        probs = ri.critic_policy(mkstate(0, 8), critic)  # corner: only {4,5,7,8}
        for a in (0, 1, 2, 3, 6):
            assert probs[a] == 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dead_end_rejected_by_name(self):
        with pytest.raises(ValueError, match="^position 2 has no feasible action"):
            ri.critic_policy(mkstate(2, 0), dead_end_critic())


class TestCriticCheckpoint:
    def test_round_trip(self, tmp_path):
        net, critic = grid_critic(seed=13)
        path = tmp_path / "critic.ckpt"
        critic.save(path, meta={"epochs_done": 7})
        loaded, meta = ri.load_critic(path, net)
        assert meta == {"epochs_done": 7}
        assert loaded.params_hash() == critic.params_hash()

    def test_wrong_kind_rejected(self, tmp_path):
        from trajforge import trajmodel as tm

        net, critic = grid_critic()
        path = tmp_path / "critic.ckpt"
        critic.save(path)
        with pytest.raises(tm.CheckpointError, match="kind"):
            tm.load_checkpoint(path)

    def test_network_of_wrong_size_rejected(self, tmp_path):
        net, critic = grid_critic(grid=5)
        small = ng.GridNetwork(ng.GridSpec(4, 4))
        with pytest.raises(ValueError, match="16 positions for a critic vocabulary of 25"):
            ri.CriticModel(critic.cfg, small)
        path = tmp_path / "critic.ckpt"
        critic.save(path)
        with pytest.raises(ValueError, match="16 positions for a critic vocabulary of 25"):
            ri.load_critic(path, small)
