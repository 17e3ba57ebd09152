import math

import numpy as np
import pytest

from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import rewardirl as ri
from trajforge import synthgen as sg
from trajforge import tokenizer as tk
from trajforge.numcore import make_rng


def grid_critic(d=8, grid=3, users=2, seed=1, init_std=0.02):
    net = ng.GridNetwork(ng.GridSpec(grid, grid))
    vocab = tk.vocab_sizes(net, {"users": users, "max_len": 10})
    cfg = ri.CriticConfig(vocab=vocab, d=d, init_std=init_std)
    return net, ri.CriticModel(cfg, net, rng=make_rng(seed))


def zero_critic(net, users=2, d=8):
    vocab = tk.vocab_sizes(net, {"users": users, "max_len": 10})
    critic = ri.CriticModel(ri.CriticConfig(vocab=vocab, d=d), net, rng=make_rng(0))
    for _, t in critic.parameters():
        t.data = np.zeros_like(t.data)
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


class TestQValues:
    def test_zero_critic_zero_q(self):
        net, _ = grid_critic()
        critic = zero_critic(net)
        np.testing.assert_array_equal(ri.q_values(mkstate(4, 8), critic), np.zeros(9))

    def test_zero_pref_user_invariant(self):
        net, critic = grid_critic(users=3)
        critic.w_pref.data = np.zeros_like(critic.w_pref.data)
        q_a = ri.q_values(mkstate(4, 8, user=0), critic)
        q_b = ri.q_values(mkstate(4, 8, user=2), critic)
        np.testing.assert_array_equal(q_a, q_b)

    def test_zero_base_user_difference_is_linear(self):
        net, critic = grid_critic(users=3)
        critic.w_base.data = np.zeros_like(critic.w_base.data)
        q1 = ri.q_values(mkstate(4, 8, user=1), critic)
        q2 = ri.q_values(mkstate(4, 8, user=2), critic)
        expected = (critic.emb_user.data[1] - critic.emb_user.data[2]) @ critic.w_pref.data
        np.testing.assert_allclose(q1 - q2, expected, atol=1e-12)


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
            feas=net.feasible[[pos]],
            next_feas=np.ones((1, 9), dtype=bool),
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
        batch.next_feas = net.feasible[[8]]
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

    def test_terminal_single_transition_optimum(self):
        # gradient descent drives Q(s, a) to the phi optimum 2 * alpha_phi
        net, critic = grid_critic(d=8, seed=6)
        cfg = ri.IRLConfig(alpha_phi=0.5, lr=5e-3)
        batch = self._single_transition_batch(net, 4, 8, 8)
        opt = nc.adamw_init([p.data for p in critic.param_tensors()], cfg.lr, 0.0)
        from trajforge.pretrain import apply_step

        for _ in range(3000):
            loss, _ = ri.iq_loss(batch, critic, cfg)
            apply_step(critic, loss, opt, 10.0)
        q_sa = ri.q_values(mkstate(4, 8), critic)[8]
        assert q_sa == pytest.approx(2 * cfg.alpha_phi, abs=1e-4)


class TestTrainCritic:
    def test_user_outside_vocabulary_rejected_by_name(self):
        net, critic = grid_critic(users=1)
        trajs = [sg.Trajectory(0, 0, 0, 0, [0, 1], [5]), sg.Trajectory(3, 1, 0, 0, [0, 1], [5])]
        with pytest.raises(tk.EncodingError, match="trajectory 3: users index 1"):
            ri.train_critic(sg.Dataset(net, trajs, 2), critic, ri.IRLConfig(epochs=1))

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
        vocab = tk.vocab_sizes(graph, {"users": 1, "max_len": 8})
        critic = ri.CriticModel(ri.CriticConfig(vocab=vocab, d=16), graph, rng=make_rng(2))
        ri.train_critic(dataset, critic, ri.IRLConfig(lr=3e-3, epochs=120, batch_size=64, seed=2))
        for pos in (0, 1, 2):
            probs = ri.critic_policy(mkstate(pos, 3), critic)
            assert int(np.argmax(probs)) == 0

    def test_deterministic(self):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=10, seed=3, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        hashes = []
        for _ in range(2):
            net, critic = grid_critic(seed=8)
            ri.train_critic(dataset, critic, ri.IRLConfig(epochs=3, seed=5))
            hashes.append(critic.params_hash())
        assert hashes[0] == hashes[1]


class TestRecoverReward:
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


class TestCriticCheckpoint:
    def test_round_trip(self, tmp_path):
        net, critic = grid_critic(seed=13)
        path = tmp_path / "critic.ckpt"
        ri.save_critic(critic, path, meta={"epochs_done": 7})
        loaded, meta = ri.load_critic(path, net)
        assert meta == {"epochs_done": 7}
        assert loaded.params_hash() == critic.params_hash()

    def test_wrong_kind_rejected(self, tmp_path):
        from trajforge import trajmodel as tm

        net, critic = grid_critic()
        path = tmp_path / "critic.ckpt"
        ri.save_critic(critic, path)
        with pytest.raises(tm.CheckpointError, match="kind"):
            tm.load_checkpoint(path)
