import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from helpers import finite_diff_check, oracle_trip

from trajforge import checkpoint as ck
from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import pretrain as pt
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


def state_cols(*states):
    """`q_values_batch`'s (B,) columns (position, origin, destination, depart, user) of `states`."""
    return [np.array(c) for c in zip(*((s.position, s.origin, s.destination, s.depart_bin, s.user_id) for s in states))]


def q_of(state, critic):
    """Q(s, .) at one state: a one-row `q_values_batch` with no graph."""
    with nc.no_graph():
        return ri.q_values_batch(critic, *state_cols(state)).data[0]


def v_of(state, critic):
    """V*(s) = Q(s, a) - log pi(a|s), read at the first feasible action a."""
    log_pi = ri.log_policy_rows(critic, *state_cols(state))[0]
    a = int(np.argmax(np.isfinite(log_pi)))
    return float(q_of(state, critic)[a] - log_pi[a])


def move_batch(rows, is_terminal=None):
    """A TransitionBatch of (state, action, next_state) moves; next_state shares the trip context of state."""
    s, a, s2 = zip(*rows)
    n = len(rows)
    terminal = np.zeros(n, dtype=bool) if is_terminal is None else np.asarray(is_terminal, dtype=bool)
    return ri.TransitionBatch(*state_cols(*s), np.array(a), np.array([x.position for x in s2]), np.zeros(n, dtype=bool), terminal)


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
def dead_end_graphs(draw):
    """A link graph whose last link has no downstream link, so a trip can end in a dead end."""
    n = draw(st.integers(2, 8))
    links = st.lists(st.integers(0, n - 1), max_size=ng.N_ACTIONS)
    return ng.LinkGraph([*draw(st.lists(links, min_size=n - 1, max_size=n - 1)), []])


@st.composite
def random_critics(draw, nets=None):
    net = draw(nets if nets is not None else networks())
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


def reference_transitions(trajs):
    """The per-row builder that `transitions` vectorizes."""
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
        trips = dataset.train() if split == "train" else dataset.eval()
        assert_batches_identical(ri.transitions(trips), reference_transitions(trips))

    def test_no_trips_give_an_empty_batch(self):
        batch = ri.transitions([])
        assert len(batch) == 0
        assert_batches_identical(batch, reference_transitions([]))

    def test_empty_train_falls_back_to_all_trips(self):
        net = ng.GridNetwork(ng.GridSpec(3, 3))
        trajs = [sg.Trajectory(0, 1, 2, 0, [0, 1, 2], [5, 5], "truncated"), sg.Trajectory(1, 0, 3, 0, [4, 8], [8])]
        train = sg.Dataset(net, trajs, 2).train()  # no split at all
        batch = ri.transitions(train)
        np.testing.assert_array_equal(batch.position, [0, 1, 4])
        np.testing.assert_array_equal(batch.is_initial, [True, False, True])
        np.testing.assert_array_equal(batch.is_terminal, [False, False, True])
        assert_batches_identical(batch, reference_transitions(train))
        # an eval split with an empty training split trains on nothing, never on its eval trips
        assert len(ri.transitions(sg.Dataset(net, trajs, 2, train_idx=[], eval_idx=[1]).train())) == 0


class TestQValues:
    def test_zero_critic_zero_q(self):
        net, _ = grid_critic()
        critic = zero_critic(net)
        np.testing.assert_array_equal(q_of(mkstate(4, 8), critic), np.zeros(9))

    def test_zero_pref_user_invariant(self):
        net, critic = grid_critic(users=3)
        critic.w_pref.data[:] = 0.0
        q_a = q_of(mkstate(4, 8, user=0), critic)
        q_b = q_of(mkstate(4, 8, user=2), critic)
        np.testing.assert_array_equal(q_a, q_b)

    def test_zero_base_user_difference_is_linear(self):
        net, critic = grid_critic(users=3)
        critic.w_base.data[:] = 0.0
        q1 = q_of(mkstate(4, 8, user=1), critic)
        q2 = q_of(mkstate(4, 8, user=2), critic)
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
        np.testing.assert_allclose(q_of(state, critic), q_graph[i], rtol=0, atol=1e-12 * scale)

    def test_negative_state_index_rejected(self):
        net, critic = grid_critic()
        with pytest.raises(tk.EncodingError, match="^row 0: user -1"):
            ri.critic_policy(mkstate(4, 8, user=-1), critic)

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
        size = getattr(critic.cfg.vocab, table)
        col = {"depart_bin": "depart", "user_id": "user"}.get(field, field)
        good, good_next = ng.EnvState(4, 0, 8, 2, 0, 1), ng.EnvState(5, 0, 8, 2, 0, 1)
        bad = dataclasses.replace(good, **{field: value})
        bad_next = good_next if field == "position" else dataclasses.replace(good_next, **{field: value})  # one trip context
        rows = [(good, 8, good_next), (good, 5, good_next), (bad, 8, bad_next)]
        calls = {
            0: [
                lambda: ri.critic_policy(bad, critic),
                lambda: ri.recover_reward(bad, 8, bad_next, False, critic, 0.9),
            ],
            2: [
                lambda: ri.log_policy_rows(critic, *state_cols(good, good, bad)),
                lambda: ri.reward_rows(move_batch(rows), critic, 0.9),
            ],
        }
        for row, row_calls in calls.items():
            for call in row_calls:
                with pytest.raises(tk.EncodingError, match=f"^row {row}: {col} {value} outside vocabulary of {size}$"):
                    call()
        if field == "position":  # the same index as s', which only the reward reads
            with pytest.raises(tk.EncodingError, match=f"^row 0: next_position {value} outside vocabulary of {size}$"):
                ri.recover_reward(good, 8, bad, False, critic, 0.9)
            with pytest.raises(tk.EncodingError, match=f"^row 2: next_position {value} outside vocabulary of {size}$"):
                ri.reward_rows(move_batch([*rows[:2], (good, 8, bad)]), critic, 0.9)

    def test_non_integer_index_rejected_by_name(self):
        # the intp cast used to score user 1.7 as user 1
        net, critic = grid_critic(users=3)
        with pytest.raises(tk.EncodingError, match=r"^row 0: user 1.7 is not an integer$"):
            ri.log_policy_rows(critic, [4], [0], [8], [2], [1.7])

    @pytest.mark.parametrize("value", [2**63, 2**64 - 1])
    def test_unsigned_index_named_by_its_value(self, value):
        # the intp cast used to name 2**63 as -9223372036854775808 and 2**64 - 1 as -1
        net, critic = grid_critic()
        position = np.array([value], dtype=np.uint64)
        with pytest.raises(tk.EncodingError, match=f"^row 0: position {value} outside vocabulary of {net.n_positions}$"):
            ri.log_policy_rows(critic, position, [0], [8], [0], [0])

    def test_unequal_columns_named(self):
        # numpy's stacking cast used to fail with its own message; a shorter column would broadcast against the others
        _, critic = grid_critic()
        with pytest.raises(ValueError, match=r"^index columns of unequal lengths: \{'position': 2, 'origin': 1, "):
            ri.log_policy_rows(critic, [4, 5], [0], [8], [0], [0])

    @pytest.mark.parametrize("field, value", [("user_id", 1.7), ("depart_bin", True)])
    def test_state_field_not_integer_named_when_made(self, field, value):
        # critic_policy packed a state into one array, so user 1.7 was named as position 4.0 and depart_bin True read as 1
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ng.EnvState(**{**dict(position=4, origin=0, destination=8, depart_bin=2, speed_bin=0, user_id=1), field: value})

    def test_speed_bin_not_read(self):
        net, critic = grid_critic()
        state = mkstate(4, 8)
        far = dataclasses.replace(state, speed_bin=critic.cfg.vocab.speed_bins)
        assert ri.critic_policy(far, critic).tobytes() == ri.critic_policy(state, critic).tobytes()
        nxt = mkstate(5, 8)
        far_next = dataclasses.replace(nxt, speed_bin=-1)  # not part of the trip context the critic reads
        assert ri.recover_reward(far, 5, far_next, False, critic, 0.9) == ri.recover_reward(state, 5, nxt, False, critic, 0.9)


class TestVStar:
    def test_zero_critic_interior_ln9(self):
        net, _ = grid_critic()
        critic = zero_critic(net)
        assert v_of(mkstate(4, 8), critic) == pytest.approx(math.log(9), abs=1e-12)

    def test_single_feasible_action(self):
        graph = ng.LinkGraph([[1], []])
        critic = stub_critic_with_q(graph, 0, [2.5])
        assert v_of(mkstate(0, 1), critic) == pytest.approx(2.5, abs=1e-12)

    def test_two_action_hand_value(self):
        graph = ng.LinkGraph([[1, 2], [], []])
        critic = stub_critic_with_q(graph, 0, [1.0, 0.0])
        assert v_of(mkstate(0, 1), critic) == pytest.approx(math.log(math.e + 1.0), abs=1e-12)

    def test_bounds_property(self):
        net, critic = grid_critic(seed=7)
        for pos in range(9):
            for dest in range(9):
                if dest == pos:
                    continue
                state = mkstate(pos, dest)
                q = q_of(state, critic)
                feas = net.feasible[pos]
                v = v_of(state, critic)
                assert v >= q[feas].max() - 1e-12
                assert v <= q[feas].max() + math.log(feas.sum()) + 1e-12

    def test_dead_end_rejected_by_name(self):
        critic = dead_end_critic()
        with pytest.raises(ValueError, match="^row 0: position 2 has no feasible action$"):
            v_of(mkstate(2, 0), critic)
        with pytest.raises(ValueError, match="^row 1: position 2 has no feasible action$"):
            ri.log_policy_rows(critic, *state_cols(mkstate(1, 0), mkstate(2, 0), mkstate(2, 0)))
        with pytest.raises(tk.EncodingError, match="^row 0: user 2 outside vocabulary"):
            v_of(mkstate(2, 0, user=2), critic)


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

    def test_empty_batch_rejected(self):
        net, critic = grid_critic()
        with pytest.raises(ValueError, match="^empty transition batch$"):
            ri.iq_loss(ri.transitions([]), critic, ri.IRLConfig())

    def test_terminal_transition_is_neg_phi(self):
        net, critic = grid_critic(seed=3)
        cfg = ri.IRLConfig(alpha_phi=0.5)
        batch = self._single_transition_batch(net, 4, 8, 8)
        loss, parts = ri.iq_loss(batch, critic, cfg)
        q_sa = q_of(mkstate(4, 8), critic)[8]
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
        batch = ri.transitions(dataset.train())
        cfg = ri.IRLConfig()

        def f():
            loss, _ = ri.iq_loss(batch, critic, cfg)
            return loss

        err = finite_diff_check(f, critic.param_tensors(), eps=1e-4)
        assert err <= 1e-4

    def test_step_graph_node_count_pinned(self):
        # one node for the context part and two for the preference term's embedding sums (not 7
        # gathers and 5 adds): a change that splits them again changes the count
        dataset, _ = sg.gen_dataset(sg.SynthConfig(width=3, height=3, users=2, n_trajectories=6, seed=4, max_len=8))
        net, critic = grid_critic(d=8, seed=5)
        loss, _ = ri.iq_loss(ri.transitions(dataset.train()), critic, ri.IRLConfig())
        assert len(nc.backward(loss).nodes) == 46

    def test_matches_concatenated_formula_replay(self):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=12, seed=7, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        batch = ri.transitions(dataset.train())
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
        batch = ri.transitions(sg.Dataset(net, trajs, 2).train())
        cfg = ri.IRLConfig()

        def f():
            return ri.iq_loss(batch, critic, cfg)[0]

        assert finite_diff_check(f, critic.param_tensors(), eps=1e-4) <= 1e-4
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
        q_sa = q_of(mkstate(4, 8), critic)[8]
        assert q_sa == pytest.approx(2 * cfg.alpha_phi, abs=1e-4)


class TestIRLConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("gamma", 1.0), ("alpha_phi", 0.0), ("lr", -1e-3), ("batch_size", 0), ("epochs", 0), ("grad_clip", 0.0), ("grad_clip", -1.0)],
    )
    def test_out_of_range_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ri.IRLConfig(**{field: value})


    @pytest.mark.parametrize("field, value", [("batch_size", 2.5), ("epochs", True), ("seed", 1.0)])
    def test_int_field_holding_bool_or_fraction_rejected_by_name(self, field, value):
        # batch_size 2.5 used to fail later as a bare TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ri.IRLConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("gamma", None), ("lr", math.inf)])
    def test_float_field_holding_non_number_or_non_finite_rejected_by_name(self, field, value):
        # gamma None used to raise a bare TypeError from its bound; lr inf was accepted, and
        # train_critic then raised TrainingDivergenceError for a non-finite loss
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got {value!r}$"):
            ri.IRLConfig(**{field: value})


class TestCriticConfig:
    @pytest.mark.parametrize("field, value", [("d", 0), ("d", -1), ("init_std", float("nan")), ("init_std", -0.5), ("init_std", float("inf"))])
    def test_out_of_range_rejected_by_name(self, field, value):
        vocab = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), sg.SynthConfig(users=2))
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ri.CriticConfig(vocab, **{field: value})

    @pytest.mark.parametrize("value", [True, 8.0])
    def test_width_holding_bool_or_fraction_rejected_by_name(self, value):
        # d True used to act as 1
        vocab = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), sg.SynthConfig(users=2))
        with pytest.raises(ValueError, match=f"^d must be an integer, got {value!r}$"):
            ri.CriticConfig(vocab, d=value)

    def test_init_std_none_rejected_by_name(self):
        # it used to raise a bare TypeError from its bound
        vocab = tk.vocab_sizes(ng.GridNetwork(ng.GridSpec(3, 3)), sg.SynthConfig(users=2))
        with pytest.raises(ValueError, match="^init_std must be a finite real number, got None$"):
            ri.CriticConfig(vocab, init_std=None)


class TestTrainCritic:
    def test_user_outside_vocabulary_rejected_by_name(self):
        net, critic = grid_critic(users=1)
        trajs = [sg.Trajectory(0, 0, 0, 0, [0, 1], [5]), sg.Trajectory(3, 1, 0, 0, [0, 1], [5])]
        with pytest.raises(tk.EncodingError, match="^trajectory 3: user 1 outside vocabulary of 1$"):
            ri.train_critic(sg.Dataset(net, trajs, 2), critic, ri.IRLConfig(epochs=1))

    @pytest.mark.parametrize("field", ["user_id", "depart_bin"])
    def test_index_outside_int64_rejected_by_name(self, field):
        # an index past int64 used to escape as numpy's OverflowError; now the trip rejects it when made,
        # before train_critic can meet it
        with pytest.raises(ValueError, match=rf"^{field} must be in \[0, 2\*\*63\), got {2**64}$"):
            dataclasses.replace(sg.Trajectory(3, 0, 0, 0, [0, 1], [5]), **{field: 2**64})

    @pytest.mark.parametrize("split", ["no trips", "eval split only"])
    def test_empty_training_split_rejected(self, split):
        net, critic = grid_critic()
        dataset = sg.Dataset(net, [], 1) if split == "no trips" else sg.Dataset(net, [sg.Trajectory(0, 0, 0, 0, [0, 1], [5])], 1, [], [0])
        with pytest.raises(ValueError, match="^dataset has no transitions$"):
            ri.train_critic(dataset, critic, ri.IRLConfig(epochs=1))

    def test_speed_bin_and_length_outside_policy_tables_accepted(self):
        # the critic has no speed or timestep tables, so a trip the policy cannot embed still trains it
        net, critic = grid_critic(users=1)
        vocab = critic.cfg.vocab
        positions = [0, 1, 2, 5, 8, 7, 6, 3, 0, 1, 2, 5, 8]
        actions = [int(np.flatnonzero(net.succ[p] == q)[0]) for p, q in zip(positions, positions[1:])]
        trip = sg.Trajectory(0, 0, 0, vocab.speed_bins, positions, actions)
        assert len(positions) > vocab.max_timestep
        with pytest.raises(tk.EncodingError, match=f"^trajectory 0: speed {vocab.speed_bins} outside"):
            tk.check_vocab([trip], vocab)
        _, log = ri.train_critic(sg.Dataset(net, [trip], 1), critic, ri.IRLConfig(epochs=1))
        assert len(log.rows) == 1 and np.isfinite(log.rows[0][1])

    def test_dead_end_trip_rejected_by_name(self):
        # link 1 has no downstream link; ending there is fine only as a complete trip's last move
        graph = ng.LinkGraph([[1, 2], [], [0]])
        critic = ri.CriticModel(ri.CriticConfig(tk.vocab_sizes(graph, sg.SynthConfig(users=1)), d=8), graph, rng=make_rng(0))
        reached = sg.Trajectory(3, 0, 0, 0, [2, 0, 1], [0, 0], "complete")
        stuck = sg.Trajectory(4, 0, 0, 0, [2, 0, 1], [0, 0], "dead_end")
        ri.train_critic(sg.Dataset(graph, [reached], 1), critic, ri.IRLConfig(epochs=1))
        with pytest.raises(ValueError, match="^trajectory 4: next_position 1 has no feasible action$"):
            ri.train_critic(sg.Dataset(graph, [reached, stuck], 1), critic, ri.IRLConfig(epochs=1))

    def test_dataset_on_another_network_rejected(self):
        # a ring of 25 links has the grid's positions, but none of the grid trips' moves
        cfg = sg.SynthConfig(n_trajectories=60, seed=3)
        dataset, _ = sg.gen_dataset(cfg)
        ring = ng.LinkGraph([[(i + 1) % 25, (i + 2) % 25] for i in range(25)])
        critic = ri.CriticModel(ri.CriticConfig(tk.vocab_sizes(ring, cfg)), ring, rng=make_rng(0))
        with pytest.raises(ValueError, match="^the dataset's network is not the critic's$"):
            ri.train_critic(dataset, critic, ri.IRLConfig(epochs=2))

    def test_move_off_the_network_rejected_by_name(self):
        # on the critic's own network, a trip whose second action leads from 1 back to 0, not to 2
        net, critic = grid_critic(users=1)
        good = sg.Trajectory(3, 0, 0, 0, [0, 1, 2], [5, 5])
        bad = sg.Trajectory(7, 0, 0, 0, [0, 1, 2], [5, 3])
        ri.train_critic(sg.Dataset(net, [good], 1), critic, ri.IRLConfig(epochs=1))
        with pytest.raises(ValueError, match="^trajectory 7: action 3 at position 1 does not lead to next_position 2$"):
            ri.train_critic(sg.Dataset(net, [good, bad], 1), critic, ri.IRLConfig(epochs=1))

    def test_zero_lr_unchanged(self):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=8, seed=1, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        net, critic = grid_critic()
        before = critic.params_hash()
        ri.train_critic(dataset, critic, ri.IRLConfig(lr=0.0, epochs=2))
        assert critic.params_hash() == before

    def test_gradients_kept_between_steps_and_released_at_the_end(self, monkeypatch):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=8, seed=1, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        net, critic = grid_critic()
        held, apply_step = [], pt.apply_step

        def step(m, loss, opt, clip):
            held.append([t.grad is not None for t in m.param_tensors()])
            return apply_step(m, loss, opt, clip)

        monkeypatch.setattr(pt, "apply_step", step)
        returned, _ = ri.train_critic(dataset, critic, ri.IRLConfig(epochs=3, batch_size=16))
        assert not any(held[0]) and len(held) > 2 and all(all(h) for h in held[1:])
        assert returned is critic and [name for name, t in critic.parameters() if t.grad is not None] == []

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

    def test_trained_bytes_pinned(self):
        # a tiny seeded run: its parameters and each epoch's loss, to the last bit. The matmuls here
        # stay below BLAS's threading size, so the pin holds at any BLAS thread count; at larger
        # sizes the bits still depend on it (ROADMAP Known defects, direction 17)
        dataset, _ = sg.gen_dataset(sg.SynthConfig(width=3, height=3, users=2, n_trajectories=20, seed=2, max_len=8))
        net, critic = grid_critic(seed=4)
        critic, log = ri.train_critic(dataset, critic, ri.IRLConfig(epochs=3, batch_size=16, seed=1))
        assert critic.params_hash().hex() == "83e68dee4426d56a36e961636a75be805ec47ceed4fff1f15445b630998dffe1"
        assert [repr(row[1]) for row in log.rows] == ["1.206456187491451", "1.1773691568242144", "1.2393839306702512"]


class TestCriticLog:
    def test_epoch_loss_is_initial_minus_expert(self):
        cfg_synth = sg.SynthConfig(width=3, height=3, users=2, n_trajectories=20, seed=2, max_len=8)
        dataset, _ = sg.gen_dataset(cfg_synth)
        net, critic = grid_critic(seed=4)
        _, log = ri.train_critic(dataset, critic, ri.IRLConfig(epochs=3, batch_size=16, seed=1))
        assert [row.epoch for row in log.rows] == [0, 1, 2]
        for row in log.rows:
            assert row.train_nll == pytest.approx(row.parts["initial_term"] - row.parts["expert_term"], abs=1e-12)
            assert row.parts["initial_term"] != 0.0

    def test_logged_grad_norm_is_the_epoch_mean_before_clipping(self):
        dataset, _ = sg.gen_dataset(sg.SynthConfig(width=3, height=3, users=2, n_trajectories=20, seed=2, max_len=8))
        net, critic = grid_critic(seed=4, init_std=0.3)
        replay = critic.copy()
        cfg = ri.IRLConfig(epochs=1, batch_size=16, seed=1, grad_clip=0.05)
        _, log = ri.train_critic(dataset, critic, cfg)
        transitions = ri.transitions(dataset.train())
        opt = nc.adamw_init(replay.vector, cfg.lr, 0.0)
        norms = []
        order = pt.batch_order(cfg.seed, "critic-shuffle", 0, len(transitions))
        for i in range(0, len(order), cfg.batch_size):
            batch = transitions.take(order[i : i + cfg.batch_size])
            nc.backward(ri.iq_loss(batch, replay, cfg)[0])
            norms.append(math.sqrt(sum(float((p.grad**2).sum()) for p in replay.param_tensors())))
            # backward consumed that graph: the step rebuilds the same loss
            pt.apply_step(replay, ri.iq_loss(batch, replay, cfg)[0], opt, cfg.grad_clip)
        assert max(norms) > cfg.grad_clip  # clipping was active, and the log holds the norms before it
        assert log.rows[0].grad_norm == pytest.approx(np.mean(norms), rel=1e-12)
        assert replay.params_hash() == critic.params_hash()


class TestRecoverReward:
    @given(dataset=datasets(), data=st.data())
    def test_equals_iq_loss_margin_property(self, dataset, data):
        net = dataset.net
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=4, depart_bins=24, max_len=10))
        d, std = data.draw(st.sampled_from([1, 3, 8])), data.draw(st.sampled_from([0.02, 0.3, 1.0]))
        critic_cfg = ri.CriticConfig(vocab=vocab, d=d, init_std=std)
        critic = ri.CriticModel(critic_cfg, net, rng=make_rng(data.draw(st.integers(0, 2**16))))
        batch = ri.transitions(dataset.train())
        # the random trips' moves made real: a feasible action, whose row's s' is where it leads
        batch = batch.take(np.flatnonzero(net.feasible[batch.position, batch.action]))
        batch.next_position = net.succ[batch.position, batch.action]
        # a move into a dead end that does not end the trip has no soft value
        batch = batch.take(np.flatnonzero(batch.is_terminal | ~net.dead_end[batch.next_position]))
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
        assert r == pytest.approx(float(q_of(state, critic)[0]), abs=1e-12)

    @pytest.mark.parametrize("action", [9, -1])
    def test_action_outside_range_rejected_by_name(self, action):
        net, critic = grid_critic()
        with pytest.raises(ValueError, match=rf"^row 0: action {action} outside \[0, 9\)$"):
            ri.recover_reward(mkstate(4, 8), action, mkstate(5, 8), False, critic, 0.9)
        with pytest.raises(tk.EncodingError, match="^row 0: position -1 outside vocabulary"):  # a row's states come first
            ri.recover_reward(mkstate(-1, 8), action, mkstate(5, 8), False, critic, 0.9)
        rows = [(mkstate(4, 8), 5, mkstate(5, 8)), (mkstate(5, 8), action, mkstate(6, 8)), (mkstate(-1, 8), 5, mkstate(5, 8))]
        with pytest.raises(ValueError, match=rf"^row 1: action {action} outside \[0, 9\)$"):  # the first bad row
            ri.reward_rows(move_batch(rows), critic, 0.9)

    @pytest.mark.parametrize("action", [5.0, True])
    def test_non_integer_action_named_as_action(self, action):
        # the fields used to be packed into one array: 5.0 made every field a float, so the check named
        # position 4.0, and True read as action 1
        net, critic = grid_critic()
        with pytest.raises(tk.EncodingError, match=f"^row 0: action {action} is not an integer$"):
            ri.recover_reward(mkstate(4, 8), action, mkstate(5, 8), False, critic, 0.9)

    def test_non_terminal_dead_end_next_state_rejected_by_name(self):
        critic = dead_end_critic()
        with pytest.raises(ValueError, match="^row 0: next_position 2 has no feasible action$"):
            ri.recover_reward(mkstate(1, 0), 0, mkstate(2, 0), False, critic, 0.9)
        assert math.isfinite(ri.recover_reward(mkstate(1, 2), 0, mkstate(2, 2), True, critic, 0.9))
        rows = [(mkstate(1, 2), 0, mkstate(2, 2)), (mkstate(0, 2), 0, mkstate(1, 2)), (mkstate(1, 0), 0, mkstate(2, 0))]
        with pytest.raises(ValueError, match="^row 2: next_position 2 has no feasible action$"):
            ri.reward_rows(move_batch(rows, is_terminal=[True, False, False]), critic, 0.9)
        with pytest.raises(ValueError, match="^row 1: position 2 has no feasible action$"):  # a move cannot start there
            ri.reward_rows(move_batch([rows[1], (mkstate(2, 0), 0, mkstate(2, 0))], is_terminal=[False, True]), critic, 0.9)

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
        assert r == pytest.approx(float(q_of(state, critic)[8]), abs=1e-15)

    def test_unit_q_against_nine_zero_actions(self):
        net, _ = grid_critic(grid=5)
        critic = stub_critic_with_q(net, 12, [0.0] * 9, d=8)
        up_left = 0  # shift (-1, -1): 12 -> 6 on a 5x5 grid
        critic.w_base.data[0, up_left] = 1.0  # Q(s, up_left) = 1 at position 12 only
        state = mkstate(12, 17)
        nxt = mkstate(6, 17)  # interior, 9 feasible zero-Q actions
        r = ri.recover_reward(state, up_left, nxt, False, critic, 0.9)
        assert r == pytest.approx(1.0 - 0.9 * math.log(9), abs=1e-12)

    @pytest.mark.parametrize("field, value", [("origin", 2), ("destination", 11), ("depart_bin", 7), ("user_id", 2)])
    def test_next_state_with_other_context_rejected_by_name(self, field, value):
        # s' shares the trip context of s: a pair whose contexts differ is no move of any trip
        net, critic = grid_critic(grid=4, users=3, seed=15, init_std=0.5)
        state = mkstate(5, 15, origin=0, depart=3, user=1)
        nxt = dataclasses.replace(mkstate(6, 15, origin=0, depart=3, user=1), **{field: value})
        with pytest.raises(ValueError, match=f"^next_state {field} {value} differs from the state's {getattr(state, field)}$"):
            ri.recover_reward(state, 5, nxt, False, critic, 0.9)

    def test_discounted_sum_identity(self):
        # exact rearrangement of the reward recursion along a trajectory:
        # sum_t gamma^t r_t = Q(s0,a0) - gamma^T V*(s_T) [non-terminal]
        #                     - sum_{t>=1} gamma^t (V*(s_t) - Q(s_t,a_t))
        net, critic = grid_critic(grid=4, seed=11)
        gamma = 0.9
        prefs = sg.PreferenceParams(np.array([[3.0, -1.0, -1.0], [1.0, 0.0, 0.0]]))
        for seed in range(6):
            traj = oracle_trip(seed, (0, 15), seed % 2, prefs, net, 8)
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
            rhs = float(q_of(states[0], critic)[traj.actions[0]])
            if not traj.complete:
                rhs -= gamma**T * v_of(states[T], critic)
            rhs -= sum(
                gamma**t * (v_of(states[t], critic) - float(q_of(states[t], critic)[traj.actions[t]]))
                for t in range(1, T)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)


@st.composite
def scored_rows(draw):
    """A random critic and 1-12 moves of its network that it can score: every s is live, and a dead-end s' ends its trip."""
    critic = draw(random_critics(st.one_of(networks(), dead_end_graphs())))
    net, v = critic.net, critic.cfg.vocab
    live = np.flatnonzero(~net.dead_end)
    assume(len(live) > 0)
    b = draw(st.integers(1, 12))
    rng = make_rng(draw(st.integers(0, 2**16)))
    position = rng.choice(live, size=b)
    action = np.array([rng.choice(np.flatnonzero(net.feasible[p])) for p in position])
    next_position = net.succ[position, action]
    ctx = [rng.integers(0, n, size=b) for n in (v.positions, v.positions, v.depart_bins, v.users)]
    terminal = (rng.random(b) < 0.3) | net.dead_end[next_position]
    return critic, ri.TransitionBatch(position, *ctx, action, next_position, rng.random(b) < 0.5, terminal)


def row_states(batch, i):
    """Row i of `batch` as (state, action, next_state, is_terminal) for the one-row calls."""
    state = ng.EnvState(*(int(getattr(batch, f)[i]) for f in ("position", "origin", "destination", "depart")), 0, int(batch.user[i]))
    return state, int(batch.action[i]), dataclasses.replace(state, position=int(batch.next_position[i])), bool(batch.is_terminal[i])


def policy_cols(batch):
    return batch.position, batch.origin, batch.destination, batch.depart, batch.user


class TestRowScorers:
    @given(case=scored_rows(), gamma=st.sampled_from([0.5, 0.9]))
    def test_rows_equal_one_row_calls_property(self, case, gamma):
        critic, batch = case
        rewards = ri.reward_rows(batch, critic, gamma)
        log_pi = ri.log_policy_rows(critic, *policy_cols(batch))
        rows = [row_states(batch, i) for i in range(len(batch))]
        one_rewards = np.array([ri.recover_reward(s, a, s2, end, critic, gamma) for s, a, s2, end in rows])
        one_policies = np.array([ri.critic_policy(s, critic) for s, _, _, _ in rows])
        if len(batch) == 1:
            assert rewards.tobytes() == one_rewards.tobytes()
            assert np.exp(log_pi).tobytes() == one_policies.tobytes()
        scale = max(1.0, float(np.abs(one_rewards).max()))
        np.testing.assert_allclose(rewards, one_rewards, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(np.exp(log_pi), one_policies, rtol=0, atol=1e-12)
        feasible = critic.net.feasible[batch.position]
        assert np.all(log_pi[~feasible] == -np.inf)
        assert np.all(np.isfinite(log_pi[feasible]))

    @given(
        case=scored_rows(),
        kind=st.sampled_from(["position", "origin", "destination", "depart", "user", "next_position", "action", "dead s", "dead s'", "move"]),
        data=st.data(),
    )
    def test_errors_name_the_first_bad_row_property(self, case, kind, data):
        critic, batch = case
        assume(len(batch) >= 2)
        net, v = critic.net, critic.cfg.vocab
        first = data.draw(st.integers(1, len(batch) - 1), label="first bad row")
        bad = [first, *data.draw(st.lists(st.integers(first + 1, len(batch) - 1), max_size=3) if first + 1 < len(batch) else st.just([]))]
        batch = batch.take(np.arange(len(batch)))  # a copy to corrupt
        scores_s = kind not in ("next_position", "action", "dead s'", "move")  # log_policy_rows reads s only
        if kind == "move":  # an s' that the row's action does not lead to, on a row that ends its trip
            assume(net.n_positions >= 2)
            batch.next_position[bad] = (batch.next_position[bad] + 1) % net.n_positions
            batch.is_terminal[bad] = True
            p, a, q = batch.position[first], batch.action[first], batch.next_position[first]
            error, message = ValueError, f"action {a} at position {p} does not lead to next_position {q}"
        elif kind.startswith("dead"):
            assume(net.dead_end.any())
            dead = int(np.flatnonzero(net.dead_end)[0])
            column = "position" if kind == "dead s" else "next_position"
            getattr(batch, column)[bad] = dead
            batch.is_terminal[bad] = False
            error, message = ValueError, f"{column} {dead} has no feasible action"
        else:
            size = ng.N_ACTIONS if kind == "action" else getattr(v, {"depart": "depart_bins", "user": "users"}.get(kind, "positions"))
            value = data.draw(st.sampled_from([-1, size]), label="value")
            getattr(batch, kind)[bad] = value
            error, message = (ValueError, rf"action {value} outside \[0, 9\)") if kind == "action" else (
                tk.EncodingError, f"{kind} {value} outside vocabulary of {size}"
            )
        with pytest.raises(error, match=f"^row {first}: {message}$"):
            ri.reward_rows(batch, critic, 0.9)
        if scores_s:
            with pytest.raises(error, match=f"^row {first}: {message}$"):
                ri.log_policy_rows(critic, *policy_cols(batch))


    def test_moves_off_the_network_rejected_by_row(self):
        # a ring of 25 links has the grid's positions, but none of the grid trips' moves: their 204 rows
        # used to score to finite rewards
        cfg = sg.SynthConfig(n_trajectories=60, seed=3)
        dataset, _ = sg.gen_dataset(cfg)
        ring = ng.LinkGraph([[(i + 1) % 25, (i + 2) % 25] for i in range(25)])
        critic = ri.CriticModel(ri.CriticConfig(tk.vocab_sizes(ring, cfg)), ring, rng=make_rng(0))
        batch = ri.transitions(dataset.train())
        assert len(batch) == 204 and not np.any(ring.succ[batch.position, batch.action] == batch.next_position)
        p, a, q = batch.position[0], batch.action[0], batch.next_position[0]
        with pytest.raises(ValueError, match=f"^row 0: action {a} at position {p} does not lead to next_position {q}$"):
            ri.reward_rows(batch, critic, 0.9)

    def test_one_end_flag_per_row_required(self):
        # a one-entry is_terminal used to broadcast over all 11 moves of these three trips, changing 8 of their rewards
        cfg = sg.SynthConfig(n_trajectories=3, seed=1)
        dataset, _ = sg.gen_dataset(cfg)
        critic = ri.CriticModel(ri.CriticConfig(tk.vocab_sizes(dataset.net, cfg)), dataset.net, rng=make_rng(0))
        batch = ri.transitions(dataset.trajectories)
        assert len(batch) == 11
        batch.is_terminal = np.array([True])
        with pytest.raises(ValueError, match=r"^is_terminal of shape \(1,\) for index columns of length 11$"):
            ri.reward_rows(batch, critic, 0.9)

    def test_no_rows_score_to_empty_arrays(self):
        net, critic = grid_critic()
        batch = move_batch([(mkstate(4, 8), 5, mkstate(5, 8))]).take(np.arange(0))
        assert ri.reward_rows(batch, critic, 0.9).shape == (0,)
        assert ri.log_policy_rows(critic, *policy_cols(batch)).shape == (0, ng.N_ACTIONS)


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
        with pytest.raises(ValueError, match="^row 0: position 2 has no feasible action$"):
            ri.critic_policy(mkstate(2, 0), dead_end_critic())


class TestCriticCheckpoint:
    def test_round_trip(self, tmp_path):
        net, critic = grid_critic(seed=13)
        path = tmp_path / "critic.ckpt"
        critic.save(path, meta={"epochs_done": 7})
        loaded, meta = ck.load(path, ri.CriticModel, None, (net,))
        assert meta == {"epochs_done": 7}
        assert loaded.params_hash() == critic.params_hash()

    def test_wrong_kind_rejected(self, tmp_path):
        from trajforge import trajmodel as tm

        net, critic = grid_critic()
        path = tmp_path / "critic.ckpt"
        critic.save(path)
        with pytest.raises(ck.CheckpointError, match="kind"):
            ck.load(path, tm.PolicyModel)

    def test_network_of_wrong_size_rejected(self, tmp_path):
        net, critic = grid_critic(grid=5)
        small = ng.GridNetwork(ng.GridSpec(4, 4))
        with pytest.raises(ValueError, match="16 positions for a critic vocabulary of 25"):
            ri.CriticModel(critic.cfg, small)
        path = tmp_path / "critic.ckpt"
        critic.save(path)
        with pytest.raises(ValueError, match="16 positions for a critic vocabulary of 25"):
            ck.load(path, ri.CriticModel, None, (small,))
