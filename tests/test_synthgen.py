import dataclasses
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from helpers import oracle_trip, reference_ingest_csv
from test_netgrid import networks

from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import rewardirl as ri
from trajforge import synthgen as sg
from trajforge import tokenizer as tk
from trajforge import trajmodel as tm
from trajforge.numcore import make_rng, masked_logsumexp


@pytest.fixture
def grid5():
    return ng.GridNetwork(ng.GridSpec(5, 5))


def prefs_for(theta_rows):
    return sg.PreferenceParams(np.asarray(theta_rows, dtype=float))


@st.composite
def roll_out_networks(draw):
    """A grid, or a link graph whose only traps are dead ends: a cycle through its live links, random
    extra links among them all, and dead-end links with no downstream link, which live links may enter."""
    if draw(st.booleans()):
        return ng.GridNetwork(ng.GridSpec(draw(st.integers(2, 5)), draw(st.integers(2, 5))))
    live, dead = draw(st.integers(2, 6)), draw(st.integers(0, 3))
    label = draw(st.permutations(range(live + dead)))
    adjacency = [[] for _ in label]
    for i in range(live):
        downs = [(i + 1) % live] + draw(st.lists(st.integers(0, live + dead - 1), max_size=4))
        adjacency[label[i]] = [label[j] for j in downs]
    return ng.LinkGraph(adjacency)


class TestRecordsCheckedWhenMade:
    @pytest.mark.parametrize(
        "theta, message",
        [(np.zeros((2, 2)), "theta must have shape (users, 3)"), ([[0.0, math.nan, 0.0]], "theta contains non-finite weights")],
        ids=["two-features", "nan-weight"],
    )
    def test_preferences(self, theta, message):
        with pytest.raises(sg.ConfigError, match=f"^{re.escape(message)}$"):
            sg.PreferenceParams(theta)

    @pytest.mark.parametrize(
        "positions, actions, message",
        [
            ([0], [], "positions must be a list of two or more integers in [0, 2**63), got [0]"),
            ([0, 1], [5, 5], "actions must be a list of one integer in [0, 9) per move, got [5, 5]"),
        ],
        ids=["one-position", "action-too-many"],
    )
    def test_trajectory(self, positions, actions, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sg.Trajectory(0, 0, 0, 0, positions, actions)

    def test_trajectory_frozen(self):
        # a trip could be given a second action for its one move after it was checked, and encode_trips
        # then returned columns of unequal length
        trip = sg.Trajectory(0, 0, 0, 0, [0, 1], [5])
        with pytest.raises(dataclasses.FrozenInstanceError):
            trip.actions = [5, 5]

    def test_trajectory_lists_cannot_change_in_place(self):
        # the checked lists used to be kept as given: appending to one passed, and encode_trips then
        # returned a 2-row position column beside a 3-row action column, with no error
        positions, actions = [0, 1], [5]
        trip = sg.Trajectory(0, 0, 0, 0, positions, actions)
        positions.append(2), actions.append(5)
        assert (trip.positions, trip.actions) == ((0, 1), (5,))
        with pytest.raises(AttributeError):
            trip.actions.append(5)
        table = tk.encode_trips([trip])
        assert len(table.position) == len(table.action) == 2


class TestOracleProbs:
    def test_zero_weights_uniform(self, grid5):
        prefs = prefs_for([[0.0, 0.0, 0.0]])
        state = ng.EnvState(position=12, origin=0, destination=24, depart_bin=0, speed_bin=0, user_id=0)
        probs = sg.oracle_action_probs(state, prefs, grid5)
        np.testing.assert_allclose(probs[grid5.feasible[12]], 1 / 9, atol=1e-12)

    def test_progress_margin(self, grid5):
        prefs = prefs_for([[10.0, 0.0, 0.0]])
        state = ng.EnvState(position=12, origin=12, destination=24, depart_bin=0, speed_bin=0, user_id=0)
        probs = sg.oracle_action_probs(state, prefs, grid5)
        hops = grid5.hops[24]
        reducing = [
            a
            for a in np.flatnonzero(grid5.feasible[12])
            if hops[grid5.succ[12, a]] < hops[12]
        ]
        assert probs[reducing].sum() >= 0.99

    def test_single_feasible_action(self):
        graph = ng.LinkGraph([[1], [1]])
        prefs = prefs_for([[1.0, 2.0, 3.0]])
        state = ng.EnvState(position=0, origin=0, destination=1, depart_bin=0, speed_bin=0, user_id=0)
        probs = sg.oracle_action_probs(state, prefs, graph)
        assert probs[0] == pytest.approx(1.0)

    def test_unreachable_destination(self):
        graph = ng.LinkGraph([[0], [1]])
        prefs = prefs_for([[0.0, 0.0, 0.0]])
        state = ng.EnvState(position=0, origin=0, destination=1, depart_bin=0, speed_bin=0, user_id=0)
        with pytest.raises(sg.GenerationError):
            sg.oracle_action_probs(state, prefs, graph)

    @pytest.mark.parametrize("user", [-1, 20, 2**40, 2**64])
    def test_user_outside_preferences_named(self, user):
        # -1 used to read the last user's weights and sample that user's trip; 20 failed inside numpy,
        # and 2**64 escaped from the intp cast as a bare OverflowError
        ds, prefs = sg.gen_dataset(sg.SynthConfig(seed=1))
        state = ng.EnvState(position=3, origin=3, destination=24, depart_bin=0, speed_bin=0, user_id=user)
        message = f"row 0: user {user} outside the 20 users of the preferences"
        with pytest.raises(sg.GenerationError, match=f"^{re.escape(message)}$"):
            oracle_trip(3, (0, 24), user, prefs, ds.net, 50)
        with pytest.raises(sg.GenerationError, match=f"^{re.escape(message)}$"):
            sg.oracle_action_probs(state, prefs, ds.net)
        with pytest.raises(sg.GenerationError, match=f"^row 1: user {user} outside"):
            sg.oracle_trips(prefs, ds.net, [0, user], [0, 0], [24, 24], np.zeros((2, 5)))

    @pytest.mark.parametrize(
        "users, destinations, message",
        [([1.7], [8], "row 0: user 1.7 is not an integer"), ([1], [8.9], "row 0: destination 8.9 is not an integer"),
         ([0, np.float64(1.0)], [8, 8], "row 1: user 1.0 is not an integer"), ([0, 1], np.array([8.0, 8.0]), "row 0: destination 8.0 is not an integer")],
        ids=["fractional-user", "fractional-destination", "numpy-float-user", "float-array-destination"],
    )
    def test_non_integer_index_named_by_row_and_field(self, users, destinations, message):
        # the intp cast used to return user 1's probabilities toward cell 8 for user 1.7 and destination 8.9
        prefs = prefs_for([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(sg.GenerationError, match=f"^{re.escape(message)}$"):
            sg.oracle_rows(prefs, ng.GridNetwork(ng.GridSpec(3, 3)), users, destinations)

    @pytest.mark.parametrize("users", [[0], [0, 0, 0]], ids=["one-user", "three-users"])
    def test_one_user_per_trip_required(self, users):
        # one user for two trips used to fail inside the step with a bare IndexError, and a third user went unread
        grid3, message = ng.GridNetwork(ng.GridSpec(3, 3)), "^users and destinations must be 1-D and of one length$"
        with pytest.raises(ValueError, match=message):
            sg.oracle_trips(prefs_for([[1.0, 0.0, 0.0]]), grid3, users, [0, 1], [8, 8], uniform_rows(2, 5))
        with pytest.raises(ValueError, match=message):
            sg.oracle_rows(prefs_for([[1.0, 0.0, 0.0]]), grid3, users, [8, 8])

    @pytest.mark.parametrize("prev_action", [2.5, True, 9, -2])
    def test_bad_prev_action_named(self, grid5, prev_action):
        # 2.5 used to count every action as a turn, with no error
        state = ng.EnvState(position=12, origin=12, destination=24, depart_bin=0, speed_bin=0, user_id=0)
        message = f"prev_action must be None, -1 or an integer in [0, 9), got {prev_action!r}"
        with pytest.raises(sg.GenerationError, match=f"^{re.escape(message)}$"):
            sg.oracle_action_probs(state, prefs_for([[1.0, 1.0, 0.0]]), grid5, prev_action=prev_action)

    @pytest.mark.parametrize(
        "positions, prev_actions, message",
        [([-1], [-1], "row 0: position -1 outside network of 9 positions"), ([0, 9], [-1, -1], "row 1: position 9 outside network of 9 positions"),
         ([0], [2.5], "row 0: prev_action 2.5 is not an integer"), ([0], [True], "row 0: prev_action True is not an integer"),
         ([0, 0], [-1, 9], "row 1: prev_action 9 outside -1 and [0, 9)"), ([0, 0], [0, -2], "row 1: prev_action -2 outside -1 and [0, 9)")],
        ids=["position-minus-1", "position-past-network", "fractional-prev", "bool-prev", "prev-9", "prev-minus-2"],
    )
    def test_bad_step_named_by_row(self, positions, prev_actions, message):
        # the step used to read cell 8 through a position of -1, and to count every action as a turn after 2.5
        probs = sg.oracle_rows(prefs_for([[1.0, 1.0, 0.0]]), ng.GridNetwork(ng.GridSpec(3, 3)), [0, 0], [8, 8])
        with pytest.raises(sg.GenerationError, match=f"^{re.escape(message)}$"):
            probs(np.arange(len(positions)), np.array(positions), np.array(prev_actions))

    @pytest.mark.parametrize("net", [ng.GridNetwork(ng.GridSpec(2, 2)), ng.LinkGraph([[1], [0]])], ids=["grid", "links"])
    def test_position_outside_network(self, net):
        state = ng.EnvState(position=-1, origin=0, destination=1, depart_bin=0, speed_bin=0, user_id=0)
        with pytest.raises(ValueError, match="outside network"):
            sg.oracle_action_probs(state, prefs_for([[1.0, 0.0, 0.0]]), net)

    def test_proper_distribution_property(self, grid5):
        rng = np.random.default_rng(5)
        prefs = prefs_for(rng.normal(size=(4, 3)))
        for _ in range(40):
            pos = int(rng.integers(0, 25))
            dest = int(rng.integers(0, 25))
            if dest == pos:
                continue
            state = ng.EnvState(pos, pos, dest, 0, 0, int(rng.integers(0, 4)))
            prev = int(rng.integers(0, 9)) if rng.random() < 0.5 else None
            probs = sg.oracle_action_probs(state, prefs, grid5, prev_action=prev)
            assert probs.min() >= 0.0
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs[~grid5.feasible[pos]] == 0.0)


    @given(networks(), st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3), st.none() | st.integers(0, 8), st.data())
    def test_matches_per_action_reference_property(self, net, theta, prev, data):
        prefs = prefs_for([theta])
        dest = data.draw(st.integers(0, net.n_positions - 1))
        hops = net.hops[dest]
        for pos in np.flatnonzero((hops >= 0) & net.feasible.any(axis=1)).tolist():
            state = ng.EnvState(pos, pos, dest, 0, 0, 0)
            probs = sg.oracle_action_probs(state, prefs, net, prev_action=prev)
            assert probs.tobytes() == reference_probs(state, prefs, net, prev).tobytes()


    @given(roll_out_networks(), st.data())
    def test_rows_match_per_state_property(self, net, data):
        users = data.draw(st.integers(1, 3), label="users")
        theta = st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3)
        prefs = prefs_for(data.draw(st.lists(theta, min_size=users, max_size=users), label="theta"))
        cell = st.integers(0, net.n_positions - 1)
        states = []
        for _ in range(data.draw(st.integers(1, 6), label="rows")):
            dest = data.draw(cell)
            starts = np.flatnonzero((net.hops[dest] >= 0) & ~net.dead_end).tolist()
            if starts:
                prev = data.draw(st.sampled_from([-1, *range(ng.N_ACTIONS)]))
                states.append((data.draw(st.integers(0, users - 1)), dest, data.draw(st.sampled_from(starts)), prev))
        assume(states)
        user, dest, pos, prev = (np.array(column) for column in zip(*states))
        probs = sg.oracle_rows(prefs, net, user, dest)
        rows = np.arange(len(states))
        for i in (rows, rows[::-1], rows[-1:]):  # all rows, in either order, and one alone
            got = probs(i, pos[i], prev[i])
            for j, row in enumerate(i.tolist()):
                state = ng.EnvState(pos[row], pos[row], dest[row], 0, 0, user[row])
                prev_action = None if prev[row] < 0 else int(prev[row])
                assert got[j].tobytes() == sg.oracle_action_probs(state, prefs, net, prev_action).tobytes()


def reference_probs(state, prefs, net, prev_action):
    """The oracle one feasible action at a time: theta . (progress, turn, stay) as a 3-term dot product."""
    hops = net.hops[state.destination]
    here = int(hops[state.position])
    scores = np.full(ng.N_ACTIONS, -np.inf)
    for a in np.flatnonzero(net.feasible[state.position]).tolist():
        nxt = int(net.succ[state.position, a])
        there = int(hops[nxt])
        progress = -1.0 if there < 0 else float((here > there) - (here < there))
        turn = 1.0 if prev_action is not None and a != prev_action else 0.0
        stay = 1.0 if nxt == state.position else 0.0
        scores[a] = prefs.theta[state.user_id] @ np.array([progress, turn, stay])
    return np.exp(scores - masked_logsumexp(scores, net.feasible[state.position]))


class TestGenTrajectory:
    """One oracle trip: an `oracle_trips` batch of one (`helpers.oracle_trip`)."""

    def test_adjacent_od_progress_seeker(self, grid5):
        prefs = prefs_for([[12.0, 0.0, 0.0]])
        traj = oracle_trip(1, (12, 13), 0, prefs, grid5, max_len=50)
        assert traj.complete
        assert traj.positions == (12, 13)
        assert len(traj.actions) == 1

    def test_same_seed_identical(self, grid5):
        prefs = prefs_for([[1.0, -0.5, 0.0]])
        a = oracle_trip(7, (0, 24), 0, prefs, grid5, max_len=50)
        b = oracle_trip(7, (0, 24), 0, prefs, grid5, max_len=50)
        assert a.positions == b.positions and a.actions == b.actions

    def test_max_len_one_truncates(self, grid5):
        prefs = prefs_for([[0.0, 0.0, 0.0]])
        traj = oracle_trip(3, (0, 24), 0, prefs, grid5, max_len=1)
        assert traj.flag == "truncated"
        assert len(traj.actions) == 1

    def test_origin_equals_destination_rejected(self, grid5):
        with pytest.raises(sg.GenerationError):
            oracle_trip(0, (3, 3), 0, prefs_for([[0, 0, 0]]), grid5, max_len=5)

    def test_dead_end_ends_the_trip(self):
        # link 4 has no downstream link; at zero weights the oracle sometimes enters it on its way to 5
        graph = ng.LinkGraph([[1, 2], [3], [3, 4], [0, 5], [], [2]])
        trips = [oracle_trip(s, (0, 5), 0, prefs_for([[0, 0, 0]]), graph, max_len=10) for s in range(30)]
        assert {t.flag for t in trips} == {"complete", "dead_end"}
        assert all(t.positions[-1] == 4 for t in trips if t.flag == "dead_end")


def assert_rolled_out(traj, net, origin, destination, max_moves):
    """The invariants of a `roll_out` trip."""
    sg.check_connectivity(traj, net)
    assert traj.positions[0] == origin
    assert destination not in traj.positions[:-1]
    last, moves = traj.positions[-1], len(traj.actions)
    assert (traj.flag == "complete") == (last == destination)
    assert all(net.feasible[p].any() for p in traj.positions[:-1])
    stuck = not net.feasible[last].any()
    assert (traj.flag == "dead_end") == (last != destination and stuck)
    assert (traj.flag == "truncated") == (moves == max_moves and last != destination and not stuck)
    assert moves <= max_moves


class TestRollOut:
    @given(roll_out_networks(), st.integers(1, 12), st.integers(0, 2**16), st.data())
    def test_oracle_and_policy_trips_property(self, net, max_moves, seed, data):
        cell = st.integers(0, net.n_positions - 1)
        destination = data.draw(cell, label="destination")
        hops = net.hops[destination]
        starts = np.flatnonzero((hops > 0) & net.feasible.any(axis=1)).tolist()
        assume(starts)
        origin = data.draw(st.sampled_from(starts), label="origin")
        prefs = prefs_for([data.draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3), label="theta")])
        oracle = oracle_trip(seed, (origin, destination), 0, prefs, net, max_moves, depart_bin=1, speed_bin=2)
        assert_rolled_out(oracle, net, origin, destination, max_moves)
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=2, max_len=12))
        cfg = tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=2, dropout=0.0, init_std=0.5)
        model = tm.PolicyModel(cfg, rng=make_rng(seed))
        for temperature in (1.0, 0.0):
            ctx = tm.GenerationContext(origin, destination, 1, 2, 1, max_moves, temperature, seed)
            assert_rolled_out(tm.generate_scored(ctx, model, net).trajectory, net, origin, destination, max_moves)

    def test_probs_sees_each_position_and_the_previous_move(self):
        grid = ng.GridNetwork(ng.GridSpec(3, 3))
        seen = []

        def probs(rows, pos, prev):
            seen.append((rows.tolist(), pos.tolist(), prev.tolist()))
            return one_hot(8, len(rows))  # 8: one cell down-right

        assert sg.roll_out(grid, [0], [8], uniform_rows(1, 5), probs) == [([0, 4, 8], [8, 8], "complete")]
        assert seen == [([0], [0], [-1]), ([0], [4], [8])]

    def test_move_drawn_from_each_trips_uniform(self):
        # two trips at one cell with one row of probabilities: each trip's uniform picks its move
        grid = ng.GridNetwork(ng.GridSpec(3, 3))
        half = np.zeros(ng.N_ACTIONS)
        half[[5, 8]] = 0.5  # one cell right, one cell down-right
        out = sg.roll_out(grid, [0, 0], [2, 8], np.array([[0.7, 0.7], [0.2, 0.7]]), lambda rows, pos, prev: np.tile(half, (len(rows), 1)))
        assert [moves for _, moves, _ in out] == [[8, 8], [5, 8]]

    def test_finished_rows_leave_the_batch(self):
        # row 0 arrives after one move, row 2 after two; row 1 runs out of moves
        grid = ng.GridNetwork(ng.GridSpec(4, 4))
        seen = []

        def probs(rows, pos, prev):
            seen.append((rows.tolist(), pos.tolist(), prev.tolist()))
            return one_hot(8, len(rows))

        out = sg.roll_out(grid, [0, 1, 0], [5, 0, 10], uniform_rows(3, 2), probs)
        assert out == [([0, 5], [8], "complete"), ([1, 6, 11], [8, 8], "truncated"), ([0, 5, 10], [8, 8], "complete")]
        assert seen == [([0, 1, 2], [0, 1, 0], [-1, -1, -1]), ([1, 2], [6, 5], [8, 8])]

    def test_infeasible_choice_raises(self):
        with pytest.raises(ng.BoundaryError):
            sg.roll_out(ng.GridNetwork(ng.GridSpec(3, 3)), [0], [8], uniform_rows(1, 5), lambda rows, pos, prev: one_hot(0, 1))

    def test_one_action_per_row_required(self):
        with pytest.raises(ValueError, match=r"probs returned shape \(0, 9\) for 2 trips"):
            sg.roll_out(ng.GridNetwork(ng.GridSpec(3, 3)), [0, 1], [8, 7], uniform_rows(2, 5), lambda rows, pos, prev: one_hot(0, 0))

    @pytest.mark.parametrize("shape", [(5,), (1, 5), (3, 5), (2, 5, 1)])
    def test_one_row_of_uniforms_per_trip_required(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"uniforms of shape {shape} for 2 trips")):
            sg.roll_out(ng.GridNetwork(ng.GridSpec(3, 3)), [0, 1], [8, 7], np.zeros(shape), lambda rows, pos, prev: pytest.fail("drew a move"))

    def test_infeasible_choice_named_in_a_batch(self):
        # action 5 moves one cell right: fine from 0, off the grid from 2
        with pytest.raises(ng.BoundaryError, match="action 5 is infeasible at position 2"):
            sg.roll_out(ng.GridNetwork(ng.GridSpec(3, 3)), [0, 2], [8, 6], uniform_rows(2, 5), lambda rows, pos, prev: one_hot(5, len(rows)))

    @pytest.mark.parametrize(
        "net, origins, destinations, action, message",
        [
            (ng.GridNetwork(ng.GridSpec(3, 3)), [0, 1], [4, 8], 5, "^row 1: action 5 is infeasible at position 5$"),
            (ng.LinkGraph([[1, 2], [2], [0]]), [0, 1], [1, 0], 1, "^row 1: action 1 is infeasible at position 2$"),
        ],
        ids=["grid", "links"],
    )
    def test_infeasible_draw_named_by_its_trip(self, net, origins, destinations, action, message):
        # trip 0 arrives after one move; then trip 1, alone in the batch, draws a move that its position does not have
        def probs(rows, pos, prev):
            return one_hot(8 if isinstance(net, ng.GridNetwork) else 0, 2) if len(rows) == 2 else one_hot(action, 1)

        with pytest.raises(net.infeasible_error, match=message):
            sg.roll_out(net, origins, destinations, uniform_rows(2, 5), probs)

    @pytest.mark.parametrize("bad", [1.0, -0.25, np.nan], ids=["one", "negative", "nan"])
    def test_uniform_outside_unit_interval_rejected(self, grid5, bad):
        # such a uniform drew action 0 whatever its probability: a trip of one-hot moves on action 8 stepped to cell 0
        uniforms = uniform_rows(2, 5)
        uniforms[1, 3] = bad
        message = f"^row 1: uniform {re.escape(str(bad))} of move 3 outside \\[0, 1\\)$"
        with pytest.raises(ValueError, match=message):
            sg.roll_out(grid5, [0, 4], [24, 20], uniforms, lambda rows, pos, prev: pytest.fail("drew a move"))
        with pytest.raises(ValueError, match=message):
            sg.oracle_trips(prefs_for([[1.0, 0.0, 0.0]]), grid5, [0, 0], [0, 4], [24, 20], uniforms)

    def test_bad_probability_row_named_by_its_trip(self):
        # trip 0 arrives after one move; then trip 1, alone in the batch, gets a NaN row
        def probs(rows, pos, prev):
            return one_hot(8, len(rows)) if len(rows) == 2 else np.full((1, ng.N_ACTIONS), np.nan)

        with pytest.raises(nc.DistributionError, match="^row 1: probabilities must be finite"):
            sg.roll_out(ng.GridNetwork(ng.GridSpec(3, 3)), [0, 0], [4, 8], uniform_rows(2, 5), probs)

    def test_dead_end_on_the_last_allowed_move(self):
        # link 2 has no downstream link; the one move allowed enters it
        graph = ng.LinkGraph([[1, 2], [0], []])
        assert sg.roll_out(graph, [0], [1], uniform_rows(1, 1), lambda rows, pos, prev: one_hot(1, 1)) == [([0, 2], [1], "dead_end")]

    @pytest.mark.parametrize("origins, destinations", [([[0]], [[8]]), ([0, 1], [8])])
    def test_origins_not_one_row_per_trip_rejected(self, origins, destinations):
        graph = ng.GridNetwork(ng.GridSpec(3, 3))
        with pytest.raises(ValueError, match="^origins and destinations must be 1-D and of one length$"):
            sg.roll_out(graph, origins, destinations, uniform_rows(1, 3), lambda rows, pos, prev: pytest.fail("drew a move"))

    @pytest.mark.parametrize(
        "origin, destination, max_moves, message",
        [
            (3, 3, 5, "origin equals destination"),
            (1, 0, 5, "destination 0 unreachable from 1"),
            (0, 1, 0, "max_len must allow at least one move"),
        ],
    )
    def test_checked_once_at_entry(self, origin, destination, max_moves, message):
        graph = ng.LinkGraph([[1], [2], [1], [0]])
        with pytest.raises(sg.GenerationError, match=message):
            sg.roll_out(graph, [origin], [destination], uniform_rows(1, max_moves), lambda rows, pos, prev: pytest.fail("drew a move"))

    def test_bad_row_named(self):
        graph = ng.LinkGraph([[1], [2], [1], [0]])
        with pytest.raises(sg.GenerationError, match="row 2: destination 0 unreachable from 1"):
            sg.roll_out(graph, [3, 0, 1], [0, 2, 0], uniform_rows(3, 5), lambda rows, pos, prev: pytest.fail("drew a move"))

    @pytest.mark.parametrize("od", [(25, 3), (-1, 3), (3, 25), (3, -1), (2**64, 3), (-(2**64), 3), (3, 2**64)])
    def test_ends_outside_the_network_rejected(self, grid5, od):
        # an origin past the last cell used to fail inside numpy; one of -1 wrapped round to the last cell,
        # and one past int64 escaped from the intp cast as a bare OverflowError
        field, bad = ("origin", od[0]) if od[0] not in range(25) else ("destination", od[1])
        with pytest.raises(sg.GenerationError, match=f"^row 0: {field} {bad} outside network of 25 positions$"):
            oracle_trip(0, od, 0, prefs_for([[1.0, 0.0, 0.0]]), grid5, max_len=5)

    def test_origins_judged_before_destinations(self, grid5):
        # both ends used to be judged row by row, which named row 0's destination here
        with pytest.raises(sg.GenerationError, match="^row 1: origin 25 outside network of 25 positions$"):
            sg.roll_out(grid5, [0, 25], [25, 1], uniform_rows(2, 5), lambda rows, pos, prev: pytest.fail("drew a move"))

    @pytest.mark.parametrize(
        "origins, destinations, message",
        [([1.7], [8], "row 0: origin 1.7 is not an integer"), ([0, 1], [8, 8.0], "row 1: destination 8.0 is not an integer"),
         ([True], [8], "row 0: origin True is not an integer"), (np.array([0.0]), [8], "row 0: origin 0.0 is not an integer")],
        ids=["fractional-origin", "integral-float-destination", "bool-origin", "float-array-origin"],
    )
    def test_non_integer_end_named_by_row_and_field(self, origins, destinations, message):
        # the intp cast used to roll out a trip from cell 1 for origin 1.7
        with pytest.raises(sg.GenerationError, match=f"^{re.escape(message)}$"):
            sg.roll_out(ng.GridNetwork(ng.GridSpec(3, 3)), origins, destinations, uniform_rows(len(origins), 5), lambda rows, pos, prev: pytest.fail("drew a move"))

    def test_empty_batch(self, grid5):
        assert sg.roll_out(grid5, [], [], uniform_rows(0, 5), lambda rows, pos, prev: pytest.fail("drew a move")) == []


def one_hot(action, n):
    """`n` rows of action probabilities that put all mass on `action`."""
    return np.tile(np.arange(ng.N_ACTIONS) == action, (n, 1)).astype(float)


def uniform_rows(trips, max_moves):
    """`roll_out` uniforms of `trips` trips allowed `max_moves` moves; a one-hot row draws the same move from any."""
    return make_rng(0).random((trips, max_moves))


class TestGenDataset:
    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(users=0), "users must be >= 1, got 0"),
            (dict(n_trajectories=-1), "n_trajectories must be >= 0, got -1"),
            (dict(max_len=0), "max_len must be >= 1, got 0"),
            (dict(archetypes=[]), "archetypes must be rows of 3 finite weights, got []"),
            (dict(archetypes=[[1.0, 2.0]]), "archetypes must be rows of 3 finite weights, got [[1.0, 2.0]]"),
            (dict(depart_bins=25), "depart_bins must be in [1, 24], got 25"),
            (dict(speed_bins=0), "speed_bins must be in [1, 120], got 0"),
            (dict(theta_sigma=-0.5), "theta_sigma must be >= 0, got -0.5"),
            (dict(users=True), "users must be an integer, got True"),  # used to act as 1
            (dict(max_len=2.5), "max_len must be an integer, got 2.5"),  # used to fail later as a bare TypeError
            (dict(seed=np.float64(1.0)), "seed must be an integer, got np.float64(1.0)"),
            # these used to be accepted: a grid 1 wide failed only in gen_dataset, as did a NaN weight
            (dict(width=1), "width must be >= 2, got 1"),
            (dict(archetypes=[[math.nan, 0, 0]]), "archetypes must be rows of 3 finite weights, got [[nan, 0, 0]]"),
            (dict(cell_size_m=None), "cell_size_m must be a finite real number, got None"),
            # this used to raise a bare TypeError from its bound
            (dict(theta_sigma=None), "theta_sigma must be a finite real number, got None"),
            (dict(archetypes=[[1.0, 2.0, 3.0], [1.0, 2.0]]), "archetypes must be rows of 3 finite weights, got [[1.0, 2.0, 3.0], [1.0, 2.0]]"),
            # the models' configs: these used to be accepted, and the model constructor raised a bare AttributeError
            (dict(config=tm.ModelConfig, vocab=None), "vocab must be a VocabSpec, got None"),
            (dict(config=ri.CriticConfig, vocab={"positions": 9}), "vocab must be a VocabSpec, got {'positions': 9}"),
        ],
        ids=[
            "users", "n-trajectories", "max-len", "no-archetype", "short-archetype", "depart-bins", "speed-bins", "theta-sigma",
            "users-bool", "max-len-fraction", "seed-float", "width", "nan-archetype", "cell-size-none", "theta-sigma-none",
            "ragged-archetypes", "policy-vocab-none", "critic-vocab-dict",
        ],
    )
    def test_bad_config_rejected_when_made(self, fields, message):
        # these used to be caught only by gen_dataset, so vocab_sizes built a vocabulary from them
        fields = dict(fields)  # the parameter's dict is shared between runs
        config = fields.pop("config", sg.SynthConfig)
        error = sg.ConfigError if config is sg.SynthConfig else ValueError
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            config(**fields)

    def test_config_cannot_change_after_its_check(self):
        # gen_dataset no longer checks its config, so a later users = 0 would reach numpy as "high <= 0"
        with pytest.raises(dataclasses.FrozenInstanceError):
            sg.SynthConfig().users = 0

    def test_archetypes_cannot_grow_after_their_check(self):
        # a list used to take a NaN row, which gen_dataset then refused as "theta contains non-finite weights"
        cfg = sg.SynthConfig(archetypes=[[6.0, 0, -1.0]])
        assert cfg.archetypes == ((6.0, 0.0, -1.0),)
        with pytest.raises(AttributeError):
            cfg.archetypes.append([math.nan, 0.0, 0.0])

    def test_archetype_weights_cannot_change_after_their_check(self):
        cfg = sg.SynthConfig(archetypes=[[6.0, 0.0, -1.0]])
        with pytest.raises(TypeError):
            cfg.archetypes[0] = [math.nan, 0.0, 0.0]
        with pytest.raises(TypeError):
            cfg.archetypes[0][0] = math.nan

    def test_config_is_hashable(self):
        # the list used to raise "unhashable type: 'list'"
        assert hash(sg.SynthConfig()) == hash(sg.SynthConfig(archetypes=[[6, 0, -1], [1.5, -2, -1]]))

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_theta_sigma_below_zero_rejected_by_name(self, sigma):
        rule = "a finite real number" if math.isnan(sigma) else ">= 0"
        with pytest.raises(sg.ConfigError, match=f"^theta_sigma must be {rule}, got {sigma}$"):
            sg.gen_dataset(sg.SynthConfig(theta_sigma=sigma, n_trajectories=1))

    @given(st.integers(0, 2**16), st.integers(1, 4), st.integers(0, 30), st.integers(1, 20), st.integers(2, 5))
    def test_equals_per_trip_gen_trajectory_property(self, seed, users, n_trajectories, max_len, width):
        cfg = sg.SynthConfig(width=width, height=3, users=users, n_trajectories=n_trajectories, max_len=max_len, seed=seed)
        ds, prefs = sg.gen_dataset(cfg)
        assert len(ds.trajectories) == n_trajectories
        for tid, traj in enumerate(ds.trajectories):
            # the per-trip context draw, as gen_dataset makes it
            rng = make_rng(seed, "traj", tid)
            user, origin, destination = (int(rng.integers(0, n)) for n in (users, ds.net.n_positions, ds.net.n_positions))
            while destination == origin:
                destination = int(rng.integers(0, ds.net.n_positions))
            depart, speed = int(rng.integers(0, cfg.depart_bins)), int(rng.integers(0, cfg.speed_bins))
            key = (seed, "traj-roll", tid)
            alone = oracle_trip(key, (origin, destination), user, prefs, ds.net, max_len, depart, speed, tid)
            assert traj == alone

    @given(roll_out_networks(), st.integers(1, 12), st.integers(0, 2**16), st.data())
    def test_batch_equals_per_trip_calls_on_dead_end_graphs_property(self, net, max_len, seed, data):
        theta = st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)
        prefs = prefs_for(data.draw(st.lists(theta, min_size=2, max_size=2), label="theta"))
        cell = st.integers(0, net.n_positions - 1)
        trips = []
        for _ in range(data.draw(st.integers(1, 8), label="trips")):
            destination = data.draw(cell)
            starts = np.flatnonzero((net.hops[destination] > 0) & ~net.dead_end).tolist()
            if starts:
                trips.append((data.draw(st.integers(0, 1)), data.draw(st.sampled_from(starts)), destination))
        assume(trips)
        users, origins, destinations = zip(*trips)
        uniforms = np.stack([make_rng(seed, "trip", i).random(max_len) for i in range(len(trips))])
        rolled = sg.oracle_trips(prefs, net, users, origins, destinations, uniforms)
        for i, (user, origin, destination) in enumerate(trips):
            alone = oracle_trip((seed, "trip", i), (origin, destination), user, prefs, net, max_len)
            assert rolled[i] == (list(alone.positions), list(alone.actions), alone.flag)

    def test_empty(self):
        cfg = sg.SynthConfig(n_trajectories=0, users=1)
        ds, prefs = sg.gen_dataset(cfg)
        assert ds.trajectories == []
        assert prefs.n_users == 1

    def test_single_user_shares_theta(self):
        cfg = sg.SynthConfig(users=1, n_trajectories=5, seed=2)
        ds, prefs = sg.gen_dataset(cfg)
        assert prefs.theta.shape == (1, 3)
        assert all(t.user_id == 0 for t in ds.trajectories)

    def test_connectivity_names_the_trip(self):
        net = ng.GridNetwork(ng.GridSpec(3, 3))
        with pytest.raises(ValueError, match="^trajectory 7: position 9 outside network of 9 positions$"):
            sg.check_connectivity(sg.Trajectory(7, 0, 0, 0, [0, 1, 9], [5, 5]), net)
        with pytest.raises(ValueError, match="^trajectory 7: action 5 at step 1 does not lead from 1 to 5$"):
            sg.check_connectivity(sg.Trajectory(7, 0, 0, 0, [0, 1, 5], [5, 5]), net)

    def test_connectivity_invariants_hold(self):
        cfg = sg.SynthConfig(users=4, n_trajectories=60, seed=9)
        ds, _ = sg.gen_dataset(cfg)
        for traj in ds.trajectories:
            sg.check_connectivity(traj, ds.net)

    def test_deterministic(self):
        cfg = sg.SynthConfig(users=3, n_trajectories=20, seed=11)
        a, _ = sg.gen_dataset(cfg)
        b, _ = sg.gen_dataset(cfg)
        assert [(t.positions, t.actions) for t in a.trajectories] == [
            (t.positions, t.actions) for t in b.trajectories
        ]


class TestSplit:
    def _dataset(self, counts):
        net = ng.GridNetwork(ng.GridSpec(3, 3))
        trajs = []
        for user, n in enumerate(counts):
            for _ in range(n):
                trajs.append(
                    sg.Trajectory(len(trajs), user, 0, 0, [0, 1], [5], "complete")
                )
        return sg.Dataset(net, trajs, len(counts))

    def test_train_is_every_trip_only_without_a_split(self):
        ds = self._dataset([3, 3])
        assert ds.train() == ds.trajectories
        ds.eval_idx = [0, 1]
        assert ds.train() == []
        ds.train_idx = [5, 2]
        assert ds.train() == [ds.trajectories[5], ds.trajectories[2]]

    def test_even_split(self):
        ds = sg.split(self._dataset([10]), 0.5, seed=1)
        assert len(ds.eval_idx) == 5 and len(ds.train_idx) == 5

    def test_same_seed_same_split(self):
        base = self._dataset([8, 4])
        a = sg.split(base, 0.25, seed=3)
        b = sg.split(base, 0.25, seed=3)
        assert a.eval_idx == b.eval_idx

    def test_per_user_stratification(self):
        ds = sg.split(self._dataset([4, 4, 4]), 0.25, seed=5)
        per_user = {}
        for i in ds.eval_idx:
            per_user[ds.trajectories[i].user_id] = per_user.get(ds.trajectories[i].user_id, 0) + 1
        assert per_user == {0: 1, 1: 1, 2: 1}

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_eval_fraction_outside_open_interval_rejected(self, fraction):
        with pytest.raises(sg.SplitError, match=f"^eval_fraction must be in \\(0, 1\\), got {fraction}$"):
            sg.split(self._dataset([4]), fraction, seed=0)

    def test_too_small(self):
        with pytest.raises(sg.SplitError):
            sg.split(self._dataset([1]), 0.5, seed=0)

    def test_disjoint_and_covering(self):
        ds = sg.split(self._dataset([5, 7]), 0.3, seed=2)
        assert sorted(ds.train_idx + ds.eval_idx) == list(range(12))


@st.composite
def datasets(draw):
    """A dataset on a grid or a link graph (`networks`): up to 6 random walks of 1-8 moves, each stopped early
    at a dead end and dropped if it starts at one, with distinct traj_ids, any flag, any int64 bins, and a
    #users count above every user_id."""
    net, trips, bins = draw(networks()), [], st.integers(0, 2**63 - 1)
    for traj_id in draw(st.lists(st.integers(-(2**63), 2**63 - 1), unique=True, max_size=6)):
        positions, actions = [draw(st.integers(0, net.n_positions - 1))], []
        for _ in range(draw(st.integers(1, 8))):
            feasible = np.flatnonzero(net.succ[positions[-1]] >= 0).tolist()
            if not feasible:
                break
            actions.append(draw(st.sampled_from(feasible)))
            positions.append(int(net.succ[positions[-1], actions[-1]]))
        if actions:
            trips.append(sg.Trajectory(traj_id, draw(st.integers(0, 40)), draw(bins), draw(bins), positions, actions, draw(st.sampled_from(sg.FLAGS))))
    return sg.Dataset(net, trips, draw(st.integers(max((t.user_id for t in trips), default=0) + 1, 50)))


class TestDatasetIO:
    @given(datasets())
    def test_save_then_load_gives_back_the_dataset_property(self, ds):
        with tempfile.TemporaryDirectory() as tmp:  # hypothesis rejects the function-scoped tmp_path
            path = Path(tmp) / "data.txt"
            sg.save_dataset(ds, path)
            loaded = sg.load_dataset(path, ds.net)
            if isinstance(ds.net, ng.GridNetwork):
                assert sg.load_dataset(path).net.spec == ds.net.spec
        assert loaded.net is ds.net  # a grid file loaded with its network used to return a new grid
        assert (loaded.trajectories, loaded.user_count) == (ds.trajectories, ds.user_count)

    @given(
        st.integers(2, 30) | st.integers(2, 30).map(np.int64),
        st.integers(2, 30) | st.integers(2, 30).map(np.int32),
        st.floats(allow_nan=False, allow_infinity=False) | st.floats(allow_nan=False, allow_infinity=False).map(np.float64) | st.integers(-(10**6), 10**6),
    )
    def test_any_accepted_grid_spec_round_trips_property(self, width, height, cell_size_m):
        # a GridSpec(3, 3.0) used to be saved as "#grid 3 3.0", and a numpy cell size as "np.float64(...)",
        # both of which load_dataset refused
        spec = ng.GridSpec(width, height, cell_size_m)
        with tempfile.TemporaryDirectory() as tmp:  # hypothesis rejects the function-scoped tmp_path
            path = Path(tmp) / "data.txt"
            sg.save_dataset(sg.Dataset(ng.GridNetwork(spec), [], 1), path)
            assert sg.load_dataset(path).net.spec == spec

    def test_round_trip(self, tmp_path):
        cfg = sg.SynthConfig(users=3, n_trajectories=15, seed=4)
        ds, prefs = sg.gen_dataset(cfg)
        path = tmp_path / "data.txt"
        sg.save_dataset(ds, path)
        loaded = sg.load_dataset(path)
        assert loaded.user_count == 3
        assert [(t.positions, t.actions, t.flag) for t in loaded.trajectories] == [
            (t.positions, t.actions, t.flag) for t in ds.trajectories
        ]

    def test_save_idempotent_bytes(self, tmp_path):
        cfg = sg.SynthConfig(users=2, n_trajectories=10, seed=6)
        ds, _ = sg.gen_dataset(cfg)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        sg.save_dataset(ds, p1)
        sg.save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_large_grid_loads_without_hop_table(self, tmp_path):
        # the (n, n) hop table of a 300x300 grid would take 32 GB; loading reads only the successor table
        path = tmp_path / "large.txt"
        path.write_text("#grid 300 300 10.0\n#users 1\n0|0|0|0|0,1|5|complete\n")
        ds = sg.load_dataset(path)
        assert ds.trajectories[0].positions == (0, 1)
        assert "hops" not in vars(ds.net)

    def test_connectivity_checked_on_load(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#grid 3 3 1000.0\n#users 1\n0|0|0|0|0,5|1|complete\n")
        with pytest.raises(ValueError, match="does not lead"):
            sg.load_dataset(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("#users", "#users needs count, got nothing"),
            ("#grid 3", "#grid needs width height cell_m, got 3"),
            ("0|x|0|0|0,1|5|complete", "invalid literal for int"),
            ("0|0|0|0|0,y|5|complete", "invalid literal for int"),
            # indices that used to pass, or to escape later as numpy's OverflowError
            ("0|-1|0|0|0,1|5|complete", r"user_id must be in \[0, 2\*\*63\), got -1$"),
            ("0|0|-3|0|0,1|5|complete", r"depart_bin must be in \[0, 2\*\*63\), got -3$"),
            ("0|0|0|-3|0,1|5|complete", r"speed_bin must be in \[0, 2\*\*63\), got -3$"),
            ("0|0|100000000000000000000|0|0,1|5|complete", r"depart_bin must be in \[0, 2\*\*63\), got 100000000000000000000$"),
            ("0|0|0|100000000000000000000|0,1|5|complete", r"speed_bin must be in \[0, 2\*\*63\), got 100000000000000000000$"),
            ("0|9223372036854775808|0|0|0,1|5|complete", r"user_id must be in \[0, 2\*\*63\), got 9223372036854775808$"),
            # positions outside the 3x3 grid used to escape without path and line
            ("0|0|0|0|-1,0|5|complete", r"positions must be a list of two or more integers in \[0, 2\*\*63\), got \[-1, 0\]$"),
            ("0|0|0|0|9,10|5|complete", "trajectory 0: position 9 outside network of 9 positions$"),
            # a move that does not lead to the next position used to be named without path and line
            ("1|0|0|0|0,8|5|complete", "trajectory 1: action 5 at step 0 does not lead from 0 to 8$"),
            # counts that used to load as the dataset's user_count
            ("#users -2", "#users must be >= 1, got -2$"),
            ("#users 0", "#users must be >= 1, got 0$"),
        ],
        ids=[
            "users-without-count", "grid-without-height", "non-integer-user", "non-integer-position",
            "negative-user", "negative-depart", "negative-speed", "huge-depart", "huge-speed", "user-past-int64",
            "negative-position", "position-past-network", "disconnected-move", "negative-users", "zero-users",
        ],
    )
    def test_malformed_line_named_by_path_and_line(self, line, message, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"#grid 3 3 1000.0\n\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {message}"):
            sg.load_dataset(path)

    @pytest.mark.parametrize(
        "lines, line_no",
        [(["#users 1", "0|3|0|0|0,1|5|complete"], 3), (["0|3|0|0|0,1|5|complete", "#users 1"], 2)],
        ids=["users-header-first", "users-header-last"],
    )
    def test_user_past_users_header_named_by_path_and_line(self, tmp_path, lines, line_no):
        path = tmp_path / "users.txt"
        path.write_text("\n".join(["#grid 3 3 1000.0", *lines]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line_no}: trajectory 0: user 3 >= 1$"):
            sg.load_dataset(path)

    def test_repeated_traj_id_named_by_both_lines(self, tmp_path):
        # used to load both trips
        path = tmp_path / "twice.txt"
        path.write_text("#grid 3 3 1000.0\n5|0|0|0|0,1|5|complete\n\n5|0|0|0|1,2|5|complete\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: traj_id 5 repeated, first at line 2$"):
            sg.load_dataset(path)

    def test_grid_header_checked_against_network(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("#grid 3 3 1000.0\n#users 1\n0|0|0|0|0,1|5|complete\n")
        grid = ng.GridNetwork(ng.GridSpec(3, 3))
        assert sg.load_dataset(path, grid).net is grid
        # each of these used to be replaced by a new 3x3 grid, against which the trip was checked
        for net, have in [
            (ng.LinkGraph([[1], [0]]), "a link graph"),
            (ng.GridNetwork(ng.GridSpec(4, 3)), "GridSpec(width=4, height=3, cell_size_m=1000.0)"),
            (ng.GridNetwork(ng.GridSpec(3, 3, 500.0)), "GridSpec(width=3, height=3, cell_size_m=500.0)"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: #grid 3 3 1000.0 does not match the network: {have}')}$"):
                sg.load_dataset(path, net)

    def test_links_header_checked_against_network(self, tmp_path):
        ring = ng.LinkGraph([[1], [2], [3], [0]])
        path = tmp_path / "links.txt"
        sg.save_dataset(sg.Dataset(ring, [sg.Trajectory(0, 0, 0, 0, [0, 1], [0])], 1), path)
        assert sg.load_dataset(path, ring).trajectories[0].positions == (0, 1)
        # the move 0 -> 1 is one on this network too, which used to let the file load
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: #links 4 does not match the network's 2 links$"):
            sg.load_dataset(path, ng.LinkGraph([[1], [0]]))

    @pytest.mark.parametrize(
        "header, message",
        [
            ("#links abc", "invalid literal for int"),
            ("#links", "#links needs count, got nothing$"),
            ("#links 4 4", "#links needs count, got 4 4$"),
        ],
        ids=["non-integer-count", "no-count", "two-counts"],
    )
    def test_malformed_links_header_named_by_path_and_line(self, tmp_path, header, message):
        path = tmp_path / "links.txt"
        path.write_text(f"{header}\n#users 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {message}"):
            sg.load_dataset(path, ng.LinkGraph([[1], [2], [3], [0]]))

    def test_trajectory_before_grid_header_named(self, tmp_path):
        path = tmp_path / "late.txt"
        path.write_text("#users 1\n0|0|0|0|0,1|5|complete\n#grid 3 3 1000.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: a trajectory line before the #grid header$"):
            sg.load_dataset(path)

    def test_six_field_line_named_by_path_and_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("#grid 3 3 1000.0\n#users 1\n0|0|0|0|0,1|5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: expected 7 fields, got 6$"):
            sg.load_dataset(path)

    def test_links_header_without_network_named(self, tmp_path):
        path = tmp_path / "links.txt"
        path.write_text("#links 4\n#users 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: link-graph dataset needs an explicit network$"):
            sg.load_dataset(path)

    def test_no_grid_header_and_no_network_named(self, tmp_path):
        path = tmp_path / "headless.txt"
        path.write_text("#users 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing #grid header and no network supplied$"):
            sg.load_dataset(path)

    def test_users_count_from_largest_user_id_without_header(self, tmp_path):
        path = tmp_path / "no_users.txt"
        path.write_text("#grid 3 3 1000.0\n0|4|0|0|0,1|5|complete\n1|2|0|0|1,2|5|complete\n")
        assert sg.load_dataset(path).user_count == 5

    def test_unknown_flag_rejected_on_load(self, tmp_path):
        path = tmp_path / "typo.txt"
        path.write_text("#grid 3 3 1000.0\n#users 1\n7|0|0|0|0,1|5|compelte\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: flag must be one of complete, truncated, dead_end, got 'compelte'$"):
            sg.load_dataset(path)

    def test_preferences_without_header_named(self, tmp_path):
        path, line = tmp_path / "theta.csv", "0,1.0,2.0,3.0\n"
        path.write_text(line)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: unexpected header {line!r}')}$"):
            sg.load_preferences(path)

    def test_preferences_round_trip(self, tmp_path):
        prefs = sg.PreferenceParams(np.array([[1.25, -2.5, 0.125], [0.1, 0.2, 0.3]]))
        path = tmp_path / "theta.csv"
        sg.save_preferences(prefs, path)
        loaded = sg.load_preferences(path)
        np.testing.assert_array_equal(loaded.theta, prefs.theta)

    @pytest.mark.parametrize(
        "rows, want",
        [
            (["0,1.0,x,0.5"], ":2: could not convert string to float: 'x'$"),
            (["0,1.0"], ":2: expected 4 fields, got 2$"),
            (["0,1,2,3", "1,4,5,6,7"], ":3: expected 4 fields, got 5$"),
            (["0,1,2,3", "0,4,5,6"], ":3: user_id 0 is repeated$"),
            (["-1,1,2,3"], ":2: user_id -1 is negative$"),
            (["0,1.0,nan,0.5"], ":2: non-finite weight in 1.0,nan,0.5$"),
            (["0,1,2,3", "", "2,4,5,6"], ": no row for user_id 1$"),
            (["1,4,5,6", "0,1,2,3"], [[1, 2, 3], [4, 5, 6]]),  # each row at its user_id, not at its line
        ],
        ids=["bad-float", "short-row", "long-row", "repeated-user", "negative-user", "non-finite-weight", "missing-user", "out-of-order"],
    )
    def test_preferences_rows_read_by_user_id(self, tmp_path, rows, want):
        path = tmp_path / "theta.csv"
        path.write_text("\n".join(["user_id,theta_progress,theta_turn,theta_stay", *rows]) + "\n")
        if isinstance(want, str):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{want}"):
                sg.load_preferences(path)
        else:
            np.testing.assert_array_equal(sg.load_preferences(path).theta, want)


@st.composite
def gps_rows(draw, bbox):
    """GPS CSV rows of 1-3 vehicles on a grid 2-7 cells wide inside `bbox`, shuffled: each vehicle a walk of
    up to 60 fixes, 0-45 minutes apart, whose steps are grid moves (a stay among them) or jumps to any cell;
    with out-of-box and unparsable rows among them. Returns (grid, rows)."""
    lon_min, lat_min, lon_max, lat_max = bbox
    grid = ng.GridSpec(draw(st.integers(2, 7)), draw(st.integers(2, 7)))
    bad_rows = ["garbage,row", "v0,noon,116.1,39.1", "v1,1201957200,117.0,39.1", "v2,1201957200,116.1,38.0"]
    rows = draw(st.lists(st.sampled_from(bad_rows), max_size=4))
    # seconds since the last fix, a grid move (0-8) or a jump (9-11), the jump's target, and the place in the cell
    steps = st.tuples(st.integers(0, 45 * 60), st.integers(0, 11), st.integers(0, 48), st.floats(0, 0.999), st.floats(0, 0.999))
    for vid in range(draw(st.integers(1, 3))):
        t, row, col = 1201957200 + draw(st.integers(0, 86400)), 0, 0
        for seconds, move, target, fx, fy in draw(st.lists(steps, min_size=1, max_size=60)):
            t += seconds
            if move < ng.N_ACTIONS:  # a grid move, clamped at the edge; 4 is the stay
                row = min(max(row + move // 3 - 1, 0), grid.height - 1)
                col = min(max(col + move % 3 - 1, 0), grid.width - 1)
            else:  # a jump to any cell
                row, col = divmod(target % (grid.width * grid.height), grid.width)
            lon = lon_min + (col + fx) * (lon_max - lon_min) / grid.width
            lat = lat_min + (row + fy) * (lat_max - lat_min) / grid.height
            rows.append(f"v{vid},{t},{lon!r},{lat!r}")
    return grid, draw(st.permutations(rows))


class TestIngestCSV:
    BBOX = (116.0, 39.0, 116.5, 39.5)
    CFG = sg.IngestConfig(*BBOX)
    GRID = ng.GridSpec(5, 5, 1000.0)

    def _write(self, tmp_path, rows):
        path = tmp_path / "fixes.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    @given(
        gps_rows(BBOX),
        st.sampled_from([5.0, 10.0, 15.0]),
        st.integers(1, 5),
        st.sampled_from([1, 2, 3, 5, 50]),
    )
    def test_one_pass_matches_list_pass_reference(self, stream, resample_minutes, max_gap_intervals, max_moves):
        """The one-pass cut gives the trips, stats and user count of the three-pass reference."""
        grid, rows = stream
        cfg = sg.IngestConfig(*self.BBOX, resample_minutes, max_gap_intervals, max_moves)
        with tempfile.TemporaryDirectory() as tmp:  # hypothesis rejects the function-scoped tmp_path
            path = Path(tmp) / "fixes.csv"
            path.write_text("\n".join(rows) + "\n")
            got, want = (self._outcome(ingest, path, grid, cfg) for ingest in (sg.ingest_csv, reference_ingest_csv))
        assert got == want

    def _outcome(self, ingest, path, grid, cfg):
        """(trajectories, stats, user count) of one ingestion, or the message of its IngestionError."""
        try:
            ds, stats = ingest(path, grid, cfg)
        except sg.IngestionError as exc:
            return str(exc)
        return ds.trajectories, stats, ds.user_count

    def test_large_grid_ingests_without_hop_table(self, tmp_path):
        # the (n, n) hop table of a 300x300 grid would take 32 GB; ingestion reads only the successor table
        path = self._write(tmp_path, ["v1,2008-02-02 13:00:00,116.0001,39.0001", "v1,2008-02-02 13:10:00,116.0021,39.0001"])
        ds, stats = sg.ingest_csv(path, ng.GridSpec(300, 300, 100.0), self.CFG)
        assert stats.trajectories == 1 and ds.trajectories[0].positions == (0, 1)
        assert "hops" not in vars(ds.net)

    def test_two_adjacent_fixes(self, tmp_path):
        # cells are 0.1 degrees wide; consecutive cells in the same row
        path = self._write(
            tmp_path,
            ["v1,2008-02-02 13:00:00,116.05,39.05", "v1,2008-02-02 13:10:00,116.15,39.05"],
        )
        ds, stats = sg.ingest_csv(path, self.GRID, self.CFG)
        assert stats.trajectories == 1
        traj = ds.trajectories[0]
        assert traj.positions == (0, 1)
        assert len(traj.actions) == 1
        assert traj.depart_bin == 13

    def test_gap_carries_stay(self, tmp_path):
        # 25 minutes apart at 10-minute resampling: bins 0 and 2, cell repeated in bin 1
        path = self._write(
            tmp_path,
            ["v1,2008-02-02 13:00:00,116.05,39.05", "v1,2008-02-02 13:25:00,116.15,39.05"],
        )
        ds, _ = sg.ingest_csv(path, self.GRID, self.CFG)
        traj = ds.trajectories[0]
        assert traj.positions == (0, 0, 1)
        assert traj.actions[0] == ng.STAY_ACTION

    def test_jump_splits(self, tmp_path):
        # 5 cells apart: split at the non-adjacency, both pieces too short, then a valid pair
        path = self._write(
            tmp_path,
            [
                "v1,2008-02-02 13:00:00,116.05,39.05",
                "v1,2008-02-02 13:10:00,116.45,39.45",
                "v1,2008-02-02 13:20:00,116.45,39.35",
            ],
        )
        ds, stats = sg.ingest_csv(path, self.GRID, self.CFG)
        assert stats.dropped_short == 1
        assert len(ds.trajectories) == 1
        assert ds.trajectories[0].positions == (24, 19)

    def test_unparsable_skipped_and_counted(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                "v1,2008-02-02 13:00:00,116.05,39.05",
                "garbage,row",
                "v1,2008-02-02 13:10:00,116.15,39.05",
            ],
        )
        _, stats = sg.ingest_csv(path, self.GRID, self.CFG)
        assert stats.unparsable == 1
        assert stats.trajectories == 1

    def test_mostly_unparsable_fails(self, tmp_path):
        path = self._write(tmp_path, ["x", "y", "z", "v1,2008-02-02 13:00:00,116.05,39.05"])
        with pytest.raises(sg.IngestionError):
            sg.ingest_csv(path, self.GRID, self.CFG)

    def test_idempotent(self, tmp_path):
        rows = [
            "v2,2008-02-02 08:00:00,116.22,39.18",
            "v2,2008-02-02 08:10:00,116.31,39.18",
            "v1,2008-02-02 13:00:00,116.05,39.05",
            "v1,2008-02-02 13:10:00,116.15,39.05",
        ]
        path = self._write(tmp_path, rows)
        ds1, _ = sg.ingest_csv(path, self.GRID, self.CFG)
        ds2, _ = sg.ingest_csv(path, self.GRID, self.CFG)
        out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        sg.save_dataset(ds1, out1)
        sg.save_dataset(ds2, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_max_moves_must_be_positive(self):
        with pytest.raises(sg.ConfigError, match=r"^max_moves must be >= 1, got 0$"):
            dataclasses.replace(self.CFG, max_moves=0)

    def test_header_row_skipped_and_not_counted(self, tmp_path):
        path = self._write(tmp_path, [",".join(sg.CSV_COLUMNS), "v1,1201957200,116.05,39.05", "v1,1201957800,116.15,39.05"])
        ds, stats = sg.ingest_csv(path, self.GRID, self.CFG)
        assert (stats.rows, stats.unparsable, stats.trajectories) == (2, 0, 1)
        assert ds.trajectories[0].positions == (0, 1)

    def test_epoch_timestamps(self, tmp_path):
        path = self._write(tmp_path, ["v1,1201957200,116.05,39.05", "v1,1201957800,116.15,39.05"])
        ds, stats = sg.ingest_csv(path, self.GRID, self.CFG)
        assert stats.trajectories == 1

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_timestamp_counted_unparsable(self, tmp_path, stamp):
        path = self._write(
            tmp_path,
            ["v1,1201957200,116.05,39.05", f"v1,{stamp},116.25,39.05", "v1,1201957800,116.15,39.05"],
        )
        _, stats = sg.ingest_csv(path, self.GRID, self.CFG)
        assert stats.unparsable == 1
        assert stats.trajectories == 1

    @pytest.mark.parametrize("stamps", [(300000000000, 300000000600), ("0001-01-01T00:00:00+01:00", "0001-01-01T00:10:00+01:00")])
    def test_timestamp_outside_datetime_range_counted_unparsable(self, tmp_path, stamps):
        # such a row used to abort the whole ingest with a bare ValueError ("year 11476 is out of range")
        rows = [f"v1,{stamps[0]},116.01,39.01", f"v1,{stamps[1]},116.11,39.01", "v2,0,116.01,39.01", "v2,600,116.11,39.01"]
        ds, stats = sg.ingest_csv(self._write(tmp_path, rows), self.GRID, self.CFG)
        assert (stats.rows, stats.unparsable, ds.user_count) == (4, 2, 1)
        assert [(t.user_id, t.positions) for t in ds.trajectories] == [(0, (0, 1))]

    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(resample_minutes=0), "resample_minutes must be > 0, got 0"),
            (dict(resample_minutes=-10.0), "resample_minutes must be > 0, got -10.0"),
            (dict(resample_minutes=float("nan")), "resample_minutes must be a finite real number, got nan"),
            (dict(lon_max=float("nan")), "lon_max must be a finite real number, got nan"),
            (dict(lat_min=-float("inf")), "lat_min must be a finite real number, got -inf"),
            (dict(max_gap_intervals=-1), "max_gap_intervals must be >= 1, got -1"),
            (dict(max_gap_intervals=0), "max_gap_intervals must be >= 1, got 0"),
            (dict(max_gap_intervals=float("nan")), "max_gap_intervals must be an integer, got nan"),
            # these used to raise a bare TypeError from the part slicing
            (dict(max_moves=float("nan")), "max_moves must be an integer, got nan"),
            (dict(max_moves=2.5), "max_moves must be an integer, got 2.5"),
            (dict(max_moves=float("inf")), "max_moves must be an integer, got inf"),
            # these used to be accepted: max_moves True as 1, 2.0 past its whole-number test, and max_gap_intervals as given
            (dict(max_moves=True), "max_moves must be an integer, got True"),
            (dict(max_moves=2.0), "max_moves must be an integer, got 2.0"),
            (dict(max_gap_intervals=True), "max_gap_intervals must be an integer, got True"),
            (dict(max_gap_intervals=2.5), "max_gap_intervals must be an integer, got 2.5"),
            (dict(lon_min=116.5, lon_max=116.0), "lon_max must be > lon_min 116.5, got 116.0"),
            # these used to be accepted, as a 1-minute interval and as a western edge at 1.0
            (dict(resample_minutes=True), "resample_minutes must be a finite real number, got True"),
            (dict(lon_min=True), "lon_min must be a finite real number, got True"),
            # these used to escape as a bare TypeError from a bound or from math.isfinite
            (dict(resample_minutes="10"), "resample_minutes must be a finite real number, got '10'"),
            (dict(lon_min="116.0"), "lon_min must be a finite real number, got '116.0'"),
            (dict(lat_min=39.5, lat_max=39.0), "lat_max must be > lat_min 39.5, got 39.0"),
            (dict(lat_max=39.0), "lat_max must be > lat_min 39.0, got 39.0"),
        ],
    )
    def test_bad_option_rejected_by_name(self, options, message):
        # these used to raise ZeroDivisionError or a bare ValueError, count every fix out of the box, or drop every piece
        with pytest.raises(sg.ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(self.CFG, **options)
