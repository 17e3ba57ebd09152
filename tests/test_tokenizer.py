import numpy as np
import pytest

from trajforge import netgrid as ng
from trajforge import synthgen as sg
from trajforge import tokenizer as tk


def make_traj(positions, actions, flag="complete", user=0, depart=3, speed=40):
    return sg.Trajectory(0, user, depart, speed, positions, actions, flag)


class TestEncodeEpisode:
    def test_three_position_complete(self):
        traj = make_traj([0, 1, 2], [5, 5])
        ep = tk.encode_episode(traj)
        assert ep.rtg.tolist() == [1, 1, 0]
        assert ep.action.tolist() == [5, 5, tk.BLANK]
        assert ep.timestep.tolist() == [0, 1, 2]

    def test_truncated_all_en_route(self):
        traj = make_traj([0, 1, 2], [5, 5], flag="truncated")
        # destination is the last recorded position even when truncated;
        # rtg is 0 only where the position equals it
        ep = tk.encode_episode(traj)
        assert ep.rtg.tolist() == [1, 1, 0]
        traj2 = make_traj([0, 1, 0], [5, 3], flag="truncated")
        ep2 = tk.encode_episode(traj2)
        assert ep2.rtg[0] == 0 or ep2.rtg.tolist() == [1, 1, 0]

    def test_length_two(self):
        traj = make_traj([4, 5], [5])
        ep = tk.encode_episode(traj)
        assert ep.rtg.tolist() == [1, 0]
        assert ep.decision_mask.tolist() == [True, False]

    def test_rtg_iff_destination_property(self):
        cfg = sg.SynthConfig(users=3, n_trajectories=30, seed=8)
        ds, _ = sg.gen_dataset(cfg)
        for traj in ds.trajectories:
            ep = tk.encode_episode(traj)
            for t in range(ep.n_steps):
                assert (ep.rtg[t] == 0) == (ep.position[t] == traj.destination)

    def test_exactly_one_blank(self):
        cfg = sg.SynthConfig(users=2, n_trajectories=20, seed=12)
        ds, _ = sg.gen_dataset(cfg)
        for traj in ds.trajectories:
            ep = tk.encode_episode(traj)
            assert int((ep.action == tk.BLANK).sum()) == 1
            assert ep.action[-1] == tk.BLANK

    def test_bad_action_rejected(self):
        traj = make_traj([0, 1], [5])
        traj.actions = [12]
        with pytest.raises(tk.EncodingError):
            tk.encode_episode(traj)


class TestDecode:
    def test_round_trip_exact(self):
        cfg = sg.SynthConfig(users=4, n_trajectories=40, seed=3)
        ds, _ = sg.gen_dataset(cfg)
        for traj in ds.trajectories:
            back = tk.decode_episode(tk.encode_episode(traj))
            assert back.positions == traj.positions
            assert back.actions == traj.actions
            assert back.flag == traj.flag
            assert (back.user_id, back.depart_bin, back.speed_bin) == (
                traj.user_id,
                traj.depart_bin,
                traj.speed_bin,
            )


class TestWindowize:
    def _episode(self, n_steps):
        positions = list(range(n_steps))
        actions = [5] * (n_steps - 1)
        net = ng.GridNetwork(ng.GridSpec(n_steps + 1, 2))
        traj = sg.Trajectory(0, 0, 0, 0, positions, actions, "complete")
        sg.check_connectivity(traj, net)
        return tk.encode_episode(traj)

    def test_short_episode_single_window(self):
        windows = tk.windowize(self._episode(5), context=12, stride=8)
        assert len(windows) == 1
        assert windows[0].n_steps == 5

    def test_exact_fit_single_window(self):
        windows = tk.windowize(self._episode(12), context=12, stride=12)
        assert len(windows) == 1

    def test_stride_with_right_alignment(self):
        windows = tk.windowize(self._episode(20), context=12, stride=8)
        starts = [int(w.timestep[0]) for w in windows]
        assert starts == [0, 8]
        assert int(windows[-1].timestep[-1]) == 19

    def test_coverage_property(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, 15))
            stride = int(rng.integers(1, 15))
            ep = self._episode(n)
            windows = tk.windowize(ep, k, stride)
            covered = set()
            for w in windows:
                assert 1 <= w.n_steps <= k
                covered.update(int(t) for t, a in zip(w.timestep, w.action) if a != tk.BLANK)
            assert covered == {t for t in range(n - 1)}

    def test_absolute_timesteps_preserved(self):
        windows = tk.windowize(self._episode(20), context=12, stride=8)
        assert windows[1].timestep.tolist() == list(range(8, 20))


class TestCheckVocab:
    VOCAB = tk.VocabSpec(positions=9, actions=10, rtg=2, depart_bins=24, speed_bins=120, users=2, max_timestep=4)

    def test_fitting_trajectory_accepted(self):
        tk.check_vocab([sg.Trajectory(1, 1, 23, 119, [0, 1, 2, 5], [5, 5, 7])], self.VOCAB)

    @pytest.mark.parametrize(
        "traj, field",
        [
            (sg.Trajectory(7, 0, 0, 0, [0, 9], [5]), "positions"),
            (sg.Trajectory(7, 2, 0, 0, [0, 1], [5]), "users"),
            (sg.Trajectory(7, 0, 24, 0, [0, 1], [5]), "depart_bins"),
            (sg.Trajectory(7, 0, 0, 120, [0, 1], [5]), "speed_bins"),
            (sg.Trajectory(7, 0, 0, 0, [0, 1, 2, 1, 0], [5, 5, 3, 3]), "max_timestep"),
        ],
    )
    def test_each_field_named(self, traj, field):
        with pytest.raises(tk.EncodingError, match=f"trajectory 7: {field} index"):
            tk.check_vocab([traj], self.VOCAB)

    def test_unlisted_fields_ignored(self):
        long_fast = sg.Trajectory(7, 0, 0, 120, [0, 1, 2, 1, 0], [5, 5, 3, 3])
        tk.check_vocab([long_fast], self.VOCAB, ("positions", "users", "depart_bins"))


class TestVocabSizes:
    def test_grid_counts(self):
        net = ng.GridNetwork(ng.GridSpec(5, 5))
        spec = tk.vocab_sizes(net, {"users": 20, "max_len": 50})
        assert spec.positions == 25
        assert spec.actions == 10
        assert spec.rtg == 2
        assert spec.depart_bins == 24
        assert spec.speed_bins == 120
        assert spec.users == 20
        assert spec.max_timestep == 51

    def test_users_required(self):
        net = ng.GridNetwork(ng.GridSpec(3, 3))
        with pytest.raises(tk.EncodingError):
            tk.vocab_sizes(net, {"users": 0})

    def test_from_synth_config(self):
        cfg = sg.SynthConfig(width=4, height=3, users=7, max_len=20)
        net = ng.GridNetwork(ng.GridSpec(4, 3))
        spec = tk.vocab_sizes(net, cfg)
        assert spec.positions == 12
        assert spec.users == 7
        assert spec.max_timestep == 21
