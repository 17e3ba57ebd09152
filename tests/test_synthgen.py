import numpy as np
import pytest

from trajforge import netgrid as ng
from trajforge import synthgen as sg


@pytest.fixture
def grid5():
    return ng.GridNetwork(ng.GridSpec(5, 5))


def prefs_for(theta_rows):
    return sg.PreferenceParams(np.asarray(theta_rows, dtype=float))


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
        hops = ng.hops_to(grid5, 24)
        reducing = [
            a
            for a in np.flatnonzero(grid5.feasible[12])
            if hops[ng.apply_action(grid5, 12, a)] < hops[12]
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


class TestGenTrajectory:
    def test_adjacent_od_progress_seeker(self, grid5):
        prefs = prefs_for([[12.0, 0.0, 0.0]])
        traj = sg.gen_trajectory(1, (12, 13), 0, prefs, grid5, max_len=50)
        assert traj.complete
        assert traj.positions == [12, 13]
        assert len(traj.actions) == 1

    def test_same_seed_identical(self, grid5):
        prefs = prefs_for([[1.0, -0.5, 0.0]])
        a = sg.gen_trajectory(7, (0, 24), 0, prefs, grid5, max_len=50)
        b = sg.gen_trajectory(7, (0, 24), 0, prefs, grid5, max_len=50)
        assert a.positions == b.positions and a.actions == b.actions

    def test_max_len_one_truncates(self, grid5):
        prefs = prefs_for([[0.0, 0.0, 0.0]])
        traj = sg.gen_trajectory(3, (0, 24), 0, prefs, grid5, max_len=1)
        assert traj.flag == "truncated"
        assert len(traj.actions) == 1

    def test_origin_equals_destination_rejected(self, grid5):
        with pytest.raises(sg.GenerationError):
            sg.gen_trajectory(0, (3, 3), 0, prefs_for([[0, 0, 0]]), grid5, max_len=5)


class TestGenDataset:
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

    def test_too_small(self):
        with pytest.raises(sg.SplitError):
            sg.split(self._dataset([1]), 0.5, seed=0)

    def test_disjoint_and_covering(self):
        ds = sg.split(self._dataset([5, 7]), 0.3, seed=2)
        assert sorted(ds.train_idx + ds.eval_idx) == list(range(12))


class TestDatasetIO:
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

    def test_connectivity_checked_on_load(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#grid 3 3 1000.0\n#users 1\n0|0|0|0|0,5|1|complete\n")
        with pytest.raises(ValueError, match="does not lead"):
            sg.load_dataset(path)

    def test_preferences_round_trip(self, tmp_path):
        prefs = sg.PreferenceParams(np.array([[1.25, -2.5, 0.125], [0.1, 0.2, 0.3]]))
        path = tmp_path / "theta.csv"
        sg.save_preferences(prefs, path)
        loaded = sg.load_preferences(path)
        np.testing.assert_array_equal(loaded.theta, prefs.theta)


class TestIngestCSV:
    BBOX = (116.0, 39.0, 116.5, 39.5)
    GRID = ng.GridSpec(5, 5, 1000.0)

    def _write(self, tmp_path, rows):
        path = tmp_path / "fixes.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_two_adjacent_fixes(self, tmp_path):
        # cells are 0.1 degrees wide; consecutive cells in the same row
        path = self._write(
            tmp_path,
            ["v1,2008-02-02 13:00:00,116.05,39.05", "v1,2008-02-02 13:10:00,116.15,39.05"],
        )
        ds, stats = sg.ingest_csv(path, self.GRID, self.BBOX, resample_minutes=10)
        assert stats.trajectories == 1
        traj = ds.trajectories[0]
        assert traj.positions == [0, 1]
        assert len(traj.actions) == 1
        assert traj.depart_bin == 13

    def test_gap_carries_stay(self, tmp_path):
        # 25 minutes apart at 10-minute resampling: bins 0 and 2, cell repeated in bin 1
        path = self._write(
            tmp_path,
            ["v1,2008-02-02 13:00:00,116.05,39.05", "v1,2008-02-02 13:25:00,116.15,39.05"],
        )
        ds, _ = sg.ingest_csv(path, self.GRID, self.BBOX, resample_minutes=10)
        traj = ds.trajectories[0]
        assert traj.positions == [0, 0, 1]
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
        ds, stats = sg.ingest_csv(path, self.GRID, self.BBOX, resample_minutes=10)
        assert stats.dropped_short == 1
        assert len(ds.trajectories) == 1
        assert ds.trajectories[0].positions == [24, 19]

    def test_unparsable_skipped_and_counted(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                "v1,2008-02-02 13:00:00,116.05,39.05",
                "garbage,row",
                "v1,2008-02-02 13:10:00,116.15,39.05",
            ],
        )
        _, stats = sg.ingest_csv(path, self.GRID, self.BBOX)
        assert stats.unparsable == 1
        assert stats.trajectories == 1

    def test_mostly_unparsable_fails(self, tmp_path):
        path = self._write(tmp_path, ["x", "y", "z", "v1,2008-02-02 13:00:00,116.05,39.05"])
        with pytest.raises(sg.IngestionError):
            sg.ingest_csv(path, self.GRID, self.BBOX)

    def test_idempotent(self, tmp_path):
        rows = [
            "v2,2008-02-02 08:00:00,116.22,39.18",
            "v2,2008-02-02 08:10:00,116.31,39.18",
            "v1,2008-02-02 13:00:00,116.05,39.05",
            "v1,2008-02-02 13:10:00,116.15,39.05",
        ]
        path = self._write(tmp_path, rows)
        ds1, _ = sg.ingest_csv(path, self.GRID, self.BBOX)
        ds2, _ = sg.ingest_csv(path, self.GRID, self.BBOX)
        out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
        sg.save_dataset(ds1, out1)
        sg.save_dataset(ds2, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_epoch_timestamps(self, tmp_path):
        path = self._write(tmp_path, ["v1,1201957200,116.05,39.05", "v1,1201957800,116.15,39.05"])
        ds, stats = sg.ingest_csv(path, self.GRID, self.BBOX)
        assert stats.trajectories == 1
