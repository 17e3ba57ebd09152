import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajforge import netgrid as ng
from trajforge import pretrain as pt
from trajforge import rewardirl as ri
from trajforge import synthgen as sg
from trajforge import tokenizer as tk

FIELDS = ("position", "origin", "destination", "depart", "speed", "user", "action", "timestep")
TRIP_FIELDS = dict(user="user_id", depart="depart_bin", speed="speed_bin")  # the Trajectory field of a context column


def make_traj(positions, actions, flag="complete", user=0, depart=3, speed=40, traj_id=0):
    return sg.Trajectory(traj_id, user, depart, speed, positions, actions, flag)


@st.composite
def trip_lists(draw, min_size=0):
    """Random trips, unconnected moves allowed; trip i has user i, so a step names its trip."""
    trips = []
    for i in range(draw(st.integers(min_size, 5))):
        positions = draw(st.lists(st.integers(0, 24), min_size=2, max_size=30))
        actions = draw(st.lists(st.integers(0, tk.BLANK - 1), min_size=len(positions) - 1, max_size=len(positions) - 1))
        flag = draw(st.sampled_from(["complete", "truncated", "dead_end"]))
        trips.append(sg.Trajectory(draw(st.integers(0, 999)), i, draw(st.integers(0, 23)), draw(st.integers(0, 119)), positions, actions, flag))
    return trips


def field_values(stop):
    """Values a caller might put in an index field below `stop`: ints inside, at and far outside the
    bounds, integral and fractional floats, bools and numpy ints."""
    return st.one_of(
        st.integers(0, stop - 1),
        st.sampled_from([-1, stop, 2**63 - 1, 2**63, 2**64]),
        st.integers(-(2**64), 2**64),
        st.integers(-3, 30).map(float),
        st.floats(-3.0, 30.0),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.integers(0, 2**64 - 1).map(np.uint64),
    )


def is_index(value, stop) -> bool:
    """The reference rule of a trip's index: an int or a numpy int, not a bool, in [0, stop)."""
    return type(value) in (int, np.int64, np.uint64) and 0 <= value < stop


@st.composite
def trip_fields(draw):
    """Keyword arguments of a `Trajectory`: valid, save that fewer than two positions may be drawn, and
    that one field, or none, is drawn again from values that may break its rule. A list may lose or
    gain an entry, have one replaced or be a tuple."""
    n = draw(st.sampled_from([0, 1, 2, 2, 3, 4, 5]))
    fields = dict(
        traj_id=draw(st.integers()),
        user_id=draw(st.integers(0, 3)),
        depart_bin=draw(st.integers(0, 23)),
        speed_bin=draw(st.integers(0, 119)),
        positions=draw(st.lists(st.integers(0, 24), min_size=n, max_size=n)),
        actions=draw(st.lists(st.integers(0, tk.BLANK - 1), min_size=max(n - 1, 0), max_size=max(n - 1, 0))),
        flag=draw(st.sampled_from(sg.FLAGS)),
    )
    broken = draw(st.sampled_from([None, *fields]))
    if broken == "flag":
        fields[broken] = draw(st.sampled_from([*sg.FLAGS, "compelte", None]))
    elif broken in ("positions", "actions"):
        values, stop = fields[broken], 25 if broken == "positions" else tk.BLANK
        how = draw(st.sampled_from(["replace", "replace", "shorten", "lengthen", "tuple"]))
        if how == "replace" and values:
            values[draw(st.integers(0, len(values) - 1))] = draw(field_values(stop))
        fields[broken] = dict(shorten=values[:-1], lengthen=[*values, 0], tuple=tuple(values)).get(how, values)
    elif broken is not None:
        fields[broken] = draw(field_values(5 if broken == "traj_id" else 4))
    return fields


SYNTHETIC_TRIPS = sg.gen_dataset(sg.SynthConfig(users=4, n_trajectories=40, seed=3))[0].trajectories


class TestEncodeEpisode:
    def test_three_position_complete(self):
        ep = tk.encode_trips([make_traj([0, 1, 2], [5, 5])])
        assert ep.action.tolist() == [5, 5, tk.BLANK]
        assert ep.timestep.tolist() == [0, 1, 2]

    def test_truncated_all_en_route(self):
        # destination is the last recorded position even when truncated
        ep = tk.encode_trips([make_traj([0, 1, 2], [5, 5], flag="truncated"), make_traj([0, 1, 0], [5, 3], flag="truncated")])
        assert ep.destination.tolist() == [2, 2, 2, 0, 0, 0]

    def test_length_two(self):
        ep = tk.encode_trips([make_traj([4, 5], [5])])
        assert ep.decision_mask.tolist() == [True, False]

    def test_exactly_one_blank(self):
        cfg = sg.SynthConfig(users=2, n_trajectories=20, seed=12)
        ds, _ = sg.gen_dataset(cfg)
        ep = tk.encode_trips(ds.trajectories)
        ends = np.cumsum([len(t.positions) for t in ds.trajectories]) - 1
        np.testing.assert_array_equal(np.flatnonzero(ep.action == tk.BLANK), ends)

    def test_bad_action_rejected(self):
        # rejected when the trip is made, so encode_trips never meets it
        trip = make_traj([0, 1], [5], traj_id=1)
        with pytest.raises(ValueError, match=r"^actions must be a list of one integer in \[0, 9\) per move, got \[12\]$"):
            dataclasses.replace(trip, actions=[12])

    @settings(max_examples=400)
    @given(st.lists(trip_fields(), max_size=4))
    def test_trip_made_exactly_when_its_rules_hold_property(self, fields):
        # each trip checks itself when made, so encode_trips, which checks nothing, meets only trips that fit
        trips = []
        for kwargs in fields:
            positions, actions = kwargs["positions"], kwargs["actions"]
            ok = (
                type(kwargs["traj_id"]) in (int, np.int64, np.uint64)
                and all(is_index(kwargs[name], 2**63) for name in ("user_id", "depart_bin", "speed_bin"))
                and type(positions) in (list, tuple) and len(positions) >= 2 and all(is_index(p, 2**63) for p in positions)
                and type(actions) in (list, tuple) and len(actions) == len(positions) - 1 and all(is_index(a, tk.BLANK) for a in actions)
                and kwargs["flag"] in sg.FLAGS
            )
            if ok:
                trips.append(sg.Trajectory(**kwargs))
            else:
                with pytest.raises(ValueError, match=r"^\w+ must be "):
                    sg.Trajectory(**kwargs)
        table = tk.encode_trips(trips)
        assert {len(getattr(table, name)) for name in FIELDS} == {sum(len(t.positions) for t in trips)}
        assert np.count_nonzero(table.action == tk.BLANK) == len(trips)
        np.testing.assert_array_equal(table.action[table.decision_mask], [a for t in trips for a in t.actions])

    @given(trip_lists(min_size=1))
    def test_batched_equals_sequential_property(self, trips):
        table = tk.encode_trips(trips)
        for name in FIELDS:
            got = getattr(table, name)
            want = np.concatenate([getattr(tk.encode_trips([t]), name) for t in trips])
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name


class TestDecode:
    @given(trip_lists())
    @example(SYNTHETIC_TRIPS)
    def test_round_trip_exact(self, trips):
        """A one-trip table holds every field of its trip: positions, moves then BLANK, context, timesteps."""
        for traj in trips:
            table, n = tk.encode_trips([traj]), len(traj.positions)
            assert table.position.tolist() == list(traj.positions)
            assert table.action.tolist() == [*traj.actions, tk.BLANK]
            context = dict(origin=traj.origin, destination=traj.destination, depart=traj.depart_bin, speed=traj.speed_bin, user=traj.user_id)
            for name, value in context.items():
                assert getattr(table, name).tolist() == [value] * n, name
            assert table.timestep.tolist() == list(range(n))


class TestWindowize:
    """Each trip is the policy's window: its block of rows in the step table, read whole."""

    @given(trip_lists())
    def test_coverage_property(self, trips):
        # each trip's rows are contiguous and in order, its timesteps run 0..n-1, its moves are its
        # decision rows, each once, and a BLANK sits at its last row and nowhere else
        table = tk.encode_trips(trips)
        steps = np.array([len(t.positions) for t in trips], dtype=np.int64)
        ends = np.cumsum(steps)
        assert table.n_steps == steps.sum()
        if trips:
            np.testing.assert_array_equal(np.flatnonzero(np.diff(table.user)) + 1, ends[:-1])  # trip i has user i
            np.testing.assert_array_equal(table.user[ends - steps], np.arange(len(trips)))
        for traj, stop in zip(trips, ends):
            rows = slice(stop - len(traj.positions), stop)
            assert table.position[rows].tolist() == list(traj.positions)
            assert table.timestep[rows].tolist() == list(range(len(traj.positions)))
        np.testing.assert_array_equal(np.flatnonzero(table.action == tk.BLANK), ends - 1)
        decided = zip(table.user[table.decision_mask].tolist(), table.timestep[table.decision_mask].tolist())
        assert list(decided) == [(i, t) for i, traj in enumerate(trips) for t in range(len(traj.actions))]

    def test_absolute_timesteps_preserved(self):
        long_trip = make_traj(list(range(20)), [5] * 19)
        table = tk.encode_trips([make_traj([0, 1, 2], [5, 5]), long_trip])
        assert table.timestep[3:].tolist() == list(range(20))
        np.testing.assert_array_equal(table.timestep[3:], tk.encode_trips([long_trip]).timestep)


def arrays_digest(arrays):
    """SHA-256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestFormat:
    def test_window_and_transition_arrays_pinned(self):
        # a change to these digests is a change of the token format: update them on purpose only
        cfg = sg.SynthConfig(n_trajectories=200, seed=1)
        dataset = sg.split(sg.gen_dataset(cfg)[0], 0.2, seed=1)
        got = {}
        for split, trips in (("train", dataset.train()), ("eval", dataset.eval())):
            windows = pt.build_windows(trips, tk.vocab_sizes(dataset.net, cfg).max_timestep)
            batch = ri.transitions(trips)
            got[split] = (
                len(windows),
                arrays_digest(getattr(w, name) for w in windows for name in FIELDS),
                len(batch),
                arrays_digest(getattr(batch, name) for name in ri.TransitionBatch.__dataclass_fields__),
            )
        assert got == {
            "train": (
                168, "ca878a760c2ede7c6053a11cb621455a36661399ee9a4c10bbb5f2695ff78048",
                580, "8e5e54ad638f0f3eed8fee932d6423e55a5d8f99ff9a562bf6b7fa0e8aa28743",
            ),
            "eval": (
                32, "3f479be6651e65aa785937feef66f5479909431837de525bb25609d336d51623",
                130, "6e39e21d16397612295ac1a762c7de28e71f7f7eff3783c3100803e41c888b30",
            ),
        }


class TestCheckVocab:
    VOCAB = tk.VocabSpec(positions=9, depart_bins=24, speed_bins=120, users=2, max_timestep=4)

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
        # the first bad step is named: a last position of 9 is first read as step 0's destination
        column = dict(positions="destination 9", users="user 2", depart_bins="depart 24", speed_bins="speed 120", max_timestep="timestep 4")
        with pytest.raises(tk.EncodingError, match=f"^trajectory 7: {column[field]} outside vocabulary of "):
            tk.check_vocab([traj], self.VOCAB)

    @pytest.mark.parametrize("value", [2**64, -(2**64), 2**63])
    @pytest.mark.parametrize("field", ["position", "user", "depart", "speed"])
    def test_index_outside_int64_named(self, field, value):
        # an index past int64 used to escape as numpy's OverflowError; now the trip rejects it when made
        positions = [0, value] if field == "position" else [0, 1]
        context = {field: value} if field != "position" else {}
        if field == "position":
            rule = f"positions must be a list of two or more integers in [0, 2**63), got {positions}"
        else:
            rule = f"{TRIP_FIELDS[field]} must be in [0, 2**63), got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            make_traj(positions, [5], traj_id=7, **context)

    @pytest.mark.parametrize(
        "field, value", [("user", 1.7), ("depart", True), ("speed", 2.9), ("position", 1.0), ("action", 5.0), ("user", np.float64(2.0))]
    )
    def test_non_integer_named_not_truncated(self, field, value):
        # numpy's int64 cast used to read user 1.7 as 1, True as 1, 2.9 as 2 and accept position 1.0; now the trip rejects it when made
        positions = [0, value, 2] if field == "position" else [0, 1, 2]
        actions = [5, value] if field == "action" else [5, 5]
        context = {field: value} if field in ("user", "depart", "speed") else {}
        if field == "position":
            rule = f"positions must be a list of two or more integers in [0, 2**63), got {positions!r}"
        elif field == "action":
            rule = f"actions must be a list of one integer in [0, 9) per move, got {actions!r}"
        else:
            rule = f"{TRIP_FIELDS[field]} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            make_traj(positions, actions, traj_id=7, **context)

    def test_fields_named_in_field_order(self):
        # a trip names its first bad field: its positions before its actions
        with pytest.raises(ValueError, match=r"^actions must be a list of one integer in \[0, 9\) per move, got \[9\]$"):
            make_traj([0, 1], [9], traj_id=7)
        with pytest.raises(ValueError, match=rf"^positions must be .*, got \[0, {2**64}\]$"):
            make_traj([0, 2**64], [9], traj_id=3)

    def test_trip_of_first_bad_step_named_and_table_returned(self):
        trips = [make_traj([0, 1, 2], [5, 5], traj_id=3), make_traj([0, 1], [5], user=2, traj_id=7), make_traj([0, 1], [5], depart=24, traj_id=9)]
        with pytest.raises(tk.EncodingError, match="^trajectory 7: user 2 outside vocabulary of 2$"):
            tk.check_vocab(trips, self.VOCAB)
        with pytest.raises(tk.EncodingError, match="^trajectory 9: depart 24 outside vocabulary of 24$"):
            tk.check_vocab([trips[0], trips[2]], self.VOCAB)
        table, want = tk.check_vocab(trips[:1], self.VOCAB), tk.encode_trips(trips[:1])
        for name in FIELDS:
            assert np.array_equal(getattr(table, name), getattr(want, name))


@st.composite
def vocab_columns(draw):
    """A random vocabulary and index columns in random order, each value in [-3, size + 3) of its table."""
    vocab = tk.VocabSpec(*(draw(st.integers(1, 6)) for _ in range(5)))
    names = draw(st.lists(st.sampled_from([*tk.COLUMN_TABLES, "action"]), min_size=1, unique=True))
    rows = draw(st.integers(0, 6))
    columns = {}
    for name in names:
        size = ng.N_ACTIONS if name == "action" else getattr(vocab, tk.COLUMN_TABLES[name])
        columns[name] = np.array(draw(st.lists(st.integers(-3, size + 2), min_size=rows, max_size=rows)), dtype=np.int64)
    return vocab, columns


class TestCheckColumns:
    @given(vocab_columns())
    @example((tk.VocabSpec(3, 1, 1, 1, 1), {"user": np.array([0, -1]), "position": np.array([0, 3])}))
    # indices past int64, which used to escape as numpy's OverflowError; an earlier bad row is still named first
    @example((tk.VocabSpec(3, 2, 2, 2, 2), {"position": [0, 1, 2], "user": [0, 2**64, 0]}))
    @example((tk.VocabSpec(3, 2, 2, 2, 2), {"position": [3, 1], "user": [0, -(2**64)]}))
    @example((tk.VocabSpec(3, 2, 2, 2, 2), {"action": [0, 9], "user": [0, 2**63]}))
    def test_first_bad_row_then_column_named_property(self, case):
        vocab, columns = case
        size = {name: ng.N_ACTIONS if name == "action" else getattr(vocab, tk.COLUMN_TABLES[name]) for name in columns}
        rows = len(next(iter(columns.values())))
        bad = [(row, name) for row in range(rows) for name in columns if not 0 <= columns[name][row] < size[name]]
        if not bad:
            tk.check_columns(vocab, columns, lambda row: f"at {row}")
            return
        row, name = bad[0]
        value = columns[name][row]
        if name == "action":
            error, message = ValueError, rf"^at {row}: action {value} outside \[0, 9\)$"
        else:
            error, message = tk.EncodingError, f"^at {row}: {name} {value} outside vocabulary of {size[name]}$"
        with pytest.raises(error, match=message) as info:
            tk.check_columns(vocab, columns, lambda row: f"at {row}")
        assert type(info.value) is error


    @pytest.mark.parametrize(
        "columns, error, message",
        [
            (dict(position=[0, 5], user=[0, 1.5]), tk.EncodingError, "at 1: position 5 outside vocabulary of 3"),
            (dict(position=[0, 1], user=[0, 1.5]), tk.EncodingError, "at 1: user 1.5 is not an integer"),
            (dict(position=np.array([0, 1]), user=np.array([0.0, 1.0])), tk.EncodingError, "at 0: user 0.0 is not an integer"),
            (dict(user=[0, True], action=[9, 0]), ValueError, "at 0: action 9 outside [0, 9)"),
            (dict(user=np.array([True, False])), tk.EncodingError, "at 0: user True is not an integer"),
            (dict(position=[0, 2**64], user=[0.5, 0]), tk.EncodingError, "at 0: user 0.5 is not an integer"),
            (dict(action=[1.0]), tk.EncodingError, "at 0: action 1.0 is not an integer"),
        ],
    )
    def test_non_integer_named_in_row_then_column_order(self, columns, error, message):
        # the intp cast used to truncate 1.5 and read True as 1
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            tk.check_columns(tk.VocabSpec(3, 2, 2, 2, 2), columns, lambda row: f"at {row}")
        assert type(info.value) is error


class TestVocabSizes:
    def test_grid_counts(self):
        net = ng.GridNetwork(ng.GridSpec(5, 5))
        spec = tk.vocab_sizes(net, sg.SynthConfig(users=20, max_len=50))
        assert spec.positions == 25
        assert spec.depart_bins == 24
        assert spec.speed_bins == 120
        assert spec.users == 20
        assert spec.max_timestep == 51

    def test_users_required(self):
        # the config rejects itself when made; vocab_sizes used to raise an EncodingError about the vocabulary
        with pytest.raises(sg.ConfigError, match="^users must be >= 1, got 0$"):
            sg.SynthConfig(users=0)

    @pytest.mark.parametrize("value", [0, -1, 2.5, None, True])
    @pytest.mark.parametrize("field", ["positions", "depart_bins", "speed_bins", "users", "max_timestep"])
    def test_bad_size_rejected_when_made(self, field, value):
        # a negative size used to reach the models and fail inside numpy, 0 built an empty table, and
        # True, an int to isinstance, was taken as 1
        sizes = {**dict(positions=9, depart_bins=3, speed_bins=3, users=2, max_timestep=5), field: value}
        rule = ">= 1" if value in (0, -1) else "an integer"
        with pytest.raises(tk.EncodingError, match=f"^{field} must be {rule}, got {value!r}$"):
            tk.VocabSpec(**sizes)

    def test_from_synth_config(self):
        cfg = sg.SynthConfig(width=4, height=3, users=7, max_len=20)
        net = ng.GridNetwork(ng.GridSpec(4, 3))
        spec = tk.vocab_sizes(net, cfg)
        assert spec.positions == 12
        assert spec.users == 7
        assert spec.max_timestep == 21
