import dataclasses
import math

import numpy as np
import pytest
from helpers import oracle_trip

from trajforge import netgrid as ng
from trajforge import numcore as nc
from trajforge import pretrain as pt
from trajforge import synthgen as sg
from trajforge import tokenizer as tk
from trajforge import trajmodel as tm
from trajforge.numcore import make_rng


def tiny_setup(seed=0, users=2, n_traj=24, grid=4, d=16, layers=1, dropout=0.0):
    cfg = sg.SynthConfig(width=grid, height=grid, users=users, n_trajectories=n_traj, seed=seed, max_len=12)
    dataset, prefs = sg.gen_dataset(cfg)
    dataset = sg.split(dataset, 0.25, seed=seed)
    vocab = tk.vocab_sizes(dataset.net, cfg)
    mcfg = tm.ModelConfig(vocab=vocab, d_model=d, n_layers=layers, n_heads=2, dropout=dropout)
    model = tm.PolicyModel(mcfg, rng=make_rng(seed))
    return dataset, model, prefs, cfg


ZIGZAG_BBOX = (116.0, 39.0, 116.4, 39.4)


def write_zigzag(tmp_path):
    """61 fixes 10 minutes apart, zig-zagging between two adjacent cells of a 4x4 grid over ZIGZAG_BBOX."""
    path = tmp_path / "zigzag.csv"
    path.write_text("".join(f"v1,{1201957200 + 600 * i},{116.05 + 0.1 * (i % 2)},39.05\n" for i in range(61)))
    return path


class TestEvalPolicy:
    def test_uniform_model_ln9_and_chance_accuracy(self):
        # interior-only random walks: every decision has all 9 actions feasible
        net = ng.GridNetwork(ng.GridSpec(11, 11))
        rng = make_rng(55)
        trajs = []
        center = net.cell_of(5, 5)
        for tid in range(400):
            positions = [center]
            actions = []
            for _ in range(4):
                a = int(rng.integers(0, 9))
                actions.append(a)
                positions.append(int(net.succ[positions[-1], a]))
            if positions[-1] == positions[0]:
                continue
            trajs.append(sg.Trajectory(tid, 0, 0, 0, positions, actions, "complete"))
        dataset = sg.Dataset(net, trajs, 1)
        dataset.eval_idx = list(range(len(trajs)))
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=1, max_len=12))
        model = tm.PolicyModel(tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, dropout=0.0))
        model.vector[:] = 0.0
        nll, acc = pt.eval_policy(dataset, model)
        assert nll == pytest.approx(math.log(9), abs=1e-12)
        assert acc == pytest.approx(1 / 9, abs=0.03)

    def test_scores_without_a_graph(self, monkeypatch):
        dataset, model, _, _ = tiny_setup()
        outs, forward = [], tm.forward_batch
        monkeypatch.setattr(tm, "forward_batch", lambda *a, **k: outs.append(forward(*a, **k)) or outs[-1])
        scores = pt.eval_policy(dataset, model)
        assert outs and all(o.logits._parents == () and o.logits._bwd is None for o in outs)
        monkeypatch.undo()
        recorded = tm.forward_batch(dataset.eval(), model).logits.data
        actions = np.concatenate([t.actions for t in dataset.eval()])
        assert scores[1] == np.mean(recorded.argmax(axis=1) == actions)
        assert scores[0] == pytest.approx(float(nc.cross_entropy(nc.Tensor(recorded), actions).data), rel=1e-12)

    def test_side_effect_free_and_deterministic(self):
        dataset, model, _, _ = tiny_setup()
        before = model.params_hash()
        a = pt.eval_policy(dataset, model)
        b = pt.eval_policy(dataset, model)
        assert a == b
        assert model.params_hash() == before


    def test_scores_in_chunks_as_one_pass(self, monkeypatch):
        dataset, model, _, _ = tiny_setup(d=8)
        assert len(dataset.eval()) > 3
        whole = pt.score_trips(dataset.eval(), model)
        monkeypatch.setattr(pt, "EVAL_CHUNK", 3)
        chunked = pt.score_trips(dataset.eval(), model)
        assert chunked[1] == whole[1]
        assert chunked[0] == pytest.approx(whole[0], rel=1e-12)

    def test_empty_eval_split_rejected(self):
        dataset, model, _, _ = tiny_setup()
        no_eval = sg.Dataset(dataset.net, dataset.trajectories, dataset.user_count, train_idx=dataset.train_idx)
        with pytest.raises(ValueError, match="^no trips to score$"):
            pt.eval_policy(no_eval, model)

    def test_eval_user_outside_vocabulary_rejected_by_name(self):
        dataset, model, _, _ = tiny_setup(users=2)
        bad = dataclasses.replace(dataset.trajectories[dataset.eval_idx[0]], user_id=2)
        dataset.trajectories[dataset.eval_idx[0]] = bad
        with pytest.raises(tk.EncodingError, match=f"^trajectory {bad.traj_id}: user 2 outside vocabulary of 2$"):
            pt.eval_policy(dataset, model)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("batch_size", 0), ("lr", -1e-3), ("weight_decay", -0.1), ("grad_clip", 0.0), ("grad_clip", -1.0), ("patience", -1)],
    )
    def test_out_of_range_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            pt.TrainConfig(**{field: value})

    def test_bounds_themselves_accepted(self):
        pt.TrainConfig(epochs=1, batch_size=1, lr=0.0, weight_decay=0.0, grad_clip=1e-9, patience=0)

    @pytest.mark.parametrize("field, value", [("epochs", 1.5), ("batch_size", True), ("patience", 2.0), ("seed", 0.5)])
    def test_int_field_holding_bool_or_fraction_rejected_by_name(self, field, value):
        # epochs 1.5 used to fail later as a bare TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            pt.TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("lr", "0.1"), ("lr", math.inf), ("weight_decay", math.inf)])
    def test_float_field_holding_non_number_or_non_finite_rejected_by_name(self, field, value):
        # lr "0.1" used to raise a bare TypeError from its bound; lr or weight_decay inf was accepted,
        # and pretrain then raised "non-finite values in action logits" from inside forward_batch
        with pytest.raises(ValueError, match=f"^{field} must be a finite real number, got {value!r}$"):
            pt.TrainConfig(**{field: value})

    def test_numpy_integer_fields_accepted(self):
        pt.TrainConfig(epochs=np.int64(2), batch_size=np.int32(8), seed=np.int64(3), patience=np.int64(0))


class TestPretrain:
    def test_eval_split_alone_not_trained_on(self):
        dataset, model, _, _ = tiny_setup()
        only_eval = sg.Dataset(dataset.net, dataset.trajectories[:6], dataset.user_count, train_idx=[], eval_idx=[0, 1])
        with pytest.raises(ValueError, match="^empty training split$"):
            pt.pretrain(only_eval, model, pt.TrainConfig(epochs=1))

    def test_overlong_ingested_trace_rejected_by_name(self, tmp_path):
        # ingested without splitting, the zig-zag is one 61-position trajectory,
        # longer than max_len 50 lets the model embed
        path = write_zigzag(tmp_path)
        dataset, _ = sg.ingest_csv(path, ng.GridSpec(4, 4), sg.IngestConfig(*ZIGZAG_BBOX, max_moves=60))
        assert [len(t.positions) for t in dataset.trajectories] == [61]
        vocab = tk.vocab_sizes(dataset.net, sg.SynthConfig(users=1))
        model = tm.PolicyModel(tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, dropout=0.0))
        with pytest.raises(tk.EncodingError, match="^trajectory 0: timestep 51 outside vocabulary of 51$"):
            pt.pretrain(dataset, model, pt.TrainConfig(epochs=1))

    def test_seed_past_128_bits_named(self):
        # int.to_bytes used to escape as a bare OverflowError
        dataset, model, _, _ = tiny_setup()
        with pytest.raises(ValueError, match=f"^rng key part {2**127} is outside the signed 128-bit range$"):
            pt.pretrain(dataset, model, pt.TrainConfig(epochs=1, seed=2**127))

    @pytest.mark.parametrize("value", [2**64, -(2**64)])
    def test_user_outside_int64_rejected_by_name(self, value):
        # an index past int64 used to escape as numpy's OverflowError; now the trip rejects it when made,
        # before pretrain or forward_batch can meet it
        dataset, _, _, _ = tiny_setup(users=2)
        with pytest.raises(ValueError, match=rf"^user_id must be in \[0, 2\*\*63\), got {value}$"):
            dataclasses.replace(dataset.trajectories[dataset.train_idx[1]], user_id=value)

    def test_long_ingested_trace_split_and_trained(self, tmp_path):
        path = write_zigzag(tmp_path)
        dataset, stats = sg.ingest_csv(path, ng.GridSpec(4, 4), sg.IngestConfig(*ZIGZAG_BBOX))
        vocab = tk.vocab_sizes(dataset.net, sg.SynthConfig(users=1))
        model = tm.PolicyModel(tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, dropout=0.0))
        _, log = pt.pretrain(dataset, model, pt.TrainConfig(epochs=1))
        assert len(log.rows) == 1 and math.isfinite(log.rows[0].train_nll)
        max_moves = sg.SynthConfig().max_len
        assert [len(t.actions) for t in dataset.trajectories] == [max_moves, 60 - max_moves]
        assert stats.trajectories == 2
        first, second = dataset.trajectories
        # the parts share their boundary cell, so no move is lost
        assert first.positions + second.positions[1:] == tuple(i % 2 for i in range(61))

    @pytest.mark.parametrize("run", ["early-stopped", "no-eval-split"])
    def test_gradients_kept_between_steps_and_released_at_the_end(self, run, monkeypatch):
        # each step finds the last one's gradients (a release per step would make the allocator
        # return and re-fault them every step); the returned model holds only its parameters
        dataset, model, _, _ = tiny_setup()
        if run == "early-stopped":  # lr 0 keeps the eval loss, so with patience 0 the second epoch stops
            cfg = pt.TrainConfig(epochs=4, batch_size=8, lr=0.0, weight_decay=0.0, seed=1, patience=0)
        else:
            cfg = pt.TrainConfig(epochs=4, batch_size=8, seed=1)
            dataset = sg.Dataset(dataset.net, dataset.trajectories, dataset.user_count, train_idx=dataset.train_idx)
        held, apply_step = [], pt.apply_step

        def step(m, loss, opt, clip):
            held.append([t.grad is not None for t in m.param_tensors()])
            return apply_step(m, loss, opt, clip)

        monkeypatch.setattr(pt, "apply_step", step)
        returned, log = pt.pretrain(dataset, model, cfg)
        assert len(log.rows) == (2 if run == "early-stopped" else 4)
        assert not any(held[0]) and len(held) > 2 and all(all(h) for h in held[1:])
        assert returned is model and [name for name, t in model.parameters() if t.grad is not None] == []

    def test_zero_lr_leaves_eval_loss_unchanged(self):
        dataset, model, _, _ = tiny_setup()
        cfg = pt.TrainConfig(epochs=3, batch_size=8, lr=0.0, weight_decay=0.0, seed=1)
        _, log = pt.pretrain(dataset, model, cfg)
        evals = {row.eval_nll for row in log.rows}
        assert len(evals) == 1

    def test_memorizes_single_trajectory(self):
        net = ng.GridNetwork(ng.GridSpec(5, 5))
        prefs = sg.PreferenceParams(np.array([[8.0, 0.0, -1.0]]))
        traj = oracle_trip(4, (0, 24), 0, prefs, net, 12)
        dataset = sg.Dataset(net, [traj] * 64, 1)
        dataset.train_idx = list(range(64))
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=1, max_len=12))
        mcfg = tm.ModelConfig(vocab=vocab, d_model=64, n_layers=2, n_heads=4, dropout=0.0)
        model = tm.PolicyModel(mcfg, rng=make_rng(2))
        cfg = pt.TrainConfig(epochs=80, batch_size=64, lr=1e-3, weight_decay=0.0, seed=2)
        model, log = pt.pretrain(dataset, model, cfg)
        assert min(row.train_nll for row in log.rows) < 0.01
        # a model trained on a progress-seeking route makes the direct move greedily
        direct = tm.generate_scored(
            tm.GenerationContext(traj.positions[0], traj.positions[1], traj.depart_bin, traj.speed_bin, 0, max_len=11, temperature=0.0),
            model,
            net,
        ).trajectory
        assert direct.positions[1] == traj.positions[1]

    def test_frozen_batch_descent_property(self):
        dataset, model, _, _ = tiny_setup(d=16)
        trips = dataset.train()[:8]
        from trajforge import numcore as nc

        opt = nc.adamw_init(model.vector, 1e-3, 0.0)
        losses = []
        for _ in range(10):
            loss = pt.supervised_loss(model, trips)
            losses.append(float(loss.data))
            pt.apply_step(model, loss, opt, grad_clip=1.0)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_shuffle_pure_function_of_seed_epoch(self):
        a = pt.batch_order(3, "shuffle", 7, 100)
        b = pt.batch_order(3, "shuffle", 7, 100)
        c = pt.batch_order(3, "shuffle", 8, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_deterministic_end_to_end(self):
        results = []
        for _ in range(2):
            dataset, model, _, _ = tiny_setup(seed=9, d=8)
            cfg = pt.TrainConfig(epochs=2, batch_size=8, lr=5e-4, weight_decay=0.05, seed=9)
            model, log = pt.pretrain(dataset, model, cfg)
            results.append((model.params_hash(), [r.train_nll for r in log.rows]))
        assert results[0] == results[1]

    def test_divergence_aborts(self):
        dataset, model, _, _ = tiny_setup(d=8)
        trips = dataset.train()[:4]
        from trajforge import numcore as nc

        loss = pt.supervised_loss(model, trips)
        loss.data = np.float64("nan")
        opt = nc.adamw_init(model.vector, 1e-3, 0.0)
        with pytest.raises(pt.TrainingDivergenceError):
            pt.apply_step(model, loss, opt, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_aborts_before_the_step(self, bad):
        # an inf gradient was clipped by a scale of 0 into NaN, which AdamW wrote into the parameters
        _, model, _, _ = tiny_setup(d=8)
        params = model.param_tensors()

        def bwd(g):
            for p in params:
                p.grad = np.zeros_like(p.data)
            params[0].grad[0, 0] = bad

        loss = nc.Tensor(1.0, tuple(params), bwd)
        before = model.vector.copy()
        opt = nc.adamw_init(model.vector, 1e-3, 0.05)
        with pytest.raises(pt.TrainingDivergenceError, match=f"^non-finite gradient norm {bad}$"):
            pt.apply_step(model, loss, opt, 1.0)
        assert model.vector.tobytes() == before.tobytes() and opt.step == 0

    def test_logged_grad_norm_is_the_epoch_mean_before_clipping(self):
        dataset, model, _, _ = tiny_setup(seed=4, d=8, dropout=0.1)
        replay = model.copy()
        cfg = pt.TrainConfig(epochs=1, batch_size=8, seed=4, grad_clip=0.05)
        _, log = pt.pretrain(dataset, model, cfg)
        from trajforge import numcore as nc

        trips = dataset.train()
        opt = nc.adamw_init(replay.vector, cfg.lr, cfg.weight_decay)
        norms = []
        order = pt.batch_order(cfg.seed, "shuffle", 0, len(trips))
        for i in range(0, len(order), cfg.batch_size):
            batch = [trips[j] for j in order[i : i + cfg.batch_size]]
            nc.backward(pt.supervised_loss(replay, batch, make_rng(cfg.seed, "dropout", 0, i)))
            norms.append(math.sqrt(sum(float((p.grad**2).sum()) for p in replay.param_tensors())))
            # backward consumed that graph: the step rebuilds the same loss (same dropout stream)
            pt.apply_step(replay, pt.supervised_loss(replay, batch, make_rng(cfg.seed, "dropout", 0, i)), opt, cfg.grad_clip)
        assert max(norms) > cfg.grad_clip  # clipping was active, and the log holds the norms before it
        assert log.rows[0].grad_norm == pytest.approx(np.mean(norms), rel=1e-12)

    def test_splits_checked_first_then_each_batch_encoded_and_eval_scores_unchanged(self, monkeypatch):
        dataset, model, _, _ = tiny_setup(seed=2, d=8)
        encoded, encode = [], tk.encode_trips
        monkeypatch.setattr(tk, "encode_trips", lambda trajs: encoded.append([t.traj_id for t in trajs]) or encode(trajs))
        cfg = pt.TrainConfig(epochs=3, batch_size=8, seed=2, patience=3)
        model, log = pt.pretrain(dataset, model, cfg)
        assert len(log.rows) == 3
        # both splits once, before the first step; then each batch in its epoch's order, and the eval split after each epoch
        train_ids, eval_ids = [t.traj_id for t in dataset.train()], [t.traj_id for t in dataset.eval()]
        want = [train_ids, eval_ids]
        for epoch in range(cfg.epochs):
            order = pt.batch_order(cfg.seed, "shuffle", epoch, len(train_ids))
            want += [[train_ids[j] for j in order[i : i + cfg.batch_size]] for i in range(0, len(order), cfg.batch_size)]
            want.append(eval_ids)
        assert encoded == want
        # the returned model holds the best epoch's parameters; eval_policy re-encodes and scores them alike
        best = min(log.rows, key=lambda r: r.eval_nll)
        assert pt.eval_policy(dataset, model) == (best.eval_nll, best.parts["eval_acc"])

    def test_step_graph_node_count_pinned(self):
        # one node for the token embedding (not 8 gathers and 7 adds) and one attention node per layer:
        # a change that splits them again changes the count
        dataset, model, _, _ = tiny_setup(seed=3, d=16, dropout=0.1)
        loss = pt.supervised_loss(model, dataset.train()[:8], make_rng(3, "dropout", 0, 0))
        assert len(nc.backward(loss).nodes) == 46

    def test_trained_bytes_pinned(self):
        # a tiny seeded run with dropout: its parameters and each epoch's loss, to the last bit. The
        # matmuls here stay below BLAS's threading size, so the pin holds at any BLAS thread count;
        # at larger sizes the bits still depend on it (ROADMAP Known defects, direction 17)
        dataset, model, _, _ = tiny_setup(seed=3, d=16, dropout=0.1)
        model, log = pt.pretrain(dataset, model, pt.TrainConfig(epochs=2, batch_size=8, seed=3))
        assert model.params_hash().hex() == "df28331b49ec6fec92fa4fadf1e1ef4a3a3634c2082343d9ccd5b2b89c4046ab"
        assert [repr(row.train_nll) for row in log.rows] == ["2.19997187445234", "2.183818692062179"]
        assert [repr(row.eval_nll) for row in log.rows] == ["2.1856529206603814", "2.1820830372752282"]

    def test_dropout_training_still_deterministic(self):
        hashes = []
        for _ in range(2):
            dataset, model, _, _ = tiny_setup(seed=13, d=8, dropout=0.1)
            cfg = pt.TrainConfig(epochs=2, batch_size=8, lr=5e-4, weight_decay=0.0, seed=13)
            model, _ = pt.pretrain(dataset, model, cfg)
            hashes.append(model.params_hash())
        assert hashes[0] == hashes[1]
