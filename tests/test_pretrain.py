import math

import numpy as np
import pytest

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
    mcfg = tm.ModelConfig(vocab=vocab, d_model=d, n_layers=layers, n_heads=2, context=12, dropout=dropout)
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
                positions.append(ng.apply_action(net, positions[-1], a))
            if positions[-1] == positions[0]:
                continue
            trajs.append(sg.Trajectory(tid, 0, 0, 0, positions, actions, "complete"))
        dataset = sg.Dataset(net, trajs, 1)
        dataset.eval_idx = list(range(len(trajs)))
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=1, max_len=12))
        model = tm.PolicyModel(tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, context=12, dropout=0.0))
        for _, t in model.parameters():
            t.data = np.zeros_like(t.data)
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
        windows = pt.build_windows(dataset.eval(), model.cfg.context)
        recorded = tm.forward_batch(windows, model).logits.data
        actions = np.concatenate([w.action[w.decision_mask] for w in windows])
        assert scores[1] == np.mean(recorded.argmax(axis=1) == actions)
        assert scores[0] == pytest.approx(float(nc.cross_entropy(nc.Tensor(recorded), actions).data), rel=1e-12)

    def test_side_effect_free_and_deterministic(self):
        dataset, model, _, _ = tiny_setup()
        before = model.params_hash()
        a = pt.eval_policy(dataset, model)
        b = pt.eval_policy(dataset, model)
        assert a == b
        assert model.params_hash() == before


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


class TestPretrain:
    def test_overlong_ingested_trace_rejected_by_name(self, tmp_path):
        # ingested without splitting, the zig-zag is one 61-position trajectory,
        # longer than max_len 50 lets the model embed
        path = write_zigzag(tmp_path)
        dataset, _ = sg.ingest_csv(path, ng.GridSpec(4, 4), ZIGZAG_BBOX, max_moves=60)
        assert [len(t.positions) for t in dataset.trajectories] == [61]
        vocab = tk.vocab_sizes(dataset.net, sg.SynthConfig(users=1))
        model = tm.PolicyModel(tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, context=12, dropout=0.0))
        with pytest.raises(tk.EncodingError, match="trajectory 0: max_timestep index 60"):
            pt.pretrain(dataset, model, pt.TrainConfig(epochs=1))

    def test_long_ingested_trace_split_and_trained(self, tmp_path):
        path = write_zigzag(tmp_path)
        dataset, stats = sg.ingest_csv(path, ng.GridSpec(4, 4), ZIGZAG_BBOX)
        vocab = tk.vocab_sizes(dataset.net, sg.SynthConfig(users=1))
        model = tm.PolicyModel(tm.ModelConfig(vocab=vocab, d_model=8, n_layers=1, n_heads=1, context=12, dropout=0.0))
        _, log = pt.pretrain(dataset, model, pt.TrainConfig(epochs=1))
        assert len(log.rows) == 1 and math.isfinite(log.rows[0].train_nll)
        max_moves = sg.SynthConfig().max_len
        assert [len(t.actions) for t in dataset.trajectories] == [max_moves, 60 - max_moves]
        assert stats.trajectories == 2
        first, second = dataset.trajectories
        # the parts share their boundary cell, so no move is lost
        assert first.positions + second.positions[1:] == [i % 2 for i in range(61)]

    def test_zero_lr_leaves_eval_loss_unchanged(self):
        dataset, model, _, _ = tiny_setup()
        cfg = pt.TrainConfig(epochs=3, batch_size=8, lr=0.0, weight_decay=0.0, seed=1)
        _, log = pt.pretrain(dataset, model, cfg)
        evals = {row.eval_nll for row in log.rows}
        assert len(evals) == 1

    def test_memorizes_single_trajectory(self):
        net = ng.GridNetwork(ng.GridSpec(5, 5))
        prefs = sg.PreferenceParams(np.array([[8.0, 0.0, -1.0]]))
        traj = sg.gen_trajectory(4, (0, 24), 0, prefs, net, 12)
        dataset = sg.Dataset(net, [traj] * 64, 1)
        dataset.train_idx = list(range(64))
        vocab = tk.vocab_sizes(net, sg.SynthConfig(users=1, max_len=12))
        mcfg = tm.ModelConfig(vocab=vocab, d_model=64, n_layers=2, n_heads=4, context=12, dropout=0.0)
        model = tm.PolicyModel(mcfg, rng=make_rng(2))
        cfg = pt.TrainConfig(epochs=200, batch_size=64, lr=1e-3, weight_decay=0.0, seed=2, target_train_nll=0.005)
        model, log = pt.pretrain(dataset, model, cfg)
        assert min(row.train_nll for row in log.rows) < 0.01
        # a model trained on a progress-seeking route makes the direct move greedily
        direct = tm.generate(
            tm.GenerationContext(traj.positions[0], traj.positions[1], traj.depart_bin, traj.speed_bin, 0, max_len=11, temperature=0.0),
            model,
            net,
        )
        assert direct.positions[1] == traj.positions[1]

    def test_frozen_batch_descent_property(self):
        dataset, model, _, _ = tiny_setup(d=16)
        windows = pt.build_windows(dataset.train(), model.cfg.context)[:8]
        from trajforge import numcore as nc

        opt = nc.adamw_init([p.data for p in model.param_tensors()], 1e-3, 0.0)
        losses = []
        for _ in range(10):
            loss = pt.supervised_loss(model, windows)
            losses.append(float(loss.data))
            pt.apply_step(model, loss, opt, grad_clip=1.0)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_shuffle_pure_function_of_seed_epoch(self):
        a = pt.batch_order(3, 7, 100)
        b = pt.batch_order(3, 7, 100)
        c = pt.batch_order(3, 8, 100)
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
        windows = pt.build_windows(dataset.train(), model.cfg.context)[:4]
        from trajforge import numcore as nc

        loss = pt.supervised_loss(model, windows)
        loss.data = np.float64("nan")
        opt = nc.adamw_init([p.data for p in model.param_tensors()], 1e-3, 0.0)
        with pytest.raises(pt.TrainingDivergenceError):
            pt.apply_step(model, loss, opt, 1.0)

    def test_logged_grad_norm_is_the_epoch_mean_before_clipping(self, tmp_path):
        dataset, model, _, _ = tiny_setup(seed=4, d=8, dropout=0.1)
        replay = model.copy()
        cfg = pt.TrainConfig(epochs=1, batch_size=8, seed=4, grad_clip=0.05)
        _, log = pt.pretrain(dataset, model, cfg)
        from trajforge import numcore as nc

        windows = pt.build_windows(dataset.train(), replay.cfg.context)
        opt = nc.adamw_init([p.data for p in replay.param_tensors()], cfg.lr, cfg.weight_decay)
        norms = []
        order = pt.batch_order(cfg.seed, 0, len(windows))
        for i in range(0, len(order), cfg.batch_size):
            batch = [windows[j] for j in order[i : i + cfg.batch_size]]
            nc.backward(pt.supervised_loss(replay, batch, make_rng(cfg.seed, "dropout", 0, i)))
            norms.append(math.sqrt(sum(float((p.grad**2).sum()) for p in replay.param_tensors())))
            # backward consumed that graph: the step rebuilds the same loss (same dropout stream)
            pt.apply_step(replay, pt.supervised_loss(replay, batch, make_rng(cfg.seed, "dropout", 0, i)), opt, cfg.grad_clip)
        assert max(norms) > cfg.grad_clip  # clipping was active, and the log holds the norms before it
        assert log.rows[0].grad_norm == pytest.approx(np.mean(norms), rel=1e-12)
        log.write_csv(tmp_path / "log.csv")
        header, row = (tmp_path / "log.csv").read_text().splitlines()
        assert header.split(",")[2] == "grad_norm"
        assert float(row.split(",")[2]) == log.rows[0].grad_norm

    def test_each_trip_encoded_once_and_eval_scores_unchanged(self, monkeypatch):
        dataset, model, _, _ = tiny_setup(seed=2, d=8)
        encoded, encode = [], pt.encode_episode
        monkeypatch.setattr(pt, "encode_episode", lambda traj: encoded.append(traj.traj_id) or encode(traj))
        model, log = pt.pretrain(dataset, model, pt.TrainConfig(epochs=3, batch_size=8, seed=2, patience=3))
        assert len(log.rows) == 3
        assert sorted(encoded) == sorted(t.traj_id for t in dataset.train() + dataset.eval())
        # the returned model holds the best epoch's parameters; eval_policy re-encodes and scores them alike
        best = min(log.rows, key=lambda r: r.eval_nll)
        assert pt.eval_policy(dataset, model) == (best.eval_nll, best.eval_acc)

    def test_dropout_training_still_deterministic(self):
        hashes = []
        for _ in range(2):
            dataset, model, _, _ = tiny_setup(seed=13, d=8, dropout=0.1)
            cfg = pt.TrainConfig(epochs=2, batch_size=8, lr=5e-4, weight_decay=0.0, seed=13)
            model, _ = pt.pretrain(dataset, model, cfg)
            hashes.append(model.params_hash())
        assert hashes[0] == hashes[1]
