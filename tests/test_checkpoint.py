import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajforge import checkpoint as ck
from trajforge import netgrid as ng
from trajforge import pretrain as pt
from trajforge import rewardirl as ri
from trajforge import synthgen as sg
from trajforge import tokenizer as tk
from trajforge import trajmodel as tm
from trajforge.numcore import make_rng

DATA = Path(__file__).parent / "data"

# The tiny models of tests/data: checkpoint format version 1, written before the policy and the
# critic shared `checkpoint.ParamModel`, and re-written when the return-to-go token was dropped
# (the policy lost `emb_rtg`, both vocabularies lost `rtg`; the critic's blob kept its bytes), and
# the policy's again when its window length became the vocabulary's `max_timestep` (its config
# lost `context`; blob and meta kept their bytes), and both again when the action table's size
# became the constant `N_ACTIONS + 1` (both vocabularies lost `actions`; blobs and meta kept their bytes).
# Their params_hash (sha256 over names and <f8 bytes):
PINNED_HASH = {
    "policy": "345721fe8033b0a876e775d9bf16335d1377b978a39872f667a62b8df234de96",
    "critic": "d418b5adba42a091113d25f40f95d7f07e55444c81c21fcf30198e5796ee41f7",
}

LAYER_KEYS = ("ln1_gain", "ln1_bias", "wq", "wk", "wv", "wo", "ln2_gain", "ln2_bias", "ff_w1", "ff_b1", "ff_w2", "ff_b2")


def tiny_net_vocab():
    net = ng.GridNetwork(ng.GridSpec(3, 3))
    return net, tk.vocab_sizes(net, sg.SynthConfig(width=3, height=3, users=2, max_len=4, depart_bins=3, speed_bins=3))


def tiny_model(kind, n_layers=1):
    """The fixture model of `kind`, rebuilt from its seed, and a loader for its checkpoints."""
    net, vocab = tiny_net_vocab()
    if kind == "policy":
        cfg = tm.ModelConfig(vocab, d_model=8, n_layers=n_layers, n_heads=2)
        return tm.PolicyModel(cfg, rng=make_rng(5, "policy-fixture")), lambda path: ck.load(path, tm.PolicyModel)
    critic = ri.CriticModel(ri.CriticConfig(vocab, d=8), net, rng=make_rng(5, "critic-fixture"))
    return critic, lambda path: ck.load(path, ri.CriticModel, None, (net,))


class TestFormatStability:
    @pytest.mark.parametrize("kind", ["policy", "critic"])
    def test_committed_file_round_trips_bytes_and_hash(self, kind, tmp_path):
        fresh, load = tiny_model(kind)
        path = DATA / f"{kind}_tiny.ckpt"
        loaded, meta = load(path)
        assert loaded.params_hash().hex() == PINNED_HASH[kind]
        assert fresh.params_hash() == loaded.params_hash()  # construction order is still the RNG draw order
        out = tmp_path / "again.ckpt"
        loaded.save(out, meta)
        assert out.read_bytes() == path.read_bytes()

    def test_policy_manifest_names(self):
        model, _ = tiny_model("policy", n_layers=2)
        embeddings = ["position", "origin", "destination", "depart", "speed", "user", "action", "timestep"]
        expected = [f"emb_{e}" for e in embeddings] + ["ln_emb_gain", "ln_emb_bias"]
        expected += [f"layer{i}.{key}" for i in range(2) for key in LAYER_KEYS]
        expected += ["ln_f_gain", "ln_f_bias", "head_w", "head_b"]
        assert [name for name, _ in model.parameters()] == expected

    def test_critic_manifest_names(self):
        critic, _ = tiny_model("critic")
        expected = ["emb_link", "emb_origin", "emb_destination", "emb_depart", "emb_user", "w_state", "w_base", "w_pref"]
        assert [name for name, _ in critic.parameters()] == expected


class TestSave:
    def test_numpy_integer_config_round_trips(self, tmp_path):
        # a numpy scalar in the config or meta is written as the Python number it holds
        _, vocab = tiny_net_vocab()
        cfg = tm.ModelConfig(vocab, d_model=np.int64(8), n_heads=2)
        model = tm.PolicyModel(cfg, rng=make_rng(3))
        path = tmp_path / "numpy.ckpt"
        model.save(path, {"epochs": np.int64(2), "nll": np.float64(1.5)})
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["config"]["d_model"] == 8
        loaded, meta = ck.load(path, tm.PolicyModel, vocab)
        assert loaded.cfg == cfg and type(loaded.cfg.d_model) is int
        assert loaded.params_hash() == model.params_hash()
        assert meta == {"epochs": 2, "nll": 1.5}

    def test_failed_save_leaves_no_file(self, tmp_path):
        model, _ = tiny_model("policy")
        path, kept = tmp_path / "new.ckpt", tmp_path / "kept.ckpt"
        model.save(kept)
        before = kept.read_bytes()
        for target in (path, kept):
            with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
                model.save(target, {"note": object()})
        assert not path.exists() and kept.read_bytes() == before


def assert_bound(model):
    """Every parameter's `data` is a view of `model.vector`, which holds them in manifest order."""
    named = model.parameters()
    assert all(np.shares_memory(t.data, model.vector) for _, t in named)
    np.testing.assert_array_equal(model.vector, np.concatenate([t.data.ravel() for _, t in named]))


def tiny_training_setup(seed=0, dropout=0.0):
    """A 24-trip data set on a 4x4 grid with a tiny policy and a tiny critic for it."""
    cfg = sg.SynthConfig(width=4, height=4, users=2, n_trajectories=24, seed=seed, max_len=12)
    dataset, _ = sg.gen_dataset(cfg)
    dataset = sg.split(dataset, 0.25, seed=seed)
    vocab = tk.vocab_sizes(dataset.net, cfg)
    policy = tm.PolicyModel(tm.ModelConfig(vocab, d_model=8, n_layers=1, n_heads=2, dropout=dropout), rng=make_rng(seed))
    critic = ri.CriticModel(ri.CriticConfig(vocab, d=8), dataset.net, rng=make_rng(seed))
    return dataset, policy, critic


class TestParameterVector:
    @pytest.mark.parametrize("kind", ["policy", "critic"])
    def test_bound_at_construction_load_and_copy(self, kind):
        model, load = tiny_model(kind, n_layers=2)
        assert_bound(model)
        loaded, _ = load(DATA / f"{kind}_tiny.ckpt")
        assert_bound(loaded)
        clone = loaded.copy()
        assert_bound(clone)
        assert not np.shares_memory(clone.vector, loaded.vector)
        assert clone.params_hash() == loaded.params_hash()

    def test_bound_after_pretrain_restores_best_epoch(self):
        dataset, policy, _ = tiny_training_setup()
        _, log = pt.pretrain(dataset, policy, pt.TrainConfig(epochs=6, batch_size=8, lr=5e-3, seed=0, patience=6))
        best = min(range(len(log.rows)), key=lambda e: log.rows[e].eval_nll)
        assert best < len(log.rows) - 1  # the restore path ran
        assert_bound(policy)
        assert pt.eval_policy(dataset, policy)[0] == log.rows[best].eval_nll

    def test_bound_after_train_critic(self):
        dataset, _, critic = tiny_training_setup()
        before = critic.vector.copy()
        ri.train_critic(dataset, critic, ri.IRLConfig(epochs=2, batch_size=16, seed=0))
        assert_bound(critic)
        assert not np.array_equal(critic.vector, before)

    @settings(max_examples=5)
    @given(st.integers(0, 2**32 - 1))
    def test_last_ulp_rounding_is_not_amplified_property(self, seed):
        """Parameters moved by -1/0/+1 ulp train to within 1e-12 of the unmoved run, and sample the same trips."""

        def run(perturb):
            dataset, policy, critic = tiny_training_setup(dropout=0.1)
            rng = np.random.default_rng(seed)
            for model in (policy, critic):
                if perturb:
                    model.vector[:] = np.nextafter(model.vector, model.vector + rng.integers(-1, 2, model.vector.size))
            pt.pretrain(dataset, policy, pt.TrainConfig(epochs=3, batch_size=8, lr=5e-3, seed=0))
            ri.train_critic(dataset, critic, ri.IRLConfig(epochs=3, batch_size=16, seed=0))
            contexts = [
                tm.GenerationContext(t.origin, t.destination, t.depart_bin, t.speed_bin, t.user_id, max_len=12, seed=seed, traj_id=t.traj_id)
                for t in dataset.eval()
            ]
            trips = [tm.generate_scored(ctx, policy, dataset.net).trajectory for ctx in contexts]
            return policy.vector, critic.vector, [(t.positions, t.actions, t.flag) for t in trips]

        (policy, critic, trips), (policy_moved, critic_moved, trips_moved) = run(False), run(True)
        np.testing.assert_allclose(policy_moved, policy, rtol=0, atol=1e-12)
        np.testing.assert_allclose(critic_moved, critic, rtol=0, atol=1e-12)
        assert trips_moved == trips


def list_header(header):
    return [header]


def drop(key):
    def edit(header):
        del header[key]
        return header

    return edit


def unknown_config_key(header):
    header["config"]["n_experts"] = 4
    return header


def fractional_vocab_size(header):
    header["config"]["vocab"]["positions"] = 9.5
    return header


def bool_vocab_size(header):
    header["config"]["vocab"]["positions"] = True  # JSON true: a bool, which VocabSpec used to take as 1
    return header


def rtg_vocab(header):
    header["config"]["vocab"]["rtg"] = 2
    return header


def full_dropout(header):
    header["config"]["dropout"] = 1.0
    return header


class TestMalformedHeader:
    @pytest.mark.parametrize("kind", ["policy", "critic"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (list_header, "not a checkpoint"),
            (drop("manifest"), "'manifest' is missing"),
            (drop("meta"), "'meta' is missing"),
            (unknown_config_key, "bad .* config"),
            (fractional_vocab_size, "positions must be an integer"),
            (bool_vocab_size, "positions must be an integer, got True"),
            (rtg_vocab, "bad .* config"),
        ],
        ids=["list", "no-manifest", "no-meta", "unknown-config-key", "fractional-vocab-size", "bool-vocab-size", "rtg-vocab"],
    )
    def test_raises_checkpoint_error(self, kind, edit, message, tmp_path):
        model, load = tiny_model(kind)
        path = tmp_path / "m.ckpt"
        model.save(path)
        line, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(line))).encode() + b"\n" + blob)
        with pytest.raises(ck.CheckpointError, match=message):
            load(path)

    def test_missing_file_rejected(self, tmp_path):
        _, load = tiny_model("policy")
        path = tmp_path / "absent.ckpt"
        with pytest.raises(ck.CheckpointError, match=f"^cannot read checkpoint {re.escape(str(path))}: "):
            load(path)

    @pytest.mark.parametrize("kind", ["policy", "critic"])
    def test_other_version_rejected(self, kind, tmp_path):
        model, load = tiny_model(kind)
        path = tmp_path / "m.ckpt"
        model.save(path)
        line, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps({**json.loads(line), "version": 2}).encode() + b"\n" + blob)
        with pytest.raises(ck.CheckpointError, match=f"^{re.escape(str(path))}: checkpoint version 2 != 1$"):
            load(path)

    def test_policy_with_out_of_range_dropout_rejected(self, tmp_path):
        model, load = tiny_model("policy")
        path = tmp_path / "m.ckpt"
        model.save(path)
        line, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(full_dropout(json.loads(line))).encode() + b"\n" + blob)
        with pytest.raises(ck.CheckpointError, match="bad policy config: dropout must be in"):
            load(path)

    @pytest.mark.parametrize("kind", ["policy", "critic"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_parameter_named_at_load(self, kind, value, tmp_path):
        model, load = tiny_model(kind)
        names = [name for name, _ in model.parameters()]
        target = names[len(names) // 2]
        # the first non-finite parameter is named, though a later one is non-finite too
        for name in (target, names[-1]):
            dict(model.parameters())[name].data.flat[-1] = value
        path = tmp_path / "m.ckpt"
        model.save(path)
        with pytest.raises(ck.CheckpointError, match=rf"parameter {target} holds a non-finite value"):
            load(path)

    def test_policy_with_context_rejected(self, tmp_path):
        # the committed policy file as it was while the window length was a config field of its own
        line, blob = (DATA / "policy_tiny.ckpt").read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["config"]["context"] = 4
        path = tmp_path / "m.ckpt"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
        with pytest.raises(ck.CheckpointError, match="bad policy config: .*'context'"):
            ck.load(path, tm.PolicyModel)

    def test_policy_with_rtg_table_rejected(self, tmp_path):
        # a policy file from before the return-to-go token was dropped: emb_rtg sits after emb_action
        model, load = tiny_model("policy")
        path = tmp_path / "m.ckpt"
        model.save(path)
        line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        at = [name for name, _ in header["manifest"]].index("emb_timestep")
        header["manifest"].insert(at, ["emb_rtg", [2, 8]])
        offset = 8 * sum(math.prod(shape) for _, shape in header["manifest"][:at])
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob[:offset] + bytes(8 * 16) + blob[offset:])
        with pytest.raises(ck.CheckpointError, match=r"manifest entry \['emb_rtg'"):
            load(path)
