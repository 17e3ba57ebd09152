import json
import math
from pathlib import Path

import pytest

from trajforge import netgrid as ng
from trajforge import rewardirl as ri
from trajforge import synthgen as sg
from trajforge import tokenizer as tk
from trajforge import trajmodel as tm
from trajforge.numcore import make_rng

DATA = Path(__file__).parent / "data"

# The tiny models of tests/data: checkpoint format version 1, written before the policy and the
# critic shared `checkpoint.ParamModel`, and re-written when the return-to-go token was dropped
# (the policy lost `emb_rtg`, both vocabularies lost `rtg`; the critic's blob kept its bytes).
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
        cfg = tm.ModelConfig(vocab, d_model=8, n_layers=n_layers, n_heads=2, context=4)
        return tm.PolicyModel(cfg, rng=make_rng(5, "policy-fixture")), tm.load_checkpoint
    critic = ri.CriticModel(ri.CriticConfig(vocab, d=8), net, rng=make_rng(5, "critic-fixture"))
    return critic, lambda path: ri.load_critic(path, net)


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
            (fractional_vocab_size, "vocabulary positions must be an integer"),
            (rtg_vocab, "bad .* config"),
        ],
        ids=["list", "no-manifest", "no-meta", "unknown-config-key", "fractional-vocab-size", "rtg-vocab"],
    )
    def test_raises_checkpoint_error(self, kind, edit, message, tmp_path):
        model, load = tiny_model(kind)
        path = tmp_path / "m.ckpt"
        model.save(path)
        line, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(edit(json.loads(line))).encode() + b"\n" + blob)
        with pytest.raises(tm.CheckpointError, match=message):
            load(path)

    def test_policy_with_out_of_range_dropout_rejected(self, tmp_path):
        model, load = tiny_model("policy")
        path = tmp_path / "m.ckpt"
        model.save(path)
        line, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(full_dropout(json.loads(line))).encode() + b"\n" + blob)
        with pytest.raises(tm.CheckpointError, match="bad policy config: dropout must lie in"):
            load(path)

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
        with pytest.raises(tm.CheckpointError, match=r"manifest entry \['emb_rtg'"):
            load(path)
