"""The parameter container shared by the policy and the critic, and its checkpoint files.

A `ParamModel`'s parameters are its `Tensor` attributes and the tensors of its `layers`
dicts (key `k` of layer i is named `layer{i}.k`), in the order its constructor assigns them.
The rule: manifest order = construction order = RNG draw order. The constructor draws each
parameter from the initialisation RNG as it assigns it, and that order is also the order of
`parameters()`, the checkpoint manifest, `params_hash` and the layout of `vector`: the one
float64 array that holds every parameter, of which each parameter's `data` is a view. Copy,
checkpoint blob, best snapshot and optimizer state are each one array in that layout.
Reordering a constructor changes all of them at once, so the tests pin both manifests. A
removed parameter keeps its draw, discarded, so that every later one starts from the same values.

A checkpoint file is one JSON header line (keys sorted: config, format, kind, manifest,
meta, version) followed by each parameter as little-endian float64, in manifest order.
`load` is the one reader, for both kinds of model; the critic also takes the network it binds:

    policy, meta = checkpoint.load(path, PolicyModel, vocab)
    critic, meta = checkpoint.load(path, CriticModel, vocab, (net,))
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from itertools import zip_longest

import numpy as np

from .numcore import Tensor, make_rng
from .tokenizer import VocabSpec

MAGIC = "trajforge-ckpt"
VERSION = 1


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupt, or incompatible."""


class ParamModel:
    """Named parameters in construction order, with their hash, copy and checkpoint file.

    A subclass sets `kind` (the checkpoint's kind) and `config_type` (the dataclass it keeps in
    `self.cfg`, which has a `vocab: VocabSpec` field), and takes `(cfg, *build_args(), rng=...)`.
    """

    kind: str
    config_type: type

    def build_args(self) -> tuple:
        """Constructor arguments between the config and the RNG; none unless overridden."""
        return ()

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                named.append((name, value))
            elif name == "layers":
                named.extend((f"layer{i}.{key}", t) for i, layer in enumerate(value) for key, t in layer.items())
        return named

    def param_tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]

    def bind_vector(self) -> None:
        """Gather the parameters, in manifest order, into one float64 `self.vector` whose views become their `data`.

        A subclass constructor's last statement; copy, checkpoint and optimizer then act on the vector."""
        named = self.parameters()
        self.vector = np.concatenate([t.data.ravel() for _, t in named])
        offset = 0
        for _, t in named:
            t.data = self.vector[offset : offset + t.data.size].reshape(t.data.shape)
            offset += t.data.size

    def params_hash(self) -> bytes:
        h = hashlib.sha256()
        for name, t in self.parameters():
            h.update(name.encode())
            h.update(t.data.astype("<f8").tobytes())
        return h.digest()

    def copy(self):
        clone = type(self)(self.cfg, *self.build_args(), rng=make_rng(0))
        clone.vector[:] = self.vector
        return clone

    def save(self, path, meta: dict | None = None) -> None:
        """Write the checkpoint file. The header is serialized before the file is opened, so a config
        or meta that JSON cannot hold raises TypeError and leaves no file; numpy scalars are written
        as the Python numbers they hold."""
        header = {
            "format": MAGIC,
            "version": VERSION,
            "kind": self.kind,
            "config": dataclasses.asdict(self.cfg),
            "meta": meta or {},
            "manifest": _manifest(self.parameters()),
        }
        line = json.dumps(header, sort_keys=True, default=_json_scalar).encode("utf-8") + b"\n"
        with open(path, "wb") as fh:
            fh.write(line)
            fh.write(self.vector.astype("<f8").tobytes())

    def release_grads(self) -> None:
        """Drop every parameter's `.grad`: a trainer calls it once, when its run ends (see `numcore`)."""
        for t in self.param_tensors():
            t.grad = None


def _json_scalar(value):
    """A numpy scalar as the Python number it holds, for `json.dumps`; TypeError for anything else."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _manifest(named) -> list:
    return [[name, list(t.data.shape)] for name, t in named]


def load(path, model_type: type, expect_vocab: VocabSpec | None = None, build_args: tuple = ()):
    """Rebuild a `model_type` bit-exactly from the file at `path`; returns (model, meta).

    The model is constructed as `model_type(cfg, *build_args, rng=...)`. Raises CheckpointError
    for a file that cannot be read, is not a checkpoint of `model_type.kind`, or whose config,
    vocabulary (when `expect_vocab` is given), manifest or blob does not fit, or whose blob holds
    a non-finite value.
    """
    kind = model_type.kind
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
    if not isinstance(header, dict) or header.get("format") != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if header.get("version") != VERSION:
        raise CheckpointError(f"{path}: checkpoint version {header.get('version')} != {VERSION}")
    if header.get("kind") != kind:
        raise CheckpointError(f"{path}: checkpoint kind {header.get('kind')!r}, expected {kind!r}")
    for key, type_ in (("config", dict), ("meta", dict), ("manifest", list)):
        if not isinstance(header.get(key), type_):
            raise CheckpointError(f"{path}: header {key!r} is missing or not a {type_.__name__}")
    try:
        cfg = model_type.config_type(**{**header["config"], "vocab": VocabSpec(**header["config"]["vocab"])})
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad {kind} config: {exc}") from exc
    if expect_vocab is not None and cfg.vocab != expect_vocab:
        raise CheckpointError(f"{path}: {kind} vocabulary {cfg.vocab} does not match expected {expect_vocab}")
    model = model_type(cfg, *build_args, rng=make_rng(0))
    expected = _manifest(model.parameters())
    if header["manifest"] != expected:
        found, wanted = next(pair for pair in zip_longest(header["manifest"], expected) if pair[0] != pair[1])
        raise CheckpointError(f"{path}: manifest entry {found}, a {kind} of this config has {wanted}")
    if len(blob) != model.vector.size * 8:
        raise CheckpointError(f"{path}: blob of {len(blob)} bytes, manifest declares {model.vector.size * 8}")
    model.vector[:] = np.frombuffer(blob, dtype="<f8")
    bad = next((name for name, t in model.parameters() if not np.isfinite(t.data).all()), None)
    if bad is not None:
        raise CheckpointError(f"{path}: parameter {bad} holds a non-finite value")
    return model, header["meta"]
