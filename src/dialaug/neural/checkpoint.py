"""Versioned binary checkpoints.

Layout: 4-byte magic, little-endian uint32 format version, little-endian
uint64 header length, UTF-8 JSON header (config, vocabulary, training state),
then three float64 little-endian arrays back to back: parameters, Adam first
moments, Adam second moments, each in flat-vector order.  Serialization is
canonical, so save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .model import ModelConfig, ModelParams
from .training import TrainResult
from .vocab import Vocab

MAGIC = b"DLGC"
VERSION = 1


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    cfg: ModelConfig
    vocab_tokens: list[str]
    params_flat: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    adam_t: int = 0
    lr: float = 0.0
    epoch: int = 0
    best_dev: float | None = None
    dev_history: list[float] = field(default_factory=list)

    def restore(self) -> tuple[ModelParams, Vocab]:
        params = ModelParams(self.cfg)
        params.load_flat(self.params_flat)
        return params, Vocab(self.vocab_tokens)


def from_result(result: TrainResult) -> Checkpoint:
    adam = result.adam_state or {"t": 0, "m": np.zeros(result.params.n_params), "v": np.zeros(result.params.n_params)}
    best = None if not np.isfinite(result.best_dev) else float(result.best_dev)
    return Checkpoint(
        cfg=result.cfg,
        vocab_tokens=list(result.vocab.id_to_token),
        params_flat=result.params.flat(),
        adam_m=np.asarray(adam["m"], dtype=np.float64),
        adam_v=np.asarray(adam["v"], dtype=np.float64),
        adam_t=int(adam["t"]),
        lr=float(result.final_lr),
        epoch=int(result.epochs_run),
        best_dev=best,
        dev_history=[float(x) for x in result.dev_history],
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    n = ckpt.params_flat.size
    if ckpt.adam_m.size != n or ckpt.adam_v.size != n:
        raise CheckpointError("optimizer moment vectors must match the parameter vector size")
    header = {
        "config": ckpt.cfg.to_json(),
        "vocab": ckpt.vocab_tokens,
        "n_params": int(n),
        "adam_t": ckpt.adam_t,
        "lr": ckpt.lr,
        "epoch": ckpt.epoch,
        "best_dev": ckpt.best_dev,
        "dev_history": ckpt.dev_history,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        f.write(np.ascontiguousarray(ckpt.params_flat, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(ckpt.adam_m, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(ckpt.adam_v, dtype="<f8").tobytes())


_NUMBER = (int, float)
# key -> (accepted JSON types, accepted element types for lists)
_HEADER = {
    "config": (dict, None),
    "vocab": (list, str),
    "n_params": (int, None),
    "adam_t": (int, None),
    "lr": (_NUMBER, None),
    "epoch": (int, None),
    "best_dev": (_NUMBER + (type(None),), None),
    "dev_history": (list, _NUMBER),
}


def _is(value, kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_header(header, path) -> ModelConfig:
    """Validate the header's keys and value types; returns its model config."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    missing = sorted(set(_HEADER) - set(header))
    unknown = sorted(set(header) - set(_HEADER))
    if missing or unknown:
        raise CheckpointError(f"{path}: header keys missing {missing}, unknown {unknown}")
    for key, (kinds, items) in _HEADER.items():
        value = header[key]
        if not _is(value, kinds) or (items is not None and not all(_is(v, items) for v in value)):
            raise CheckpointError(f"{path}: header {key!r} has the wrong type")
    config = header["config"]
    for f in fields(ModelConfig):
        if f.name in config and not _is(config[f.name], _NUMBER if isinstance(f.default, float) else int):
            raise CheckpointError(f"{path}: config {f.name!r} has the wrong type")
    try:
        cfg = ModelConfig.from_json(config)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad model config: {e}") from e
    if cfg.vocab_size != len(header["vocab"]):
        raise CheckpointError(f"{path}: {len(header['vocab'])} vocabulary tokens for vocab_size {cfg.vocab_size}")
    return cfg


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    try:
        header = json.loads(blob[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from e
    cfg = _check_header(header, path)
    n = header["n_params"]
    need = header_end + 3 * n * 8
    if len(blob) != need:
        raise CheckpointError(f"{path}: expected {need} bytes, found {len(blob)} (truncated or padded)")
    arrays = np.frombuffer(blob, dtype="<f8", count=3 * n, offset=header_end)
    return Checkpoint(
        cfg=cfg,
        vocab_tokens=list(header["vocab"]),
        params_flat=arrays[:n].astype(np.float64),
        adam_m=arrays[n : 2 * n].astype(np.float64),
        adam_v=arrays[2 * n :].astype(np.float64),
        adam_t=int(header["adam_t"]),
        lr=float(header["lr"]),
        epoch=int(header["epoch"]),
        best_dev=None if header["best_dev"] is None else float(header["best_dev"]),
        dev_history=[float(x) for x in header["dev_history"]],
    )
