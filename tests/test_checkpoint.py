import json
import struct

import numpy as np
import pytest

from dialaug.neural.checkpoint import (
    Checkpoint,
    CheckpointError,
    from_result,
    load_checkpoint,
    save_checkpoint,
)
from dialaug.neural.model import ModelParams
from dialaug.neural.training import TrainResult


@pytest.fixture(scope="module")
def small_ckpt(tiny_setup):
    _, _, vocab, cfg = tiny_setup
    params = ModelParams(cfg)
    n = params.n_params
    result = TrainResult(
        params=params,
        vocab=vocab,
        cfg=cfg,
        best_dev=1.25,
        dev_history=[2.0, 1.5, 1.25],
        epochs_run=3,
        final_lr=0.0015,
        adam_state={"t": 7, "m": np.linspace(0, 1, n), "v": np.linspace(1, 2, n)},
    )
    return from_result(result)


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, small_ckpt, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(small_ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_survive(self, small_ckpt, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(small_ckpt, path)
        back = load_checkpoint(path)
        assert back.cfg == small_ckpt.cfg
        assert back.vocab_tokens == small_ckpt.vocab_tokens
        assert back.adam_t == 7
        assert back.lr == 0.0015
        assert back.epoch == 3
        assert back.best_dev == 1.25
        assert back.dev_history == [2.0, 1.5, 1.25]
        np.testing.assert_array_equal(back.params_flat, small_ckpt.params_flat)
        np.testing.assert_array_equal(back.adam_m, small_ckpt.adam_m)
        np.testing.assert_array_equal(back.adam_v, small_ckpt.adam_v)

    def test_restore_rebuilds_model(self, small_ckpt, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(small_ckpt, path)
        params, vocab = load_checkpoint(path).restore()
        np.testing.assert_array_equal(params.flat(), small_ckpt.params_flat)
        assert vocab.id_to_token == small_ckpt.vocab_tokens

    def test_unfinished_best_dev_becomes_none(self, tiny_setup, tmp_path):
        _, _, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        result = TrainResult(params=params, vocab=vocab, cfg=cfg, best_dev=float("inf"))
        ckpt = from_result(result)
        assert ckpt.best_dev is None
        path = tmp_path / "e.ckpt"
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).best_dev is None


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, small_ckpt, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(small_ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated(self, small_ckpt, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(small_ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated|bytes"):
            load_checkpoint(path)

    def test_corrupt_header(self, small_ckpt, tmp_path):
        path = tmp_path / "h.ckpt"
        save_checkpoint(small_ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[16] = ord("}")  # break the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_moment_size_mismatch_on_save(self, small_ckpt, tmp_path):
        broken = Checkpoint(
            cfg=small_ckpt.cfg,
            vocab_tokens=small_ckpt.vocab_tokens,
            params_flat=small_ckpt.params_flat,
            adam_m=small_ckpt.adam_m[:-1],
            adam_v=small_ckpt.adam_v,
        )
        with pytest.raises(CheckpointError):
            save_checkpoint(broken, tmp_path / "m.ckpt")


def _rewrite_header(path, edit) -> None:
    """Apply `edit` to the JSON header of the checkpoint at path, keeping the arrays."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :])


class TestMalformedHeader:
    @pytest.fixture()
    def saved(self, small_ckpt, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(small_ckpt, path)
        return path

    def test_rewrite_helper_keeps_a_valid_file(self, saved, small_ckpt):
        _rewrite_header(saved, lambda h: None)
        assert load_checkpoint(saved).adam_t == small_ckpt.adam_t

    @pytest.mark.parametrize("key", ["config", "vocab", "n_params", "adam_t", "lr", "epoch", "best_dev", "dev_history"])
    def test_missing_key(self, saved, key):
        _rewrite_header(saved, lambda h: h.pop(key))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(saved)

    def test_unknown_key(self, saved):
        _rewrite_header(saved, lambda h: h.update(extra=1))
        with pytest.raises(CheckpointError, match="unknown"):
            load_checkpoint(saved)

    def test_header_not_an_object(self, saved):
        blob = saved.read_bytes()
        (header_len,) = struct.unpack_from("<Q", blob, 8)
        raw = b"[1, 2]"
        saved.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + header_len :])
        with pytest.raises(CheckpointError, match="object"):
            load_checkpoint(saved)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("config", [1]),
            ("vocab", "abc"),
            ("vocab", [1, 2]),
            ("n_params", "12"),
            ("n_params", True),
            ("adam_t", 1.5),
            ("lr", "fast"),
            ("epoch", None),
            ("best_dev", "low"),
            ("dev_history", [1.0, "x"]),
        ],
    )
    def test_wrong_value_type(self, saved, key, value):
        _rewrite_header(saved, lambda h: h.update({key: value}))
        with pytest.raises(CheckpointError, match=repr(key)):
            load_checkpoint(saved)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.update(frobnicate=1),
            lambda c: c.update(embed_dim="8"),
            lambda c: c.update(learning_rate=None),
            lambda c: c.update(embed_dim=0),
        ],
    )
    def test_bad_model_config(self, saved, edit):
        _rewrite_header(saved, lambda h: edit(h["config"]))
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(saved)

    def test_vocab_size_mismatch(self, saved):
        _rewrite_header(saved, lambda h: h["vocab"].pop())
        with pytest.raises(CheckpointError, match="vocab_size"):
            load_checkpoint(saved)
