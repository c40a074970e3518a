import json

import pytest

from conftest import DATA
from dialaug.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, dispatch
from dialaug.corpus import load_canonical

MINI = str(DATA / "mini_corpus.json")

FAST_CONFIG = {
    "version": 1,
    "model": {"embed_dim": 8, "hidden_dim": 8, "max_epochs": 1, "batch_size": 4},
}


def write_config(tmp_path, obj=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj if obj is not None else FAST_CONFIG), encoding="utf-8")
    return str(path)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert dispatch([]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert dispatch(["stats", "--corpus", MINI, "--frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert dispatch(["mine", "--corpus", MINI]) == EXIT_USAGE

    def test_missing_corpus_file(self, capsys):
        assert dispatch(["stats", "--corpus", "/nonexistent/corpus.json"]) == EXIT_USAGE

    def test_config_requires_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {}})
        assert dispatch(["--config", cfg, "stats", "--corpus", MINI]) == EXIT_USAGE
        assert "version" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1, 2, 3])
        assert dispatch(["--config", cfg, "stats", "--corpus", MINI]) == EXIT_USAGE

    def test_bad_threshold_flag(self, tmp_path, capsys):
        out = str(tmp_path / "pairs.jsonl")
        assert dispatch(["mine", "--corpus", MINI, "--bleu-th", "-1", "--out", out]) == EXIT_USAGE
        assert "mining config" in capsys.readouterr().err


class TestStats:
    def test_fixture_counts(self, capsys):
        assert dispatch(["stats", "--corpus", MINI]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "dialogs: 12",
            "turns: 15",
            "domains: 1",
            "slot types: 3",
            "informable slots: 2",
            "requestable slots: 1",
            "database records: 10",
        ]

    def test_with_pairs(self, tmp_path, capsys):
        pairs = str(tmp_path / "pairs.jsonl")
        assert dispatch(["mine", "--corpus", MINI, "--out", pairs]) == EXIT_OK
        capsys.readouterr()
        assert dispatch(["stats", "--corpus", MINI, "--pairs", pairs]) == EXIT_OK
        out = capsys.readouterr().out
        assert "paraphrase pairs: 36" in out
        assert "relaxed pairs: 2" in out


class TestMetrics:
    def test_bleu_identity(self, capsys):
        assert dispatch(["metrics", "bleu", "--hyp", "hello there .", "--ref", "hello there ."]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.0000000000"

    def test_bleu_disjoint_unsmoothed(self, capsys):
        rc = dispatch(["metrics", "bleu", "--hyp", "a b c d", "--ref", "w x y z", "--smoothing", "none"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.0000000000"

    def test_bleu_corpus_level(self, capsys):
        rc = dispatch(["metrics", "bleu", "--hyp", "one two three", "--ref", "one two three", "--corpus-level"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "1.0000000000"

    @pytest.mark.parametrize("level", [[], ["--corpus-level"]])
    @pytest.mark.parametrize("hyp,ref", [("", "a b"), ("a b", ""), ("  ", "a b"), ("", "")])
    def test_bleu_empty_text_is_usage_error(self, capsys, level, hyp, ref):
        assert dispatch(["metrics", "bleu", "--hyp", hyp, "--ref", ref, *level]) == EXIT_USAGE
        assert "non-empty" in capsys.readouterr().err

    def test_diversity_of_empty_text(self, capsys):
        assert dispatch(["metrics", "diversity", "--hyp", "", "--ref", "a b"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2.0000000000"

    def test_diversity_hand_value(self, capsys):
        rc = dispatch([
            "metrics", "diversity",
            "--hyp", "cheap please .",
            "--ref", "could you find me a cheap restaurant .",
        ])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.strip() == "6.0000000000"


class TestMine:
    def test_outputs_and_orphan_report(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        report = tmp_path / "orphans.json"
        rc = dispatch([
            "mine", "--corpus", MINI, "--out", str(pairs), "--orphan-report", str(report),
        ])
        assert rc == EXIT_OK
        lines = pairs.read_text().splitlines()
        assert len(lines) == 36
        assert sum(1 for l in lines if json.loads(l)["relaxed"]) == 2
        obj = json.loads(report.read_text())
        assert obj["n_pairs"] == 36
        assert obj["n_relaxed"] == 2
        assert obj["n_orphans"] == 1
        assert obj["orphans"][0]["dialog"] == "d06"
        assert obj["orphans"][0]["bucket_size"] == 1

    def test_empty_user_utterance_is_usage_error(self, tmp_path, capsys):
        doc = json.loads(open(MINI, encoding="utf-8").read())
        doc["dialogs"][0]["turns"][1]["user"] = ""
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(doc), encoding="utf-8")
        rc = dispatch(["mine", "--corpus", str(corpus), "--out", str(tmp_path / "pairs.jsonl")])
        assert rc == EXIT_USAGE
        assert "empty utterance" in capsys.readouterr().err

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert dispatch(["mine", "--corpus", MINI, "--out", str(a)]) == EXIT_OK
        assert dispatch(["mine", "--corpus", MINI, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config(self, tmp_path):
        # config tightens the BLEU bar; the explicit flag loosens it back
        cfg = write_config(tmp_path, {"version": 1, "mining": {"bleu_threshold": 0.99}})
        base, flagged = tmp_path / "base.jsonl", tmp_path / "flagged.jsonl"
        assert dispatch(["mine", "--corpus", MINI, "--out", str(base)]) == EXIT_OK
        rc = dispatch(["--config", cfg, "mine", "--corpus", MINI, "--bleu-th", "0.2", "--out", str(flagged)])
        assert rc == EXIT_OK
        assert base.read_bytes() == flagged.read_bytes()

    def test_config_section_applies(self, tmp_path):
        cfg = write_config(tmp_path, {"version": 1, "mining": {"bleu_threshold": 0.99}})
        out = tmp_path / "strict.jsonl"
        assert dispatch(["--config", cfg, "mine", "--corpus", MINI, "--out", str(out)]) == EXIT_OK
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows  # identical-template turns survive even a 0.99 BLEU bar
        assert all(r["relaxed"] for r in rows)
        assert all(r["bleu"] >= 0.99 for r in rows)


class TestAugment:
    @pytest.fixture()
    def pairs_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        assert dispatch(["mine", "--corpus", MINI, "--out", str(path)]) == EXIT_OK
        return str(path)

    def test_utter_sub_corpus(self, tmp_path, pairs_file):
        out = tmp_path / "augmented.json"
        rc = dispatch(["augment", "--corpus", MINI, "--pairs", pairs_file, "--mode", "utter-sub", "--out", str(out)])
        assert rc == EXIT_OK
        augmented = load_canonical(out)
        assert len(augmented.dialogs) == 12 + 14
        clone = augmented.get_dialog("d01#p1")
        assert len(clone.turns) == 1

    def test_stream_instances(self, tmp_path, pairs_file):
        out = tmp_path / "instances.jsonl"
        rc = dispatch(["augment", "--corpus", MINI, "--pairs", pairs_file, "--mode", "stream", "--out", str(out)])
        assert rc == EXIT_OK
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 15 + 12
        assert sum(1 for r in rows if r["is_paraphrase"]) == 12

    def test_stream_seed_changes_order(self, tmp_path, pairs_file):
        a, b, c = (tmp_path / n for n in ("s0.jsonl", "s0again.jsonl", "s7.jsonl"))
        for path, seed in ((a, "0"), (b, "0"), (c, "7")):
            rc = dispatch(["--seed", seed, "augment", "--corpus", MINI,
                           "--pairs", pairs_file, "--mode", "stream", "--out", str(path)])
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One fast CLI training run shared by the generate/evaluate tests."""
    tmp = tmp_path_factory.mktemp("cli_train")
    cfg = write_config(tmp)
    ckpt = tmp / "model.ckpt"
    rc = dispatch(["--config", cfg, "--seed", "5", "train", "--corpus", MINI, "--out", str(ckpt)])
    assert rc == EXIT_OK
    return {"tmp": tmp, "cfg": cfg, "ckpt": str(ckpt)}


class TestTrainGenerateEvaluate:
    def test_checkpoint_written(self, trained):
        from dialaug.neural import load_checkpoint

        ckpt = load_checkpoint(trained["ckpt"])
        assert ckpt.epoch == 1
        assert ckpt.cfg.embed_dim == 8
        assert ckpt.best_dev is not None

    def test_train_deterministic(self, trained, tmp_path):
        import pathlib

        again = tmp_path / "again.ckpt"
        rc = dispatch(["--config", trained["cfg"], "--seed", "5", "train", "--corpus", MINI, "--out", str(again)])
        assert rc == EXIT_OK
        assert again.read_bytes() == pathlib.Path(trained["ckpt"]).read_bytes()

    def test_generate_full_turn(self, trained, tmp_path, capsys):
        turn = tmp_path / "turn.json"
        turn.write_text(json.dumps({
            "context": "",
            "prev_belief": [],
            "user_input": "i want a british restaurant in the east .",
            "db_bucket": 1,
        }), encoding="utf-8")
        rc = dispatch(["generate", "--ckpt", trained["ckpt"], "--input", str(turn)])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"action", "paraphrase", "belief", "response", "db_bucket"}
        assert out["db_bucket"] == 1
        assert all(isinstance(t, str) for t in out["response"])

    def test_generate_rejects_bad_turn(self, trained, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        missing.write_text(json.dumps({"context": "hello"}), encoding="utf-8")
        assert dispatch(["generate", "--ckpt", trained["ckpt"], "--input", str(missing)]) == EXIT_USAGE
        bad_bucket = tmp_path / "bucket.json"
        bad_bucket.write_text(json.dumps({"user_input": "hi", "db_bucket": 7}), encoding="utf-8")
        assert dispatch(["generate", "--ckpt", trained["ckpt"], "--input", str(bad_bucket)]) == EXIT_USAGE

    def test_generate_rejects_bad_checkpoint(self, tmp_path, capsys):
        fake = tmp_path / "fake.ckpt"
        fake.write_bytes(b"not a checkpoint")
        turn = tmp_path / "turn.json"
        turn.write_text(json.dumps({"user_input": "hi"}), encoding="utf-8")
        assert dispatch(["generate", "--ckpt", str(fake), "--input", str(turn)]) == EXIT_USAGE

    def test_evaluate_writes_report(self, trained, tmp_path, capsys):
        out = tmp_path / "report.json"
        md = tmp_path / "report.md"
        timings = tmp_path / "timings.json"
        rc = dispatch([
            "evaluate", "--corpus", MINI, "--ckpt", trained["ckpt"], "--label", "none",
            "--out", str(out), "--md", str(md), "--timings", str(timings),
        ])
        assert rc == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 1
        row = rows[0]
        assert row["augmentation"] == "none"
        assert row["combined"] == pytest.approx((row["inform"] + row["success"]) * 0.5 + row["bleu"])
        assert "runtime" not in row
        assert md.read_text().startswith("| data | augmentation | seed |")
        assert timings.exists()


class TestIngest:
    def test_camrest_roundtrip(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps([
            {
                "dialogue_id": "1",
                "goal": {"constraints": [["food", "thai"]], "request-slots": ["phone"]},
                "dial": [{
                    "usr": {"transcript": "thai food please",
                            "slu": [{"act": "inform", "slots": [["food", "thai"]]}]},
                    "sys": {"sent": "bangkok city serves thai food"},
                }],
            },
        ]), encoding="utf-8")
        db = tmp_path / "db.json"
        db.write_text(json.dumps([{"name": "bangkok city", "food": "thai", "phone": "123"}]), encoding="utf-8")
        out = tmp_path / "canonical.json"
        rc = dispatch(["ingest", "--raw", str(raw), "--schema", "camrest-raw", "--db", str(db), "--out", str(out)])
        assert rc == EXIT_OK
        corpus = load_canonical(out)
        assert len(corpus.dialogs) == 1
        assert corpus.dialogs[0].turns[0].user_delex.tokens.count("[food]") == 1
        capsys.readouterr()
        assert dispatch(["stats", "--corpus", str(out)]) == EXIT_OK
        assert "dialogs: 1" in capsys.readouterr().out

    def test_unknown_schema_flag(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text("[]", encoding="utf-8")
        rc = dispatch(["ingest", "--raw", str(raw), "--schema", "mystery", "--out", str(tmp_path / "o.json")])
        assert rc == EXIT_USAGE
