import json
from dataclasses import replace

import pytest

from dialaug.corpus import Goal
from dialaug.evaluation import (
    ALL_LOSSES,
    DialogResult,
    EvalCell,
    EvalError,
    EvalReport,
    MODE_NONE,
    MODE_PARG,
    MODE_UTTER_SUB,
    ValueMemory,
    entity_match_rate,
    evaluate_model,
    gold_results,
    inform_success,
    mode_losses,
    response_bleu,
    run_experiment,
    score_results,
    success_f1,
    train_mode,
)
from dialaug.neural.model import ModelConfig


def make_result(
    dialog_id="d",
    goal=None,
    gold_informed=None,
    pred_informed=None,
    gold_responses=(("the", "name", "is", "[name]", "."),),
    gen_responses=(("the", "name", "is", "[name]", "."),),
):
    return DialogResult(
        dialog_id=dialog_id,
        domain="restaurant",
        goal=goal if goal is not None else Goal(),
        gold_final_informed=dict(gold_informed or {}),
        pred_final_informed=dict(pred_informed or {}),
        gold_responses=[list(t) for t in gold_responses],
        gen_responses=[list(t) for t in gen_responses],
    )


class TestEntityMatchRate:
    def test_seven_of_ten(self):
        informed = {("restaurant", "food"): "thai"}
        results = [make_result(f"m{i}", gold_informed=informed, pred_informed=informed) for i in range(7)]
        results += [make_result(f"x{i}", gold_informed=informed, pred_informed={}) for i in range(3)]
        assert entity_match_rate(results) == pytest.approx(0.7)

    def test_case_insensitive(self):
        a = make_result(gold_informed={("restaurant", "food"): "Thai"},
                        pred_informed={("restaurant", "food"): "thai"})
        assert entity_match_rate([a]) == 1.0

    def test_key_mismatch_fails(self):
        a = make_result(gold_informed={("restaurant", "food"): "thai"},
                        pred_informed={("restaurant", "area"): "thai"})
        assert entity_match_rate([a]) == 0.0

    def test_empty(self):
        assert entity_match_rate([]) == 0.0


class TestSuccessF1:
    def test_micro_f1_eight_two_two(self, mini_corpus):
        with_name = (("ok", "[name]", "here", "."),)
        without = (("nothing", "to", "see", "."),)
        results = []
        # 8 true positives: [name] in both gold and generated
        results += [make_result(f"tp{i}", gold_responses=with_name, gen_responses=with_name) for i in range(8)]
        # 2 false positives: generated only
        results += [make_result(f"fp{i}", gold_responses=without, gen_responses=with_name) for i in range(2)]
        # 2 false negatives: gold only
        results += [make_result(f"fn{i}", gold_responses=with_name, gen_responses=without) for i in range(2)]
        assert success_f1(results, mini_corpus) == pytest.approx(0.8)

    def test_only_requestable_placeholders_count(self, mini_corpus):
        # [food] is informable but not requestable in the fixture ontology
        r = make_result(gold_responses=(("[food]", "here"),), gen_responses=(("[food]", "here"),))
        assert success_f1([r], mini_corpus) == 0.0

    def test_no_true_positives(self, mini_corpus):
        r = make_result(gold_responses=(("plain", "words"),), gen_responses=(("plain", "words"),))
        assert success_f1([r], mini_corpus) == 0.0


class TestInformSuccess:
    def goal(self, requested=True):
        return Goal(
            constraints={("restaurant", "food"): "british", ("restaurant", "area"): "east"},
            requested={("restaurant", "name")} if requested else set(),
        )

    def test_inform_and_success(self, mini_corpus):
        r = make_result(
            goal=self.goal(),
            pred_informed={("restaurant", "food"): "british", ("restaurant", "area"): "east"},
            gen_responses=(("[name]", "is", "nice", "."),),
        )
        inform, success, excluded = inform_success([r], mini_corpus)
        assert (inform, success, excluded) == (1.0, 1.0, 0)

    def test_inform_without_success(self, mini_corpus):
        # entity offered and correct, but the requested [name]... the name
        # placeholder doubles as the offer, so request a different outcome by
        # omitting it from generation: no offer at all.
        r = make_result(
            goal=self.goal(),
            pred_informed={("restaurant", "food"): "british"},
            gen_responses=(("no", "offer", "here", "."),),
        )
        inform, success, excluded = inform_success([r], mini_corpus)
        assert (inform, success, excluded) == (0.0, 0.0, 0)

    def test_wrong_entity_blocks_inform(self, mini_corpus):
        # predicted constraints select thai restaurants; goal wants british/east
        r = make_result(
            goal=self.goal(),
            pred_informed={("restaurant", "food"): "thai"},
            gen_responses=(("[name]", "is", "nice", "."),),
        )
        inform, success, excluded = inform_success([r], mini_corpus)
        assert (inform, success, excluded) == (0.0, 0.0, 0)

    def test_goalless_dialogs_excluded(self, mini_corpus):
        scored = make_result(
            goal=self.goal(),
            pred_informed={("restaurant", "food"): "british", ("restaurant", "area"): "east"},
            gen_responses=(("[name]", "."),),
        )
        goalless = make_result(goal=Goal())
        inform, success, excluded = inform_success([scored, goalless], mini_corpus)
        assert excluded == 1
        assert inform == 1.0  # the goalless dialog does not dilute the rate

    def test_all_excluded(self, mini_corpus):
        inform, success, excluded = inform_success([make_result(goal=Goal())], mini_corpus)
        assert (inform, success, excluded) == (0.0, 0.0, 1)

    def test_unrequested_goal_success_trivial(self, mini_corpus):
        # no requested slots: success follows inform
        r = make_result(
            goal=self.goal(requested=False),
            pred_informed={("restaurant", "food"): "british", ("restaurant", "area"): "east"},
            gen_responses=(("[name]", "."),),
        )
        inform, success, _ = inform_success([r], mini_corpus)
        assert (inform, success) == (1.0, 1.0)


class TestScoreResults:
    def test_gold_is_perfect_on_fixture(self, mini_corpus):
        scores = score_results(gold_results(mini_corpus), mini_corpus)
        assert scores["bleu"] == pytest.approx(1.0)
        assert scores["emr"] == 1.0
        assert scores["success_f1"] == 1.0
        assert scores["inform"] == 1.0
        assert scores["success"] == 1.0
        assert scores["combined"] == pytest.approx(2.0)
        assert scores["n_dialogs"] == len(mini_corpus.dialogs)
        assert scores["n_excluded"] == 0

    def test_combined_identity(self, mini_corpus):
        # degrade generation so inform/success/bleu spread apart, then check
        # the combination rule on the resulting row
        results = gold_results(mini_corpus)
        for r in results[:6]:
            r.gen_responses = [["nothing", "useful", "."] for _ in r.gen_responses]
        scores = score_results(results, mini_corpus)
        assert scores["combined"] == pytest.approx(
            (scores["inform"] + scores["success"]) * 0.5 + scores["bleu"]
        )
        assert 0.0 < scores["inform"] < 1.0

    def test_response_bleu_skips_empty_gold(self):
        r = make_result(gold_responses=((),), gen_responses=(("hi", "."),))
        assert response_bleu([r]) == 0.0


class TestValueMemory:
    def test_resolves_placeholder_from_observed_turn(self, mini_corpus):
        m = ValueMemory()
        d = mini_corpus.get_dialog("d01")
        m.observe_turn(d.turns[0])
        assert m.resolve("food", ["[food]"]) == "british"
        assert m.resolve("area", ["[area]"]) == "east"

    def test_latest_mention_wins(self, mini_corpus):
        m = ValueMemory()
        m.observe_turn(mini_corpus.get_dialog("d01").turns[0])  # british
        m.observe_turn(mini_corpus.get_dialog("d03").turns[0])  # thai
        assert m.resolve("food", ["[food]"]) == "thai"

    def test_literal_values_pass_through(self):
        m = ValueMemory()
        assert m.resolve("food", ["modern", "european"]) == "modern european"

    def test_unseen_placeholder_stays_literal(self):
        m = ValueMemory()
        assert m.resolve("food", ["[food]"]) == "[food]"


class TestEvalCell:
    def test_combined_mismatch_rejected(self):
        with pytest.raises(EvalError):
            EvalCell(1.0, "none", 0, bleu=0.5, inform=1.0, success=1.0, combined=0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(EvalError):
            EvalCell(1.0, "none", 0, emr=1.5, combined=0.0)

    def test_error_cell_skips_validation(self):
        cell = EvalCell(1.0, "none", 0, combined=9.9, error="boom")
        assert cell.error == "boom"

    def test_runtime_only_on_request(self):
        cell = EvalCell(1.0, "parg", 3, bleu=0.25, inform=0.5, success=0.5, combined=0.75, runtime=12.5)
        assert "runtime" not in cell.to_json()
        assert cell.to_json(include_runtime=True)["runtime"] == 12.5


class TestEvalReport:
    def cells(self):
        return [
            EvalCell(0.2, "none", 0, bleu=0.3, emr=0.5, success_f1=0.6, inform=0.4, success=0.2, combined=0.6, runtime=1.0),
            EvalCell(0.2, "parg", 0, bleu=0.4, emr=0.7, success_f1=0.8, inform=0.6, success=0.4, combined=0.9, runtime=2.0),
            EvalCell(0.2, "utter-sub", 1, error="TrainingError: nan"),
        ]

    def test_save_byte_deterministic(self, tmp_path):
        r = EvalReport(self.cells())
        a_json, a_md = tmp_path / "a.json", tmp_path / "a.md"
        b_json, b_md = tmp_path / "b.json", tmp_path / "b.md"
        r.save(a_json, a_md)
        EvalReport(self.cells()).save(b_json, b_md)
        assert a_json.read_bytes() == b_json.read_bytes()
        assert a_md.read_bytes() == b_md.read_bytes()

    def test_runtime_lives_in_sidecar_only(self, tmp_path):
        r = EvalReport(self.cells())
        j, t = tmp_path / "r.json", tmp_path / "r.timings.json"
        r.save(j, timing_path=t)
        assert "runtime" not in j.read_text()
        timing = json.loads(t.read_text())
        assert [row["runtime"] for row in timing[:2]] == [1.0, 2.0]

    def test_markdown_shape(self):
        md = EvalReport(self.cells()).to_markdown().splitlines()
        assert md[0] == "| data | augmentation | seed | EMR | Success F1 | BLEU | Inform | Success | Combined |"
        assert md[1].startswith("|---")
        assert "| 20% | none | 0 | 0.500 | 0.600 | 0.300 | 0.400 | 0.200 | 0.600 |" == md[2]
        assert "error: TrainingError: nan" in md[4]


class TestModeLosses:
    def test_parg_supervises_everything(self):
        assert mode_losses(MODE_PARG) == ALL_LOSSES

    def test_baselines_supervise_belief_and_response(self):
        assert mode_losses(MODE_NONE) == frozenset({"b", "r"})
        assert mode_losses(MODE_UTTER_SUB) == frozenset({"b", "r"})


@pytest.fixture(scope="module")
def micro_cfg():
    return ModelConfig(embed_dim=8, hidden_dim=8, max_epochs=1, batch_size=4, seed=5)


class TestHarness:
    def test_train_mode_rejects_unknown_mode(self, synth30, micro_cfg):
        with pytest.raises(ValueError):
            train_mode(synth30, synth30, "bogus", micro_cfg)

    def test_train_and_evaluate_smoke(self, tiny_setup, micro_cfg):
        corpus, _, _, _ = tiny_setup
        result = train_mode(corpus, corpus, MODE_NONE, micro_cfg)
        assert result.epochs_run == 1
        scores = evaluate_model(result.params, result.vocab, corpus)
        for key in ("bleu", "emr", "success_f1", "inform", "success", "combined"):
            assert key in scores
        assert 0.0 <= scores["emr"] <= 1.0
        assert scores["combined"] == pytest.approx(
            (scores["inform"] + scores["success"]) * 0.5 + scores["bleu"]
        )

    def test_external_pairs_filtered_to_training_split(self, mini_corpus, micro_cfg):
        from dialaug.mining import mine_pairs

        pairs = mine_pairs(mini_corpus)
        keep = [d.id for d in mini_corpus.dialogs[:6]]
        sub = type(mini_corpus)(
            mini_corpus.ontology, mini_corpus.database,
            [d for d in mini_corpus.dialogs if d.id in keep],
        )
        # must not raise: pairs referencing dialogs outside `sub` are dropped
        result = train_mode(sub, sub, MODE_UTTER_SUB, micro_cfg, pairs=pairs)
        assert result.epochs_run == 1

    def test_run_experiment_isolates_cell_failures(self, tiny_setup, micro_cfg):
        corpus, _, _, _ = tiny_setup
        report = run_experiment(corpus, [1.0], ["bogus", MODE_NONE], [0], micro_cfg)
        assert len(report.cells) == 2
        bogus, ok = report.cells
        assert bogus.error is not None and "bogus" in bogus.error
        assert ok.error is None
        assert ok.augmentation == MODE_NONE

    def test_paraphrase_generator_matches_generate_turn(self, tiny_setup, micro_cfg, monkeypatch):
        from dialaug.augment import build_instances
        from dialaug.evaluation import generate_turn, make_paraphrase_generator
        from dialaug.neural import model

        corpus, _, _, _ = tiny_setup
        result = train_mode(corpus, corpus, MODE_NONE, micro_cfg)
        params, vocab = result.params, result.vocab
        instances = build_instances(corpus, None, paraphrase_source="none", epoch_seed=0)
        want = [
            generate_turn(params, vocab, list(i.context), list(i.prev_belief), list(i.user_input)).paraphrase or None
            for i in instances
        ]
        heads = []
        real = model.Decoder

        def recording(params_, name, *args, **kwargs):
            heads.append(name)
            return real(params_, name, *args, **kwargs)

        monkeypatch.setattr(model, "Decoder", recording)
        generate = make_paraphrase_generator(params, vocab)
        assert generate(instances) == want
        # the generator stops after the paraphrase decoder, once per chunk of batch_size rows
        assert heads == ["action", "para"] * -(-len(instances) // micro_cfg.batch_size)


class TestBatchedParaphraseGenerator:
    """The chunked generator against one `generate_turn` per row: a product over
    several rows can differ from a single-row one in the last bits and flip an
    argmax tie, so equality is checked row by row."""

    @pytest.fixture(scope="class")
    def parg_cell(self):
        from dialaug.synth import synth_corpus

        corpus = synth_corpus(10, seed=1)
        cfg = ModelConfig(
            embed_dim=24, hidden_dim=24, max_epochs=15, batch_size=3, learning_rate=0.01, seed=5,
            max_decode_action=12, max_decode_paraphrase=20,
        )
        result = train_mode(corpus, corpus, MODE_PARG, cfg)
        return corpus, result.params, result.vocab

    def assert_rows_match(self, params, vocab, instances):
        from dialaug.evaluation import generate_turn, make_paraphrase_generator

        assert len(instances) % params.cfg.batch_size != 0  # a short last chunk runs
        assert len({len(i.context) + len(i.user_input) for i in instances}) > 1  # encoder lengths differ
        want = [
            generate_turn(params, vocab, list(i.context), list(i.prev_belief), list(i.user_input)).paraphrase or None
            for i in instances
        ]
        assert make_paraphrase_generator(params, vocab)(instances) == want
        return want

    def test_trained_cell(self, parg_cell):
        from dialaug.augment import build_instances

        corpus, params, vocab = parg_cell
        instances = build_instances(corpus, None, paraphrase_source="none", epoch_seed=1)
        want = self.assert_rows_match(params, vocab, instances)
        # rows stop decoding at different steps
        assert len({len(w or ()) for w in want}) > 1

    def test_untrained_cell(self, parg_cell):
        from dialaug.augment import build_instances
        from dialaug.neural import ModelParams

        corpus, params, vocab = parg_cell
        instances = build_instances(corpus, None, paraphrase_source="none", epoch_seed=1)
        self.assert_rows_match(ModelParams(params.cfg), vocab, instances)
