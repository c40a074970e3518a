import pytest

from dialaug.augment import (
    ALL_LOSSES,
    FilterVerdict,
    LOSS_BELIEF,
    LOSS_PARAPHRASE,
    LOSS_RESPONSE,
    REASON_LOW_BLEU,
    REASON_LOW_DIVERSITY,
    REASON_MISSING_SLOT,
    REASON_OK,
    TrainingInstance,
    build_instances,
    filter_generated,
    instance_for_turn,
    utter_sub,
)
from dialaug.corpus import load_canonical
from dialaug.mining import (
    DialogFunction,
    MiningConfig,
    ParaphrasePair,
    mine_pairs,
    relax_for_orphans,
)


@pytest.fixture(scope="module")
def mini_pairs(mini_corpus):
    strict = mine_pairs(mini_corpus)
    return strict + relax_for_orphans(mini_corpus, strict)


class TestFilterGenerated:
    def test_ok(self):
        orig = "i want a [food] restaurant in the [area] .".split()
        cand = "hello , i am looking for a [food] restaurant in the [area] of town .".split()
        v = filter_generated(orig, cand)
        assert v.passed and v.reason == REASON_OK
        assert v.bleu >= 0.2 and v.diversity >= 3.4

    def test_missing_slot_short_circuits(self):
        orig = "i want a [food] restaurant in the [area] .".split()
        cand = "i want a [food] restaurant somewhere nice in town please .".split()
        v = filter_generated(orig, cand)
        assert not v.passed and v.reason == REASON_MISSING_SLOT
        # metrics are never computed on a slot failure
        assert v.bleu == 0.0 and v.diversity == 0.0

    def test_slot_check_is_multiset(self):
        orig = "[food] or [food] please .".split()
        cand = "give me [food] please or something similar .".split()
        assert filter_generated(orig, cand).reason == REASON_MISSING_SLOT

    def test_extra_candidate_slots_allowed(self):
        orig = "some [food] food please .".split()
        cand = "some [food] food in the [area] please , thanks a lot .".split()
        assert filter_generated(orig, cand).reason != REASON_MISSING_SLOT

    def test_low_bleu_checked_before_diversity(self):
        # Under thresholds both metrics fail (bleu ~0.29 < 0.5, diversity
        # 3 < 5); the bleu check runs first so it names the reason.
        cfg = MiningConfig(bleu_threshold=0.5, diversity_threshold=5.0)
        orig = "i want thai food .".split()
        cand = "i need cheap food !".split()
        v = filter_generated(orig, cand, cfg)
        assert v.reason == REASON_LOW_BLEU
        assert v.bleu < 0.5 and v.diversity < 5.0

    def test_low_diversity(self):
        orig = "i want a [food] restaurant in the [area] .".split()
        cand = "i want a [food] restaurant in the [area] !".split()
        v = filter_generated(orig, cand)
        assert not v.passed and v.reason == REASON_LOW_DIVERSITY

    def test_accepts_delex_utterances(self, mini_corpus):
        t = mini_corpus.get_dialog("d01").turns[0]
        v = filter_generated(t.user_delex, t.user_delex)
        assert v.reason == REASON_LOW_DIVERSITY and v.bleu == 1.0

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            FilterVerdict(True, REASON_LOW_BLEU, 0.1, 5.0)


class TestInstanceForTurn:
    def test_second_turn_fields(self, mini_corpus):
        d = mini_corpus.get_dialog("d01")
        inst = instance_for_turn(mini_corpus, d, d.turns[1])
        assert inst.dialog_id == "d01" and inst.turn == 2
        assert inst.context == tuple(d.turns[0].response_delex.tokens)
        assert inst.prev_belief == tuple(d.turns[0].state.serialize(delex=True))
        assert inst.act_target == ("[restaurant]", "[inform]", "name")
        assert inst.user_input == tuple(d.turns[1].user_delex.tokens)
        assert inst.belief_target == tuple(d.turns[1].state.serialize(delex=True))
        assert inst.response_target == tuple(d.turns[1].response_delex.tokens)
        assert inst.db_bucket == 1  # exactly one british/east record
        assert inst.paraphrase_target is None and not inst.is_paraphrase

    def test_first_turn_empty_history(self, mini_corpus):
        d = mini_corpus.get_dialog("d01")
        inst = instance_for_turn(mini_corpus, d, d.turns[0])
        assert inst.context == () and inst.act_target == ()
        assert inst.prev_belief == ()

    def test_user_input_override(self, mini_corpus):
        d = mini_corpus.get_dialog("d01")
        override = ("some", "[food]", "food", "in", "the", "[area]", ".")
        inst = instance_for_turn(mini_corpus, d, d.turns[0], user_input=override, is_paraphrase=True)
        assert inst.user_input == override and inst.is_paraphrase
        # targets never change with the input
        base = instance_for_turn(mini_corpus, d, d.turns[0])
        assert inst.belief_target == base.belief_target
        assert inst.response_target == base.response_target

    def test_json_round_trip(self, mini_corpus):
        d = mini_corpus.get_dialog("d02")
        inst = instance_for_turn(mini_corpus, d, d.turns[1], losses=frozenset({LOSS_BELIEF}))
        assert TrainingInstance.from_json(inst.to_json()) == inst


class TestUtterSub:
    def test_fixture_clone_count(self, mini_corpus, mini_pairs):
        augmented = utter_sub(mini_corpus, mini_pairs)
        assert len(augmented.dialogs) == len(mini_corpus.dialogs) + 14

    def test_originals_untouched(self, mini_corpus, mini_pairs):
        augmented = utter_sub(mini_corpus, mini_pairs)
        for d in mini_corpus.dialogs:
            assert augmented.get_dialog(d.id).to_json() == d.to_json()

    def test_clone_structure(self, mini_corpus, mini_pairs):
        augmented = utter_sub(mini_corpus, mini_pairs)
        clone = augmented.get_dialog("d01#p1")
        src = mini_corpus.get_dialog("d01")
        assert len(clone.turns) == 1
        t = clone.turns[0]
        assert t.index == 1
        assert t.user != src.turns[0].user  # a genuine paraphrase
        assert t.state.to_json() == src.turns[0].state.to_json()
        assert t.response == src.turns[0].response
        # paraphrase keeps the source turn's slot values once relexicalized
        assert "british" in t.user and "east" in t.user

    def test_second_turn_clone_carries_history(self, mini_corpus, mini_pairs):
        augmented = utter_sub(mini_corpus, mini_pairs)
        clone = augmented.get_dialog("d01#p2")  # clone of d01 turn 2
        src = mini_corpus.get_dialog("d01")
        t = clone.turns[0]
        assert t.index == 1 and t.context is not None
        assert t.context.prev_response == src.turns[0].response
        assert t.context.prev_state.to_json() == src.turns[0].state.to_json()
        # the clone reproduces the original turn's history for the model
        assert clone.context_before(1).prev_acts == src.context_before(2).prev_acts
        assert clone.context_before(1).prev_state.to_json() == src.context_before(2).prev_state.to_json()

    def test_clone_context_before_is_its_override(self, mini_corpus, mini_pairs):
        augmented = utter_sub(mini_corpus, mini_pairs)
        src = mini_corpus.get_dialog("d01")
        for clone_id, src_turn in (("d01#p1", 1), ("d01#p2", 2)):
            clone = augmented.get_dialog(clone_id)
            assert clone.context_before(1) == clone.turns[0].context
            assert clone.context_before(1) == src.context_before(src_turn)
            assert augmented.prev_response(clone, 1) == mini_corpus.prev_response(src, src_turn)

    def test_clone_shares_no_state_with_source(self, mini_corpus, mini_pairs):
        augmented = utter_sub(mini_corpus, mini_pairs)
        src = mini_corpus.get_dialog("d01")
        ctx = augmented.get_dialog("d01#p2").turns[0].context
        assert ctx.prev_state is not src.turns[0].state
        assert ctx.prev_acts is not src.turns[0].sys_acts
        ctx.prev_state.requested.add(("restaurant", "area"))
        assert ("restaurant", "area") not in src.turns[0].state.requested

    def test_save_load_save_byte_identical(self, mini_corpus, mini_pairs, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        utter_sub(mini_corpus, mini_pairs).save(a)
        load_canonical(a).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_unfillable_placeholder_skipped(self, mini_corpus, caplog):
        # d04's turn informs only food; a target mentioning [area] cannot be
        # relexicalized with d04's values, so no clone is made.
        fn = DialogFunction("restaurant", ("food",), ())
        pair = ParaphrasePair(("d04", 1), ("d01", 1), fn, 0.5, 5.0, False)
        with caplog.at_level("WARNING"):
            augmented = utter_sub(mini_corpus, [pair])
        assert len(augmented.dialogs) == len(mini_corpus.dialogs)
        assert any("skip" in r.message for r in caplog.records)

    def test_deterministic(self, mini_corpus, mini_pairs, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        utter_sub(mini_corpus, mini_pairs).save(a)
        utter_sub(mini_corpus, list(reversed(mini_pairs))).save(b)
        assert a.read_bytes() == b.read_bytes()


class TestBuildInstances:
    def test_fixture_counts(self, mini_corpus, mini_pairs):
        inst = build_instances(mini_corpus, mini_pairs, epoch_seed=7)
        originals = [i for i in inst if not i.is_paraphrase]
        paras = [i for i in inst if i.is_paraphrase]
        assert len(originals) == 15  # every turn exactly once
        # 12 strictly-covered turns contribute a paraphrase-input instance;
        # the two relaxed targets fail the quality filter (diversity 3.0 < 3.4).
        assert len(paras) == 12
        assert sum(1 for i in originals if i.paraphrase_target is not None) == 14

    def test_paraphrase_adjacent_to_original(self, mini_corpus, mini_pairs):
        inst = build_instances(mini_corpus, mini_pairs, epoch_seed=3)
        for k, i in enumerate(inst):
            if not i.is_paraphrase:
                continue
            prev = inst[k - 1]
            assert (prev.dialog_id, prev.turn) == (i.dialog_id, i.turn)
            assert not prev.is_paraphrase
            # the paraphrase-input instance shares every target
            assert prev.act_target == i.act_target
            assert prev.belief_target == i.belief_target
            assert prev.response_target == i.response_target
            assert prev.paraphrase_target == i.paraphrase_target
            assert prev.user_input != i.user_input

    def test_epoch_seed_determinism(self, mini_corpus, mini_pairs):
        a = build_instances(mini_corpus, mini_pairs, epoch_seed=5)
        b = build_instances(mini_corpus, mini_pairs, epoch_seed=5)
        c = build_instances(mini_corpus, mini_pairs, epoch_seed=6)
        assert a == b
        assert [x.dialog_id for x in a] != [x.dialog_id for x in c]
        assert sorted(x.to_json()["dialog_id"] for x in a) == sorted(
            x.to_json()["dialog_id"] for x in c
        )

    def test_source_none_has_no_paraphrase_inputs(self, mini_corpus, mini_pairs):
        inst = build_instances(mini_corpus, mini_pairs, paraphrase_source="none")
        assert not any(i.is_paraphrase for i in inst)
        assert len(inst) == 15
        # mined targets still supervise the paraphrase decoder
        assert sum(1 for i in inst if i.paraphrase_target is not None) == 14

    def test_self_paraphrase_is_copy_task(self, mini_corpus):
        inst = build_instances(mini_corpus, None, self_paraphrase=True)
        assert len(inst) == 15
        for i in inst:
            assert not i.is_paraphrase
            assert i.paraphrase_target == i.user_input

    def test_model_source_uses_callback(self, mini_corpus):
        good = "hello , i am looking for a [food] restaurant in the [area] of town .".split()

        def generate(instances):
            return [list(good) if (i.dialog_id, i.turn) == ("d01", 1) else None for i in instances]

        inst = build_instances(mini_corpus, None, paraphrase_source="model", generate=generate)
        paras = [i for i in inst if i.is_paraphrase]
        assert len(paras) == 1
        assert paras[0].dialog_id == "d01" and paras[0].user_input == tuple(good)

    def test_model_source_filters_bad_candidates(self, mini_corpus):
        inst = build_instances(
            mini_corpus, None, paraphrase_source="model",
            generate=lambda batch: [list(i.user_input) for i in batch],  # identity fails diversity
        )
        assert not any(i.is_paraphrase for i in inst)

    def test_model_source_generates_once_in_stream_order(self, mini_corpus, mini_pairs):
        calls = []

        def generate(instances):
            calls.append(list(instances))
            # every turn's own user input, reversed: passes the filter for some turns only
            return [list(reversed(i.user_input)) for i in instances]

        inst = build_instances(mini_corpus, mini_pairs, paraphrase_source="model", generate=generate, epoch_seed=4)
        originals = build_instances(mini_corpus, mini_pairs, paraphrase_source="none", epoch_seed=4)
        assert calls == [originals]
        assert [i for i in inst if not i.is_paraphrase] == originals
        paras = [k for k, i in enumerate(inst) if i.is_paraphrase]
        assert 0 < len(paras) < len(originals)
        for k in paras:
            prev = inst[k - 1]
            assert not prev.is_paraphrase and (prev.dialog_id, prev.turn) == (inst[k].dialog_id, inst[k].turn)
            assert inst[k].user_input == tuple(reversed(prev.user_input))
            assert inst[k].paraphrase_target == prev.paraphrase_target

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_model_source_rejects_wrong_length(self, mini_corpus, delta):
        def generate(instances):
            return [None] * (len(instances) + delta)

        with pytest.raises(ValueError, match="results for"):
            build_instances(mini_corpus, None, paraphrase_source="model", generate=generate)

    def test_losses_wiring(self, mini_corpus, mini_pairs):
        only_br = frozenset({LOSS_BELIEF, LOSS_RESPONSE})
        inst = build_instances(mini_corpus, mini_pairs, losses=only_br)
        for i in inst:
            assert i.losses == only_br
            assert i.paraphrase_target is None  # no paraphrase loss requested

    def test_validation(self, mini_corpus):
        with pytest.raises(ValueError):
            build_instances(mini_corpus, None, paraphrase_source="nope")
        with pytest.raises(ValueError):
            build_instances(mini_corpus, None, paraphrase_source="model")
        with pytest.raises(ValueError):
            build_instances(mini_corpus, None, max_targets=0)

    def test_all_losses_default(self, mini_corpus):
        inst = build_instances(mini_corpus, None)
        assert all(i.losses == ALL_LOSSES for i in inst)
        assert LOSS_PARAPHRASE in ALL_LOSSES
