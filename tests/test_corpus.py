import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialaug.corpus import (
    BeliefState,
    Corpus,
    CorpusError,
    DialogAct,
    Ontology,
    SchemaViolation,
    UnknownSymbol,
    corpus_from_json,
    delexicalize,
    load_canonical,
    placeholder,
    relexicalize,
    serialize_acts,
    split,
    subsample,
    tokenize,
)


def base_doc() -> dict:
    return {
        "ontology": {
            "domains": ["restaurant"],
            "slots": {
                "restaurant": {
                    "food": {"informable": True, "requestable": False},
                    "pricerange": {"informable": True, "requestable": True},
                    "name": {"informable": False, "requestable": True},
                }
            },
            "values": {
                "restaurant": {
                    "food": ["thai", "modern european"],
                    "pricerange": ["cheap", "moderate"],
                    "name": ["golden house"],
                }
            },
            "act_types": ["inform", "request"],
        },
        "database": [
            {"domain": "restaurant", "name": "golden house", "food": "thai", "pricerange": "cheap"},
        ],
        "dialogs": [
            {
                "id": "x1",
                "goal": {
                    "constraints": {"restaurant": {"food": "thai"}},
                    "requested": {"restaurant": ["name"]},
                },
                "turns": [
                    {
                        "t": 1,
                        "user": "i want thai food , something cheap .",
                        "state": {
                            "informed": {"restaurant": {"food": "thai", "pricerange": "cheap"}},
                            "requested": [["restaurant", "name"]],
                        },
                        "sys_acts": [{"act": "inform", "domain": "restaurant", "slot": "name"}],
                        "response": "golden house is a cheap thai place .",
                        "domain": "restaurant",
                    }
                ],
            }
        ],
    }


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Hello, World!") == ["hello", ",", "world", "!"]

    def test_preserves_bracket_and_angle_tokens(self):
        assert tokenize("find [food] in <req> area") == ["find", "[food]", "in", "<req>", "area"]

    def test_numbers_kept_whole(self):
        assert tokenize("table for 2 at 18:30") == ["table", "for", "2", "at", "18", ":", "30"]

    def test_placeholder_is_bracketed_slot(self):
        assert placeholder("food") == "[food]"


class TestOntology:
    def test_span_index_orders_longest_first(self):
        ont = Ontology.from_json(base_doc()["ontology"])
        index = ont.span_index()
        for bucket in index.values():
            lengths = [len(entry[0]) for entry in bucket]
            assert lengths == sorted(lengths, reverse=True)
        assert any(entry[0] == ("modern", "european") for entry in index["modern"])

    def test_slot_queries(self):
        ont = Ontology.from_json(base_doc()["ontology"])
        assert ont.informable_slots("restaurant") == ["food", "pricerange"]
        assert ont.requestable_slots("restaurant") == ["name", "pricerange"]
        assert ont.has_slot("restaurant", "food")
        assert not ont.has_slot("restaurant", "area")

    def test_round_trip(self):
        obj = base_doc()["ontology"]
        assert Ontology.from_json(obj).to_json() == obj


class TestActsAndBelief:
    def test_act_serialization(self):
        act = DialogAct("inform", "restaurant", "food")
        assert act.serialize() == ["[restaurant]", "[inform]", "food"]
        assert act.key_token() == "inform-food"
        bare = DialogAct("inform", "restaurant")
        assert bare.serialize() == ["[restaurant]", "[inform]"]
        assert bare.key_token() == "inform"

    def test_serialize_acts_sorted(self):
        acts = [
            DialogAct("request", "restaurant", "area"),
            DialogAct("inform", "restaurant", "name"),
        ]
        tokens = serialize_acts(acts)
        assert tokens == ["[restaurant]", "[inform]", "name", "[restaurant]", "[request]", "area"]

    def test_belief_serialize_sorted_and_delex(self):
        state = BeliefState(
            informed={("restaurant", "pricerange"): "cheap", ("restaurant", "food"): "modern european"},
            requested={("restaurant", "name")},
        )
        assert state.serialize() == [
            "[restaurant]", "food", "modern", "european",
            "[restaurant]", "pricerange", "cheap",
            "<req>", "[restaurant]", "name",
        ]
        assert state.serialize(delex=True) == [
            "[restaurant]", "food", "[food]",
            "[restaurant]", "pricerange", "[pricerange]",
            "<req>", "[restaurant]", "name",
        ]

    def test_parse_inverts_serialize(self):
        ont = Ontology.from_json(base_doc()["ontology"])
        state = BeliefState(
            informed={("restaurant", "food"): "thai", ("restaurant", "pricerange"): "cheap"},
            requested={("restaurant", "name")},
        )
        parsed = BeliefState.parse(state.serialize(), ont)
        assert parsed.informed == {("restaurant", "food"): ["thai"], ("restaurant", "pricerange"): ["cheap"]}
        assert parsed.requested == {("restaurant", "name")}

    def test_parse_tolerates_garbage(self):
        ont = Ontology.from_json(base_doc()["ontology"])
        parsed = BeliefState.parse(["the", "[restaurant]", "bogus", "<req>", "[restaurant]", "name"], ont)
        assert parsed.informed == {}
        assert parsed.requested == {("restaurant", "name")}

    def test_validate_unknown_slot(self):
        ont = Ontology.from_json(base_doc()["ontology"])
        state = BeliefState(informed={("restaurant", "area"): "west"}, requested=set())
        with pytest.raises(UnknownSymbol) as err:
            state.validate(ont, "d9", 2)
        assert "area" in str(err.value)


class TestDelexicalize:
    def setup_method(self):
        self.ont = Ontology.from_json(base_doc()["ontology"])

    def test_longest_match_first(self):
        state = BeliefState()
        utt = delexicalize(tokenize("i like modern european food"), self.ont, state)
        assert list(utt.tokens) == ["i", "like", "[food]", "food"]
        assert len(utt.bindings) == 1
        assert utt.bindings[0].slot == "food"
        assert utt.bindings[0].surface == ("modern", "european")

    def test_state_values_take_precedence(self):
        # "cheap" is a pricerange value; an informed state value for food of the
        # same surface form must win on equal span length.
        ont = Ontology.from_json(
            {
                "domains": ["restaurant"],
                "slots": {
                    "restaurant": {
                        "food": {"informable": True, "requestable": False},
                        "pricerange": {"informable": True, "requestable": False},
                    }
                },
                "values": {"restaurant": {"food": [], "pricerange": ["cheap"]}},
                "act_types": ["inform"],
            }
        )
        state = BeliefState(informed={("restaurant", "food"): "cheap"}, requested=set())
        utt = delexicalize(tokenize("cheap food"), ont, state)
        assert list(utt.tokens) == ["[food]", "food"]

    def test_idempotent_on_placeholder_tokens(self):
        state = BeliefState()
        once = delexicalize(tokenize("i want thai food"), self.ont, state)
        twice = delexicalize(list(once.tokens), self.ont, state)
        assert twice.tokens == once.tokens

    def test_relexicalize_round_trip(self):
        state = BeliefState()
        surface = tokenize("i want modern european food , cheap please .")
        utt = delexicalize(surface, self.ont, state)
        assert "[food]" in utt.tokens and "[pricerange]" in utt.tokens
        assert relexicalize(utt) == surface

    def test_full_fixture_round_trip(self, mini_corpus):
        for dialog in mini_corpus.dialogs:
            for turn in dialog.turns:
                assert relexicalize(turn.user_delex) == turn.user
                assert relexicalize(turn.response_delex) == turn.response


class TestCorpusValidation:
    def test_loads_valid_doc(self):
        corpus = corpus_from_json(base_doc())
        assert len(corpus.dialogs) == 1
        turn = corpus.dialogs[0].turns[0]
        assert list(turn.user_delex.tokens) == [
            "i", "want", "[food]", "food", ",", "something", "[pricerange]", ".",
        ]

    def test_empty_dialog_list_ok(self):
        doc = base_doc()
        doc["dialogs"] = []
        assert corpus_from_json(doc).dialogs == []

    def test_unknown_state_slot_names_offender(self):
        doc = base_doc()
        doc["dialogs"][0]["turns"][0]["state"]["informed"]["restaurant"] = {"area": "west"}
        with pytest.raises(UnknownSymbol) as err:
            corpus_from_json(doc)
        assert "area" in str(err.value)

    def test_non_contiguous_turn_index(self):
        doc = base_doc()
        extra = copy.deepcopy(doc["dialogs"][0]["turns"][0])
        extra["t"] = 3
        doc["dialogs"][0]["turns"].append(extra)
        with pytest.raises(SchemaViolation) as err:
            corpus_from_json(doc)
        assert "x1" in str(err.value)

    def test_duplicate_dialog_id(self):
        doc = base_doc()
        doc["dialogs"].append(copy.deepcopy(doc["dialogs"][0]))
        with pytest.raises(CorpusError):
            corpus_from_json(doc)

    def test_db_record_missing_informable(self):
        doc = base_doc()
        del doc["database"][0]["pricerange"]
        with pytest.raises(SchemaViolation):
            corpus_from_json(doc)

    def test_unknown_act_type(self):
        doc = base_doc()
        doc["dialogs"][0]["turns"][0]["sys_acts"] = [{"act": "offer", "domain": "restaurant"}]
        with pytest.raises(CorpusError):
            corpus_from_json(doc)

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_user_utterance(self, text):
        doc = base_doc()
        doc["dialogs"][0]["turns"][0]["user"] = text
        with pytest.raises(SchemaViolation) as err:
            corpus_from_json(doc)
        assert err.value.fieldname == "user"
        assert "empty" in str(err.value)

    def test_empty_user_utterance_sharing_a_bucket(self, tmp_path):
        # An empty turn with bucket-mates would reach sentence_bleu in mining.
        from dialaug.synth import synth_corpus

        doc = synth_corpus(4).to_json()
        doc["dialogs"][0]["turns"][1]["user"] = ""
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaViolation) as err:
            load_canonical(path)
        assert err.value.turn == 2


class TestCorpusAccessors:
    def test_db_query_and_bucket(self, mini_corpus):
        hits = mini_corpus.db_query("restaurant", {("restaurant", "food"): "thai"})
        assert {h["name"] for h in hits} == {"the lucky star", "blue spice", "bangkok house", "siam palace"}
        assert mini_corpus.db_bucket("restaurant", {("restaurant", "food"): "thai"}) == 2
        assert mini_corpus.db_bucket(
            "restaurant",
            {("restaurant", "food"): "thai", ("restaurant", "area"): "east"},
        ) == 1
        assert mini_corpus.db_bucket("restaurant", {("restaurant", "food"): "sushi"}) == 0

    def test_db_query_case_insensitive(self, mini_corpus):
        hits = mini_corpus.db_query("restaurant", {("restaurant", "food"): "THAI"})
        assert len(hits) == 4

    def test_prev_accessors(self, mini_corpus):
        d = mini_corpus.get_dialog("d01")
        assert mini_corpus.prev_response(d, 1) == []
        assert mini_corpus.prev_state(d, 1) == BeliefState()
        assert mini_corpus.prev_acts(d, 1) == []
        prev = mini_corpus.prev_response(d, 2)
        assert "[name]" in prev
        assert mini_corpus.prev_state(d, 2) == d.turns[0].state
        assert [a.key_token() for a in mini_corpus.prev_acts(d, 2)] == ["inform-name"]

    def test_save_load_byte_identical(self, tmp_path, mini_corpus):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        mini_corpus.save(p1)
        load_canonical(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSplitSubsample:
    def test_split_partition(self, mini_corpus):
        a, b, c = split(mini_corpus, (3, 1, 1), seed=13)
        ids = [d.id for d in a.dialogs] + [d.id for d in b.dialogs] + [d.id for d in c.dialogs]
        assert sorted(ids) == sorted(d.id for d in mini_corpus.dialogs)
        assert len(set(ids)) == len(ids)
        # floor sizing with leftovers to train: 12 * (3/5) = 7.2 -> 7 + leftover
        assert (len(a.dialogs), len(b.dialogs), len(c.dialogs)) == (8, 2, 2)

    def test_split_deterministic(self, mini_corpus):
        a1, b1, c1 = split(mini_corpus, (3, 1, 1), seed=13)
        a2, b2, c2 = split(mini_corpus, (3, 1, 1), seed=13)
        assert [d.id for d in a1.dialogs] == [d.id for d in a2.dialogs]
        assert [d.id for d in b1.dialogs] == [d.id for d in b2.dialogs]
        assert [d.id for d in c1.dialogs] == [d.id for d in c2.dialogs]

    def test_split_seed_changes_partition(self, mini_corpus):
        _, b1, _ = split(mini_corpus, (3, 1, 1), seed=13)
        _, b2, _ = split(mini_corpus, (3, 1, 1), seed=14)
        assert [d.id for d in b1.dialogs] != [d.id for d in b2.dialogs]

    def test_split_too_few_dialogs(self, mini_corpus):
        tiny = Corpus(mini_corpus.ontology, mini_corpus.database, mini_corpus.dialogs[:2])
        with pytest.raises(ValueError):
            split(tiny, (1, 1, 1), seed=0)

    def test_subsample_counts_and_determinism(self, mini_corpus):
        sub = subsample(mini_corpus, 0.2, seed=5)
        assert len(sub.dialogs) == 3  # ceil(0.2 * 12)
        again = subsample(mini_corpus, 0.2, seed=5)
        assert [d.id for d in sub.dialogs] == [d.id for d in again.dialogs]

    def test_subsample_bad_fraction(self, mini_corpus):
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                subsample(mini_corpus, fraction, seed=0)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_split_property_disjoint_exhaustive(self, mini_corpus, seed):
        parts = split(mini_corpus, (2, 1, 1), seed=seed)
        ids = [d.id for part in parts for d in part.dialogs]
        assert sorted(ids) == sorted(d.id for d in mini_corpus.dialogs)
