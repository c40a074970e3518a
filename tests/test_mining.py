import copy
import math
from collections import Counter

import pytest

from dialaug.corpus import corpus_from_json
from dialaug.mining import (
    DialogFunction,
    MiningConfig,
    ParaphrasePair,
    export_pairs,
    extract_dialog_function,
    import_pairs,
    index_by_function,
    mine_pairs,
    orphan_turns,
    relax_for_orphans,
    targets_by_turn,
)
from dialaug.textmetrics import (
    SMOOTH_ADD_ONE,
    SMOOTH_NONE,
    BleuConfig,
    _combine,
    bleu_both_ways,
    diversity,
    ngram_profile,
    sentence_bleu,
)

from conftest import random_token_seq
from oracles import ref_dialog_function, ref_mine


class TestDialogFunction:
    def test_first_turn_function(self, mini_corpus):
        d = mini_corpus.get_dialog("d01")
        fn = extract_dialog_function(d, 1)
        assert fn == DialogFunction("restaurant", ("area", "food"), ())

    def test_second_turn_uses_prev_acts_and_requested_diff(self, mini_corpus):
        d = mini_corpus.get_dialog("d01")
        fn = extract_dialog_function(d, 2)
        assert fn == DialogFunction("restaurant", ("name",), ("inform-name",))

    def test_inline_request_joins_slots(self, mini_corpus):
        d = mini_corpus.get_dialog("d07")
        fn = extract_dialog_function(d, 1)
        assert fn == DialogFunction("restaurant", ("area", "food", "name"), ())

    def test_include_requested_false_merges_buckets(self, mini_corpus):
        with_req = index_by_function(mini_corpus, include_requested=True)
        without = index_by_function(mini_corpus, include_requested=False)
        # Dropping requested slots merges the inline-request bucket into the
        # plain inform bucket, so there are strictly fewer buckets.
        assert len(without) < len(with_req)
        merged = DialogFunction("restaurant", ("area", "food"), ())
        assert len(without[merged]) == 3 + 6

    def test_out_of_range_turn(self, mini_corpus):
        with pytest.raises(IndexError):
            extract_dialog_function(mini_corpus.get_dialog("d01"), 3)

    def test_matches_independent_extraction(self, mini_corpus):
        for dialog in mini_corpus.dialogs:
            for turn in dialog.turns:
                fn = extract_dialog_function(dialog, turn.index)
                assert (fn.domain, fn.slots, fn.prev_acts) == ref_dialog_function(mini_corpus, dialog, turn)

    def test_json_round_trip(self):
        fn = DialogFunction("restaurant", ("area", "food"), ("inform-name",))
        assert DialogFunction.from_json(fn.to_json()) == fn


class TestIndex:
    def test_fixture_bucket_sizes(self, mini_corpus):
        index = index_by_function(mini_corpus)
        assert sorted(len(refs) for refs in index.values()) == [1, 2, 3, 3, 6]

    def test_refs_ordered(self, mini_corpus):
        index = index_by_function(mini_corpus)
        for refs in index.values():
            assert refs == sorted(refs)

    def test_every_user_turn_indexed(self, mini_corpus):
        index = index_by_function(mini_corpus)
        total = sum(len(refs) for refs in index.values())
        assert total == sum(len(d.turns) for d in mini_corpus.dialogs)


class TestMinePairs:
    def test_matches_brute_force_oracle(self, mini_corpus):
        got = {(p.src, p.tgt) for p in mine_pairs(mini_corpus)}
        want = ref_mine(mini_corpus, 0.2, 3.4)
        assert got == want
        assert len(got) == 34

    def test_all_pairs_pass_thresholds(self, mini_corpus):
        for p in mine_pairs(mini_corpus):
            assert p.bleu >= 0.2
            assert p.diversity >= 3.4
            assert not p.relaxed

    def test_canonical_order(self, mini_corpus):
        pairs = mine_pairs(mini_corpus)
        keys = [(p.src, p.tgt) for p in pairs]
        assert keys == sorted(keys)

    def test_threshold_monotonicity(self, mini_corpus):
        loose = {(p.src, p.tgt) for p in mine_pairs(mini_corpus, MiningConfig(bleu_threshold=0.1, diversity_threshold=2.0))}
        tight = {(p.src, p.tgt) for p in mine_pairs(mini_corpus, MiningConfig(bleu_threshold=0.3, diversity_threshold=5.0))}
        base = {(p.src, p.tgt) for p in mine_pairs(mini_corpus)}
        assert tight <= base <= loose

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MiningConfig(bleu_threshold=-0.1)
        with pytest.raises(ValueError):
            MiningConfig(diversity_threshold=-0.1)
        with pytest.raises(TypeError):
            MiningConfig(relax_step=0.5)  # relaxation has no step


class TestRelaxation:
    def test_fixture_relaxation_case(self, mini_corpus):
        strict = mine_pairs(mini_corpus)
        extra = relax_for_orphans(mini_corpus, strict)
        assert {p.src[0] for p in extra} == {"d04", "d05"}
        for p in extra:
            assert p.relaxed
            assert p.diversity == 3.0  # the most diverse candidate, below the strict bar of 3.4
            assert p.bleu >= 0.2

    def test_relaxation_only_adds_uncovered_sources(self, mini_corpus):
        strict = mine_pairs(mini_corpus)
        covered = {p.src for p in strict}
        for p in relax_for_orphans(mini_corpus, strict):
            assert p.src not in covered

    def test_singleton_bucket_stays_orphan(self, mini_corpus):
        strict = mine_pairs(mini_corpus)
        pairs = strict + relax_for_orphans(mini_corpus, strict)
        orphans = orphan_turns(mini_corpus, pairs)
        assert [(o["dialog"], o["turn"]) for o in orphans] == [("d06", 1)]
        assert orphans[0]["bucket_size"] == 1

    def test_every_non_singleton_turn_covered_after_relaxation(self, mini_corpus):
        strict = mine_pairs(mini_corpus)
        pairs = strict + relax_for_orphans(mini_corpus, strict)
        covered = {p.src for p in pairs}
        index = index_by_function(mini_corpus)
        for fn, refs in index.items():
            if len(refs) < 2:
                continue
            for ref in refs:
                assert ref in covered, (fn, ref)

    def test_bleu_threshold_never_relaxed(self, mini_corpus):
        # Relaxation lowers only the diversity bar; every relaxed pair must
        # still clear the strict BLEU threshold.
        cfg = MiningConfig(bleu_threshold=0.99, diversity_threshold=3.4)
        strict = mine_pairs(mini_corpus, cfg)
        assert strict == []
        for p in relax_for_orphans(mini_corpus, strict, cfg):
            assert p.bleu >= cfg.bleu_threshold
            assert p.relaxed

    def test_floor_threshold_admits_zero_diversity(self, mini_corpus):
        # At the floor (diversity bar 0.0, inclusive) even identical
        # delexicalized turns qualify, so a high-BLEU config relaxes in
        # same-template pairs with diversity 0.
        cfg = MiningConfig(bleu_threshold=0.99, diversity_threshold=3.4)
        extra = relax_for_orphans(mini_corpus, [], cfg)
        assert extra
        assert all(p.diversity == 0.0 and p.bleu == 1.0 for p in extra)


class TestPairIO:
    def test_round_trip(self, mini_corpus, tmp_path):
        strict = mine_pairs(mini_corpus)
        pairs = strict + relax_for_orphans(mini_corpus, strict)
        path = tmp_path / "pairs.jsonl"
        export_pairs(pairs, path)
        again = import_pairs(path)
        assert [(p.src, p.tgt, p.relaxed) for p in again] == sorted(
            [(p.src, p.tgt, p.relaxed) for p in pairs]
        )
        assert {(p.src, p.tgt): (p.bleu, p.diversity) for p in again} == {
            (p.src, p.tgt): (p.bleu, p.diversity) for p in pairs
        }

    def test_export_byte_deterministic(self, mini_corpus, tmp_path):
        pairs = mine_pairs(mini_corpus)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_pairs(pairs, p1)
        export_pairs(list(reversed(pairs)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"src": ["a", 1]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            import_pairs(path)


class TestTargets:
    def test_preference_order(self):
        fn = DialogFunction("restaurant", ("food",), ())
        mk = lambda tgt, bleu, div, relaxed=False: ParaphrasePair(("a", 1), tgt, fn, bleu, div, relaxed)
        pairs = [
            mk(("b", 1), 0.5, 4.0),
            mk(("c", 1), 0.9, 6.0),
            mk(("d", 1), 0.4, 6.0),
            mk(("e", 1), 0.9, 9.0, relaxed=True),
        ]
        ranked = targets_by_turn(pairs)[("a", 1)]
        assert [p.tgt for p in ranked] == [("c", 1), ("d", 1), ("b", 1), ("e", 1)]


# ---- reference: the pairwise mining loop that bucket scoring replaced --------
# Kept verbatim (per-call n-gram Counters, Wagner-Fischer distance, every
# ordered pair scored on its own, relaxation re-scoring its rows) so the
# bucket scorer must reproduce it exactly, floats included.


def _delex_tokens(corpus, ref):
    dialog = corpus.get_dialog(ref[0])
    return dialog.turns[ref[1] - 1].user_delex.tokens


def _old_ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _old_clipped_matches(hyp, ref, n: int) -> tuple[int, int]:
    """(clipped match count, total hypothesis n-gram count) for order n."""
    hyp_counts = _old_ngrams(hyp, n)
    total = sum(hyp_counts.values())
    if total == 0:
        return 0, 0
    ref_counts = _old_ngrams(ref, n)
    matches = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    return matches, total


def old_sentence_bleu(hyp, ref, cfg: BleuConfig = BleuConfig()) -> float:
    if not hyp or not ref:
        raise ValueError("sentence_bleu requires non-empty hypothesis and reference")
    matches, totals = [], []
    for n in range(1, cfg.max_order + 1):
        m, t = _old_clipped_matches(hyp, ref, n)
        matches.append(m)
        totals.append(t)
    return _combine(matches, totals, len(hyp), len(ref), cfg.smoothing)


def old_diversity(a, b) -> int:
    ta = list(getattr(a, "tokens", a))
    tb = list(getattr(b, "tokens", b))
    if not ta:
        return len(tb)
    if not tb:
        return len(ta)
    prev = list(range(len(tb) + 1))
    for i, tok_a in enumerate(ta, start=1):
        cur = [i] + [0] * len(tb)
        for j, tok_b in enumerate(tb, start=1):
            cost = 0 if tok_a == tok_b else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[-1]


def old_mine_pairs(corpus, cfg: MiningConfig = MiningConfig()) -> list[ParaphrasePair]:
    index = index_by_function(corpus, cfg.include_requested_slots)
    pairs: list[ParaphrasePair] = []
    for df in sorted(index):
        refs = index[df]
        if len(refs) < 2:
            continue
        toks = {ref: _delex_tokens(corpus, ref) for ref in refs}
        for src in refs:
            for tgt in refs:
                if src == tgt:
                    continue
                b = old_sentence_bleu(list(toks[src]), list(toks[tgt]), cfg.bleu)
                if b < cfg.bleu_threshold:
                    continue
                d = float(old_diversity(toks[src], toks[tgt]))
                if d < cfg.diversity_threshold:
                    continue
                pairs.append(ParaphrasePair(src=src, tgt=tgt, function=df, bleu=b, diversity=d))
    pairs.sort(key=lambda p: (p.src, p.tgt))
    return pairs


# The step by which the reference loop lowers the diversity bar; the library
# has no step, since any step admits the same pairs.
OLD_RELAX_STEP = 0.5


def old_relax_for_orphans(
    corpus, pairs, cfg: MiningConfig = MiningConfig(), step: float = OLD_RELAX_STEP
) -> list[ParaphrasePair]:
    index = index_by_function(corpus, cfg.include_requested_slots)
    covered = {p.src for p in pairs}
    extra: list[ParaphrasePair] = []
    for df in sorted(index):
        refs = index[df]
        if len(refs) < 2:
            continue
        toks = {ref: _delex_tokens(corpus, ref) for ref in refs}
        for src in refs:
            if src in covered:
                continue
            candidates = []
            for tgt in refs:
                if tgt == src:
                    continue
                b = old_sentence_bleu(list(toks[src]), list(toks[tgt]), cfg.bleu)
                if b < cfg.bleu_threshold:
                    continue
                candidates.append((tgt, b, float(old_diversity(toks[src], toks[tgt]))))
            if not candidates:
                continue
            threshold = cfg.diversity_threshold
            while threshold > cfg.relax_floor:
                threshold = max(threshold - step, cfg.relax_floor)
                passing = [c for c in candidates if c[2] >= threshold]
                if passing:
                    passing.sort(key=lambda c: (-c[2], -c[1], c[0]))
                    tgt, b, d = passing[0]
                    extra.append(ParaphrasePair(src=src, tgt=tgt, function=df, bleu=b, diversity=d, relaxed=True))
                    break
    extra.sort(key=lambda p: (p.src, p.tgt))
    return extra


def assert_same_as_old(corpus, cfg: MiningConfig) -> list[ParaphrasePair]:
    # ParaphrasePair equality compares every field, floats by ==.
    mined = mine_pairs(corpus, cfg)
    assert mined == old_mine_pairs(corpus, cfg)
    assert relax_for_orphans(corpus, mined, cfg) == old_relax_for_orphans(corpus, mined, cfg)
    # With nothing covered, relaxation scores every row of every bucket.
    assert relax_for_orphans(corpus, [], cfg) == old_relax_for_orphans(corpus, [], cfg)
    return mined


EQUIVALENCE_CONFIGS = [
    MiningConfig(),
    MiningConfig(include_requested_slots=False),
    MiningConfig(bleu_threshold=0.1, diversity_threshold=2.0),
    MiningConfig(bleu_threshold=0.35, diversity_threshold=5.0, relax_floor=1.0),
    *(
        MiningConfig(bleu=BleuConfig(max_order=order, smoothing=smoothing))
        for order in (1, 2, 3, 4)
        for smoothing in (SMOOTH_ADD_ONE, SMOOTH_NONE)
    ),
]


class TestBucketScoringEquivalence:
    def test_metrics_bit_identical_to_old(self, rng):
        for _ in range(200):
            a, b = random_token_seq(rng, max_len=20), random_token_seq(rng, max_len=20)
            assert diversity(a, b) == old_diversity(a, b)
            for order in (1, 2, 3, 4):
                for smoothing in (SMOOTH_ADD_ONE, SMOOTH_NONE):
                    cfg = BleuConfig(order, smoothing)
                    old = (old_sentence_bleu(a, b, cfg), old_sentence_bleu(b, a, cfg))
                    assert sentence_bleu(a, b, cfg) == old[0]
                    assert bleu_both_ways(ngram_profile(a, order), ngram_profile(b, order), smoothing) == old

    @pytest.mark.parametrize("step", [0.01, 1.5, 3.3, 100.0])
    @pytest.mark.parametrize("cfg", [
        MiningConfig(),
        MiningConfig(bleu_threshold=0.35, diversity_threshold=5.0, relax_floor=1.0),
        MiningConfig(relax_floor=2.0),
    ], ids=repr)
    def test_relaxation_equals_reference_at_any_step(self, mini_corpus, synth30, cfg, step):
        for corpus in (mini_corpus, synth30):
            mined = mine_pairs(corpus, cfg)
            assert relax_for_orphans(corpus, mined, cfg) == old_relax_for_orphans(corpus, mined, cfg, step)
            assert relax_for_orphans(corpus, [], cfg) == old_relax_for_orphans(corpus, [], cfg, step)

    def test_no_relaxation_when_floor_reaches_threshold(self, mini_corpus):
        cfg = MiningConfig(diversity_threshold=2.0, relax_floor=2.0)
        assert relax_for_orphans(mini_corpus, [], cfg) == [] == old_relax_for_orphans(mini_corpus, [], cfg)

    @pytest.mark.parametrize("cfg", EQUIVALENCE_CONFIGS, ids=repr)
    def test_mini_corpus(self, mini_corpus, cfg):
        assert_same_as_old(mini_corpus, cfg)

    @pytest.mark.parametrize("cfg", EQUIVALENCE_CONFIGS, ids=repr)
    def test_synth_corpus(self, synth30, cfg):
        assert assert_same_as_old(synth30, cfg)

    def test_bleu_passing_one_direction_only(self, mini_corpus_json):
        # One bucket of three single-turn dialogs.  The short first turn
        # matches the long second one better than the reverse, but the
        # brevity penalty pulls its BLEU below the bar while the long turn's
        # BLEU against the short one (no penalty) clears it.
        texts = [
            "british food in the east .",
            "i would like some british food in the east of town please .",
            "any british place in the east ?",
        ]
        base = mini_corpus_json["dialogs"][0]
        dialogs = []
        for i, text in enumerate(texts):
            d = copy.deepcopy(base)
            d["id"], d["turns"] = f"x{i}", d["turns"][:1]
            d["turns"][0]["user"] = text
            dialogs.append(d)
        corpus = corpus_from_json(dict(mini_corpus_json, dialogs=dialogs))
        assert len(index_by_function(corpus)) == 1
        short, long = (list(_delex_tokens(corpus, (f"x{i}", 1))) for i in (0, 1))
        forward, backward = old_sentence_bleu(short, long), old_sentence_bleu(long, short)
        threshold = (forward + backward) / 2
        penalty = math.exp(1.0 - len(long) / len(short))
        assert forward < threshold <= backward and forward / penalty > threshold
        cfg = MiningConfig(bleu_threshold=threshold, diversity_threshold=0.0)
        mined = assert_same_as_old(corpus, cfg)
        assert (("x1", 1), ("x0", 1)) in {(p.src, p.tgt) for p in mined}
        assert (("x0", 1), ("x1", 1)) not in {(p.src, p.tgt) for p in mined}
