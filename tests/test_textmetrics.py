import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialaug.textmetrics import SMOOTH_ADD_ONE, SMOOTH_NONE, BleuConfig, corpus_bleu, diversity, sentence_bleu

from conftest import random_token_seq
from oracles import ref_corpus_bleu, ref_edit_distance, ref_sentence_bleu

tokens = st.lists(st.sampled_from(["a", "b", "the", "cat", "sat", "[food]", "."]), min_size=1, max_size=10)


class TestSentenceBleu:
    def test_identity_is_one(self):
        assert sentence_bleu(["the", "cat", "sat"], ["the", "cat", "sat"]) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert sentence_bleu(["a", "b"], ["c", "d"]) == 0.0

    def test_known_value_short_pair(self):
        # hyp "the cat sat" vs ref "the cat sat down": all precisions 1,
        # brevity penalty exp(1 - 4/3).
        got = sentence_bleu(["the", "cat", "sat"], ["the", "cat", "sat", "down"])
        assert got == pytest.approx(math.exp(1.0 - 4.0 / 3.0), abs=1e-12)

    def test_empty_inputs_error(self):
        with pytest.raises(ValueError):
            sentence_bleu([], ["a"])
        with pytest.raises(ValueError):
            sentence_bleu(["a"], [])

    def test_smoothing_only_on_higher_orders(self):
        # One shared unigram out of two, no shared bigram: order 2 smoothes to
        # (0+1)/(1+1); orders 3 and 4 have no hypothesis n-grams and drop out;
        # unsmoothed collapses to 0.
        hyp, ref = ["a", "x"], ["a", "y"]
        smoothed = sentence_bleu(hyp, ref)
        assert smoothed == pytest.approx((0.5 * 0.5) ** 0.5, abs=1e-12)
        assert sentence_bleu(hyp, ref, BleuConfig(smoothing=SMOOTH_NONE)) == 0.0

    def test_identity_is_one_even_unsmoothed_and_short(self):
        for seq in (["hi"], ["a", "b"], ["a", "b", "c"]):
            assert sentence_bleu(seq, seq, BleuConfig(smoothing=SMOOTH_NONE)) == pytest.approx(1.0)

    def test_max_order_validation(self):
        with pytest.raises(ValueError):
            BleuConfig(max_order=0)
        with pytest.raises(ValueError):
            BleuConfig(max_order=5)
        with pytest.raises(ValueError):
            BleuConfig(smoothing="laplace")

    def test_oracle_equivalence_100_random_pairs(self, rng):
        for _ in range(100):
            hyp = random_token_seq(rng)
            ref = random_token_seq(rng)
            for smoothing in (SMOOTH_ADD_ONE, SMOOTH_NONE):
                got = sentence_bleu(hyp, ref, BleuConfig(smoothing=smoothing))
                want = ref_sentence_bleu(hyp, ref, smoothing=smoothing)
                assert got == pytest.approx(want, abs=1e-9), (hyp, ref, smoothing)

    @given(hyp=tokens, ref=tokens)
    @settings(max_examples=150, deadline=None)
    def test_range_and_identity_property(self, hyp, ref):
        value = sentence_bleu(hyp, ref)
        assert 0.0 <= value <= 1.0
        assert sentence_bleu(hyp, hyp) == pytest.approx(1.0)


class TestCorpusBleu:
    def test_all_equal_is_one(self):
        seqs = [["a", "b", "c"], ["d", "e"]]
        assert corpus_bleu(seqs, seqs) == pytest.approx(1.0)

    def test_singleton_equals_unsmoothed_sentence(self, rng):
        for _ in range(30):
            hyp, ref = random_token_seq(rng), random_token_seq(rng)
            assert corpus_bleu([hyp], [ref]) == pytest.approx(
                sentence_bleu(hyp, ref, BleuConfig(smoothing=SMOOTH_NONE)), abs=1e-12
            )

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            corpus_bleu([["a"]], [])

    def test_oracle_equivalence_batches(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            hyps = [random_token_seq(rng) for _ in range(n)]
            refs = [random_token_seq(rng) for _ in range(n)]
            assert corpus_bleu(hyps, refs) == pytest.approx(ref_corpus_bleu(hyps, refs), abs=1e-9)

    def test_ten_pair_fixture_matches_oracle(self, rng):
        hyps = [random_token_seq(rng) for _ in range(10)]
        refs = [random_token_seq(rng) for _ in range(10)]
        assert corpus_bleu(hyps, refs) == pytest.approx(ref_corpus_bleu(hyps, refs), abs=1e-9)


class TestDiversity:
    def test_identity_zero(self):
        assert diversity(["a", "b"], ["a", "b"]) == 0

    def test_hand_computed_example(self):
        a = ["cheap", "please", "."]
        b = ["could", "you", "find", "me", "a", "cheap", "restaurant", "."]
        assert diversity(a, b) == 6
        assert diversity(b, a) == 6

    def test_accepts_tokens_attribute(self):
        class Holder:
            tokens = ["x", "y"]

        assert diversity(Holder(), ["x", "z"]) == 1

    def test_empty_sides(self):
        assert diversity([], ["a", "b"]) == 2
        assert diversity(["a"], []) == 1
        assert diversity([], []) == 0

    def test_oracle_equivalence_100_random_pairs(self, rng):
        for _ in range(100):
            a, b = random_token_seq(rng), random_token_seq(rng)
            assert diversity(a, b) == ref_edit_distance(a, b)

    @given(a=tokens, b=tokens, c=tokens)
    @settings(max_examples=150, deadline=None)
    def test_metric_axioms(self, a, b, c):
        assert diversity(a, b) >= 0
        assert diversity(a, a) == 0
        assert diversity(a, b) == diversity(b, a)
        assert diversity(a, c) <= diversity(a, b) + diversity(b, c)


class Holder:
    def __init__(self, tokens):
        self.tokens = tokens


def _seq_pairs(max_size: int):
    """Pairs of sequences over one small alphabet (1-5 symbols), so matches and repeats are common."""
    def pair(k):
        symbols = st.sampled_from(["w", "x", "y", "z", "[slot]"][:k])
        seq = st.integers(0, max_size).flatmap(lambda n: st.lists(symbols, min_size=n, max_size=n))
        return st.tuples(seq, seq)

    return st.integers(1, 5).flatmap(pair)


class TestOracleProperties:
    # Up to 150 tokens, so bit vectors cross the 64-bit word boundary.
    @given(ab=_seq_pairs(150), wrap=st.tuples(st.booleans(), st.booleans()))
    @settings(max_examples=150, deadline=None)
    def test_diversity_matches_oracle(self, ab, wrap):
        a, b = ab
        want = ref_edit_distance(a, b)
        got = diversity(Holder(tuple(a)) if wrap[0] else a, Holder(tuple(b)) if wrap[1] else b)
        assert type(got) is int and got == want

    @given(
        pair=_seq_pairs(20).filter(lambda p: p[0] and p[1]),
        order=st.integers(1, 4),
        smoothing=st.sampled_from([SMOOTH_ADD_ONE, SMOOTH_NONE]),
    )
    @settings(max_examples=200, deadline=None)
    def test_sentence_bleu_matches_oracle(self, pair, order, smoothing):
        hyp, ref = pair
        got = sentence_bleu(hyp, ref, BleuConfig(max_order=order, smoothing=smoothing))
        assert got == pytest.approx(ref_sentence_bleu(hyp, ref, order, smoothing), abs=1e-9)

    @given(
        pairs=st.lists(_seq_pairs(15).filter(lambda p: p[0] and p[1]), min_size=1, max_size=6),
        order=st.integers(1, 4),
        smoothing=st.sampled_from([SMOOTH_ADD_ONE, SMOOTH_NONE]),
    )
    @settings(max_examples=150, deadline=None)
    def test_corpus_bleu_matches_oracle(self, pairs, order, smoothing):
        hyps, refs = [p[0] for p in pairs], [p[1] for p in pairs]
        got = corpus_bleu(hyps, refs, BleuConfig(max_order=order, smoothing=smoothing))
        assert got == pytest.approx(ref_corpus_bleu(hyps, refs, order, smoothing), abs=1e-9)
