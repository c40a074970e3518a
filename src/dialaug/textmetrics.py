"""Surface-text similarity metrics: BLEU (sentence and corpus level) and token edit distance."""

from __future__ import annotations

import math
from dataclasses import dataclass

SMOOTH_NONE = "none"
SMOOTH_ADD_ONE = "add-one-on-zero"


@dataclass(frozen=True)
class BleuConfig:
    max_order: int = 4
    smoothing: str = SMOOTH_ADD_ONE

    def __post_init__(self):
        if not (1 <= self.max_order <= 4):
            raise ValueError(f"max_order must be in [1, 4], got {self.max_order}")
        if self.smoothing not in (SMOOTH_NONE, SMOOTH_ADD_ONE):
            raise ValueError(f"unknown smoothing {self.smoothing!r}")


# One set per order 1..max_order; see ngram_profile.
NgramProfile = tuple[frozenset, ...]


def ngram_profile(tokens, max_order: int) -> NgramProfile:
    """The n-grams of `tokens` for orders 1..max_order, one set of (n-gram, occurrence number) keys per order.

    Numbering the repeats turns each order's multiset of n-grams into a set, so
    a set's size is the order's n-gram total (order 1: the length), and the
    clipped match count Σ min(count_a, count_b) is the size of an intersection.
    """
    grams = []
    for n in range(1, max_order + 1):
        seen: dict = {}
        keys = []
        for g in zip(*(tokens[i:] for i in range(n))):
            k = seen.get(g, 0)
            seen[g] = k + 1
            keys.append((g, k))
        grams.append(frozenset(keys))
    return tuple(grams)


def clipped_matches(a: NgramProfile, b: NgramProfile) -> list[int]:
    """Clipped n-gram matches per order; symmetric, so one call serves both directions."""
    return [len(ga & gb) for ga, gb in zip(a, b)]


def _combine(matches: list[int], totals: list[int], hyp_len: int, ref_len: int, smoothing: str) -> float:
    # Orders with no hypothesis n-grams at all (text shorter than the order)
    # are vacuous and excluded from the mean; identity then scores 1 at any
    # length and in any smoothing mode.
    logs = []
    for order0, (m, t) in enumerate(zip(matches, totals)):
        if t == 0:
            continue
        if m == 0 and smoothing == SMOOTH_ADD_ONE and order0 > 0:
            # Zero higher-order counts only; unigram zeros still collapse to 0.
            m, t = m + 1, t + 1
        if m == 0:
            return 0.0
        logs.append(math.log(m / t))
    if not logs:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(logs) / len(logs))


def sentence_bleu(hyp: list[str], ref: list[str], cfg: BleuConfig = BleuConfig()) -> float:
    """BLEU of one hypothesis against one reference, in [0, 1].

    Geometric mean of modified n-gram precisions for orders 1..max_order times
    the brevity penalty.  With add-one smoothing, higher-order precisions with
    zero matches are smoothed to (m+1)/(t+1) so short utterances do not
    collapse to zero; pairs sharing no unigrams still score 0.
    """
    return corpus_bleu([hyp], [ref], cfg)


def bleu_both_ways(a: NgramProfile, b: NgramProfile, smoothing: str) -> tuple[float, float]:
    """(BLEU of a against b, BLEU of b against a), each equal to its sentence_bleu; one intersection serves both."""
    m = clipped_matches(a, b)
    ta, tb = [len(g) for g in a], [len(g) for g in b]
    return _combine(m, ta, ta[0], tb[0], smoothing), _combine(m, tb, tb[0], ta[0], smoothing)


def corpus_bleu(hyps: list[list[str]], refs: list[list[str]], cfg: BleuConfig = BleuConfig(smoothing=SMOOTH_NONE)) -> float:
    """Corpus-level BLEU: n-gram statistics are summed over pairs, then combined.

    A singleton corpus is the sentence_bleu of that pair (unsmoothed by default).
    """
    if len(hyps) != len(refs):
        raise ValueError(f"hyps and refs must have equal length, got {len(hyps)} vs {len(refs)}")
    matches = [0] * cfg.max_order
    totals = [0] * cfg.max_order
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        if not hyp or not ref:
            raise ValueError("BLEU requires non-empty hypotheses and references")
        h, r = ngram_profile(hyp, cfg.max_order), ngram_profile(ref, cfg.max_order)
        for n, m in enumerate(clipped_matches(h, r)):
            matches[n] += m
            totals[n] += len(h[n])
        ref_len += len(r[0])
    # totals[0] sums the hypothesis lengths.  An empty corpus has no counts and scores 0.
    return _combine(matches, totals, totals[0], ref_len, cfg.smoothing)


def diversity(a, b) -> int:
    """Word-level Levenshtein distance between two token sequences.

    Insertions, deletions and substitutions all cost 1.  Accepts token lists or
    anything with a `.tokens` attribute (delexicalized utterances).  Bit-parallel
    over Python ints (Myers 1999, as formulated by Hyyrö 2001): bit i of pv / mv is set when
    D[i+1][j] - D[i][j] is +1 / -1 in column j, and `score` follows D[len(a)][j].
    """
    ta = list(getattr(a, "tokens", a))
    tb = list(getattr(b, "tokens", b))
    if not ta:
        return len(tb)
    peq: dict = {}
    for i, tok in enumerate(ta):
        peq[tok] = peq.get(tok, 0) | (1 << i)
    mask, last = (1 << len(ta)) - 1, 1 << (len(ta) - 1)
    pv, mv, score = mask, 0, len(ta)
    for tok in tb:
        eq = peq.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & mask
        mh = pv & xh
        score += bool(ph & last) - bool(mh & last)  # never both: a delta is +1, 0 or -1
        # Row 0 is D[0][j] = j, so a +1 horizontal delta enters at the bottom bit.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score
