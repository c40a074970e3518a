"""Reference text metrics written from their definitions.

Nothing here imports the package under test: the benchmark's output checks
compare the package's numbers against these.

* BLEU: modified n-gram precisions for orders 1..4, a brevity penalty, and
  add-one smoothing of zero higher-order counts at sentence level.  The
  precisions are multiplied and rooted, not averaged in log space.  Orders
  with no hypothesis n-grams carry no information and are left out.
* Edit distance: the Wagner-Fischer table over words.
* Slot check: every placeholder token of the original occurs in the
  candidate at least as many times (a multiset cover).
"""

from __future__ import annotations

import math

MAX_ORDER = 4


def _ngram_table(tokens, n: int) -> dict:
    table: dict = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        table[gram] = table.get(gram, 0) + 1
    return table


def _clipped(hyp, ref, n: int) -> tuple[int, int]:
    hyp_grams = _ngram_table(hyp, n)
    ref_grams = _ngram_table(ref, n)
    hits = 0
    for gram, count in hyp_grams.items():
        hits += min(count, ref_grams.get(gram, 0))
    return hits, sum(hyp_grams.values())


def _combine(hits: list[int], totals: list[int], hyp_len: int, ref_len: int, smooth: bool) -> float:
    precisions = []
    for order, (m, t) in enumerate(zip(hits, totals), start=1):
        if t == 0:
            continue
        if m == 0 and smooth and order >= 2:
            m, t = 1, t + 1
        if m == 0:
            return 0.0
        precisions.append(m / t)
    if not precisions:
        return 0.0
    root = math.prod(precisions) ** (1.0 / len(precisions))
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * root


def sentence_bleu(hyp, ref, smooth: bool = True) -> float:
    hyp, ref = list(hyp), list(ref)
    if not hyp or not ref:
        raise ValueError("BLEU is undefined for an empty hypothesis or reference")
    hits, totals = [], []
    for n in range(1, MAX_ORDER + 1):
        m, t = _clipped(hyp, ref, n)
        hits.append(m)
        totals.append(t)
    return _combine(hits, totals, len(hyp), len(ref), smooth)


def corpus_bleu(hyps, refs) -> float:
    """Unsmoothed corpus BLEU: counts and lengths summed over all pairs first."""
    if len(hyps) != len(refs):
        raise ValueError("hypothesis and reference lists differ in length")
    hits = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            m, t = _clipped(list(hyp), list(ref), n)
            hits[n - 1] += m
            totals[n - 1] += t
    if hyp_len == 0:
        return 0.0
    return _combine(hits, totals, hyp_len, ref_len, smooth=False)


def edit_distance(a, b) -> int:
    """Word-level Levenshtein distance (Wagner-Fischer, full table)."""
    a, b = list(a), list(b)
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1),
            )
    return table[len(a)][len(b)]


def is_placeholder(token: str) -> bool:
    return len(token) > 2 and token.startswith("[") and token.endswith("]")


def covers_slots(original, candidate) -> bool:
    """True when the candidate holds every placeholder of the original, with multiplicity."""
    need: dict[str, int] = {}
    for tok in original:
        if is_placeholder(tok):
            need[tok] = need.get(tok, 0) + 1
    for tok in candidate:
        if tok in need:
            need[tok] -= 1
    return all(v <= 0 for v in need.values())


def passes_filter(original, candidate, bleu_threshold: float, diversity_threshold: float) -> bool:
    """The paraphrase quality gate: slot cover, BLEU(candidate, original), then word edit distance."""
    if not covers_slots(original, candidate):
        return False
    if sentence_bleu(candidate, original) < bleu_threshold:
        return False
    return edit_distance(candidate, original) >= diversity_threshold
