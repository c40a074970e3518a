"""Paraphrase pair construction: dialog functions, bucket matching, threshold filtering, relaxation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .corpus import Corpus, Dialog
# sentence_bleu is not called here; it stays bound because bench/spans.py wraps it at this name.
from .textmetrics import BleuConfig, bleu_both_ways, diversity, ngram_profile, sentence_bleu  # noqa: F401

TurnRef = tuple[str, int]  # (dialog id, turn index)


class PairFileError(ValueError):
    """A pairs file line that does not parse as a ParaphrasePair."""


@dataclass(frozen=True, order=True)
class DialogFunction:
    """The role an utterance plays in context: (active domain, slots mentioned, previous system acts)."""

    domain: str
    slots: tuple[str, ...]
    prev_acts: tuple[str, ...]

    def to_json(self) -> dict:
        return {"domain": self.domain, "slots": list(self.slots), "prev_acts": list(self.prev_acts)}

    @classmethod
    def from_json(cls, obj: dict) -> "DialogFunction":
        return cls(obj["domain"], tuple(obj["slots"]), tuple(obj["prev_acts"]))


@dataclass(frozen=True)
class ParaphrasePair:
    src: TurnRef
    tgt: TurnRef
    function: DialogFunction
    bleu: float
    diversity: float
    relaxed: bool = False

    def to_json(self) -> dict:
        return {
            "src": list(self.src),
            "tgt": list(self.tgt),
            "function": self.function.to_json(),
            "bleu": self.bleu,
            "diversity": self.diversity,
            "relaxed": self.relaxed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ParaphrasePair":
        return cls(
            src=(obj["src"][0], int(obj["src"][1])),
            tgt=(obj["tgt"][0], int(obj["tgt"][1])),
            function=DialogFunction.from_json(obj["function"]),
            bleu=float(obj["bleu"]),
            diversity=float(obj["diversity"]),
            relaxed=bool(obj["relaxed"]),
        )


@dataclass(frozen=True)
class MiningConfig:
    bleu_threshold: float = 0.2
    diversity_threshold: float = 3.4
    relax_floor: float = 0.0
    include_requested_slots: bool = True
    bleu: BleuConfig = field(default_factory=BleuConfig)

    def __post_init__(self):
        if self.bleu_threshold < 0 or self.diversity_threshold < 0:
            raise ValueError("thresholds must be non-negative")


def extract_dialog_function(dialog: Dialog, t: int, include_requested: bool = True) -> DialogFunction:
    """Dialog function of turn t (1-based): domain, slots newly mentioned, previous system acts.

    Slots mentioned are the placeholder slots of the delexicalized user
    utterance plus, when `include_requested`, the requested slots added to the
    belief state at this turn.
    """
    before = dialog.context_before(t)  # raises IndexError for a t out of range
    turn = dialog.turns[t - 1]
    slots = set(turn.user_delex.placeholder_slots())
    if include_requested:
        slots |= {s for (_d, s) in (turn.state.requested - before.prev_state.requested)}
    prev_acts = tuple(sorted(a.key_token() for a in before.prev_acts))
    return DialogFunction(domain=turn.domain, slots=tuple(sorted(slots)), prev_acts=prev_acts)


def index_by_function(corpus: Corpus, include_requested: bool = True) -> dict[DialogFunction, list[TurnRef]]:
    """Exhaustive index of all user turns keyed by dialog function, in (dialog id, t) order."""
    index: dict[DialogFunction, list[TurnRef]] = {}
    for dialog in corpus.dialogs:
        for turn in dialog.turns:
            df = extract_dialog_function(dialog, turn.index, include_requested)
            index.setdefault(df, []).append((dialog.id, turn.index))
    for refs in index.values():
        refs.sort()
    return index


def _scored_pairs(corpus: Corpus, refs: list[TurnRef], rows, cfg: MiningConfig) -> list[tuple]:
    """(src, tgt, BLEU of src against tgt, diversity) for the ordered pairs of one
    bucket whose source index is in `rows` and whose BLEU clears the bar.

    Each turn is profiled once and each unordered pair scored once: one n-gram
    intersection gives both directions' BLEU, and the symmetric distance is
    computed once if either direction clears the bar.
    """
    toks = [corpus.get_dialog(d).turns[t - 1].user_delex.tokens for d, t in refs]
    profiles = [ngram_profile(t, cfg.bleu.max_order) for t in toks]
    out = []
    for i, j in combinations(range(len(refs)), 2):
        if i not in rows and j not in rows:
            continue
        b_ij, b_ji = bleu_both_ways(profiles[i], profiles[j], cfg.bleu.smoothing)
        forward = i in rows and b_ij >= cfg.bleu_threshold
        backward = j in rows and b_ji >= cfg.bleu_threshold
        if forward or backward:
            d = float(diversity(toks[i], toks[j]))
            if forward:
                out.append((refs[i], refs[j], b_ij, d))
            if backward:
                out.append((refs[j], refs[i], b_ji, d))
    return out


def mine_pairs(corpus: Corpus, cfg: MiningConfig = MiningConfig()) -> list[ParaphrasePair]:
    """Admit every ordered same-function pair passing both the BLEU and diversity thresholds.

    Pairs are directional: tgt is a paraphrase target for src.  Output order is
    canonical (src, tgt), independent of bucket iteration order.
    """
    index = index_by_function(corpus, cfg.include_requested_slots)
    pairs: list[ParaphrasePair] = []
    for df in sorted(index):
        for src, tgt, b, d in _scored_pairs(corpus, index[df], range(len(index[df])), cfg):
            if d >= cfg.diversity_threshold:
                pairs.append(ParaphrasePair(src=src, tgt=tgt, function=df, bleu=b, diversity=d))
    pairs.sort(key=lambda p: (p.src, p.tgt))
    return pairs


def relax_for_orphans(corpus: Corpus, pairs: list[ParaphrasePair], cfg: MiningConfig = MiningConfig()) -> list[ParaphrasePair]:
    """Additional pairs for turns left without any paraphrase target.

    The diversity bar is relaxed from `diversity_threshold` down to `relax_floor`
    (BLEU bar unchanged): each uncovered turn takes its most diverse candidate
    reaching the floor, marked relaxed.  Turns in singleton buckets stay orphans.
    """
    if cfg.diversity_threshold <= cfg.relax_floor:
        return []
    index = index_by_function(corpus, cfg.include_requested_slots)
    covered = {p.src for p in pairs}
    extra: list[ParaphrasePair] = []
    for df in sorted(index):
        rows = {i for i, ref in enumerate(index[df]) if ref not in covered}
        candidates_of: dict[TurnRef, list] = {}
        for src, tgt, b, d in _scored_pairs(corpus, index[df], rows, cfg) if rows else ():
            if d >= cfg.relax_floor:
                candidates_of.setdefault(src, []).append((tgt, b, d))
        for src, candidates in candidates_of.items():
            # Deterministic tie-break: highest diversity, then highest BLEU, then smallest ref.
            tgt, b, d = min(candidates, key=lambda c: (-c[2], -c[1], c[0]))
            extra.append(ParaphrasePair(src=src, tgt=tgt, function=df, bleu=b, diversity=d, relaxed=True))
    extra.sort(key=lambda p: (p.src, p.tgt))
    return extra


def orphan_turns(corpus: Corpus, pairs: list[ParaphrasePair], include_requested: bool = True) -> list[dict]:
    """Turns with no paraphrase target after mining/relaxation, with their bucket sizes."""
    index = index_by_function(corpus, include_requested)
    covered = {p.src for p in pairs}
    report = []
    for df in sorted(index):
        for ref in index[df]:
            if ref not in covered:
                report.append(
                    {
                        "dialog": ref[0],
                        "turn": ref[1],
                        "bucket_size": len(index[df]),
                        "function": df.to_json(),
                    }
                )
    report.sort(key=lambda r: (r["dialog"], r["turn"]))
    return report


def export_pairs(pairs: list[ParaphrasePair], path) -> None:
    """Write pairs as JSON lines, canonically ordered; byte-identical for equal inputs."""
    ordered = sorted(pairs, key=lambda p: (p.src, p.tgt, p.relaxed))
    with open(path, "w", encoding="utf-8") as f:
        for p in ordered:
            f.write(json.dumps(p.to_json(), sort_keys=True, ensure_ascii=False))
            f.write("\n")


def import_pairs(path) -> list[ParaphrasePair]:
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.read().split("\n")
        except ValueError as e:  # bytes that are not UTF-8
            raise PairFileError(f"{path}: not UTF-8 text: {e}") from e
    pairs = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            pairs.append(ParaphrasePair.from_json(json.loads(line)))
        except (json.JSONDecodeError, KeyError, IndexError, TypeError, ValueError) as e:
            raise PairFileError(f"{path}: malformed pair on line {lineno}: {e}") from e
    return pairs


def targets_by_turn(pairs: list[ParaphrasePair]) -> dict[TurnRef, list[ParaphrasePair]]:
    """Group pairs by source turn, each list in preference order.

    Preference: non-relaxed before relaxed, then higher diversity, then higher
    BLEU, then smallest target ref.
    """
    by_turn: dict[TurnRef, list[ParaphrasePair]] = {}
    for p in pairs:
        by_turn.setdefault(p.src, []).append(p)
    for refs in by_turn.values():
        refs.sort(key=lambda p: (p.relaxed, -p.diversity, -p.bleu, p.tgt))
    return by_turn
