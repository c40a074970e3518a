"""Turning paraphrases into training data: quality filter, UtterSub baseline, instance stream."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import (
    Binding,
    Corpus,
    Dialog,
    DelexUtterance,
    Turn,
    is_bracket_token,
    relexicalize,
    serialize_acts,
    tokenize,
)
from .mining import MiningConfig, ParaphrasePair, targets_by_turn
from .textmetrics import sentence_bleu, diversity

log = logging.getLogger(__name__)

REASON_OK = "ok"
REASON_MISSING_SLOT = "missing_slot"
REASON_LOW_BLEU = "low_bleu"
REASON_LOW_DIVERSITY = "low_diversity"

LOSS_ACTION = "a"
LOSS_PARAPHRASE = "p"
LOSS_BELIEF = "b"
LOSS_RESPONSE = "r"
ALL_LOSSES = frozenset({LOSS_ACTION, LOSS_PARAPHRASE, LOSS_BELIEF, LOSS_RESPONSE})


@dataclass(frozen=True)
class FilterVerdict:
    passed: bool
    reason: str
    bleu: float
    diversity: float

    def __post_init__(self):
        if self.passed != (self.reason == REASON_OK):
            raise ValueError(f"verdict inconsistent: passed={self.passed} reason={self.reason}")


def _tokens(x) -> tuple[str, ...]:
    return tuple(x.tokens) if hasattr(x, "tokens") else tuple(x)


def filter_generated(original, candidate, cfg: MiningConfig = MiningConfig()) -> FilterVerdict:
    """Quality gate for a paraphrase standing in for `original` as model input.

    The slot check short-circuits: a candidate whose placeholder multiset does
    not cover the original's placeholders is rejected before any metric is
    computed.  Otherwise the BLEU threshold is checked before diversity.
    """
    orig, cand = _tokens(original), _tokens(candidate)
    orig_ph = Counter(t for t in orig if is_bracket_token(t))
    cand_ph = Counter(t for t in cand if is_bracket_token(t))
    if orig_ph - cand_ph:
        return FilterVerdict(False, REASON_MISSING_SLOT, 0.0, 0.0)
    b = sentence_bleu(list(cand), list(orig), cfg.bleu)
    d = float(diversity(cand, orig))
    if b < cfg.bleu_threshold:
        return FilterVerdict(False, REASON_LOW_BLEU, b, d)
    if d < cfg.diversity_threshold:
        return FilterVerdict(False, REASON_LOW_DIVERSITY, b, d)
    return FilterVerdict(True, REASON_OK, b, d)


@dataclass(frozen=True)
class TrainingInstance:
    """One teacher-forced training example for the four-decoder network.

    All token fields are delexicalized.  `losses` names the decoders this
    instance supervises; the paraphrase loss contributes nothing when
    `paraphrase_target` is absent.
    """

    dialog_id: str
    turn: int
    context: tuple[str, ...]
    prev_belief: tuple[str, ...]
    user_input: tuple[str, ...]
    act_target: tuple[str, ...]
    paraphrase_target: tuple[str, ...] | None
    belief_target: tuple[str, ...]
    response_target: tuple[str, ...]
    db_bucket: int
    is_paraphrase: bool = False
    losses: frozenset[str] = ALL_LOSSES

    def to_json(self) -> dict:
        return {
            "dialog_id": self.dialog_id,
            "turn": self.turn,
            "context": list(self.context),
            "prev_belief": list(self.prev_belief),
            "user_input": list(self.user_input),
            "act_target": list(self.act_target),
            "paraphrase_target": None if self.paraphrase_target is None else list(self.paraphrase_target),
            "belief_target": list(self.belief_target),
            "response_target": list(self.response_target),
            "db_bucket": self.db_bucket,
            "is_paraphrase": self.is_paraphrase,
            "losses": sorted(self.losses),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrainingInstance":
        para = obj["paraphrase_target"]
        return cls(
            dialog_id=obj["dialog_id"],
            turn=int(obj["turn"]),
            context=tuple(obj["context"]),
            prev_belief=tuple(obj["prev_belief"]),
            user_input=tuple(obj["user_input"]),
            act_target=tuple(obj["act_target"]),
            paraphrase_target=None if para is None else tuple(para),
            belief_target=tuple(obj["belief_target"]),
            response_target=tuple(obj["response_target"]),
            db_bucket=int(obj["db_bucket"]),
            is_paraphrase=bool(obj["is_paraphrase"]),
            losses=frozenset(obj["losses"]),
        )


def instance_for_turn(
    corpus: Corpus,
    dialog: Dialog,
    turn: Turn,
    user_input: tuple[str, ...] | None = None,
    paraphrase_target: tuple[str, ...] | None = None,
    is_paraphrase: bool = False,
    losses: frozenset[str] = ALL_LOSSES,
) -> TrainingInstance:
    """Teacher-forced instance for one turn; `user_input` overrides U_t' for paraphrase variants."""
    before = dialog.context_before(turn.index)
    return TrainingInstance(
        dialog_id=dialog.id,
        turn=turn.index,
        context=tuple(corpus.prev_response(dialog, turn.index)),
        prev_belief=tuple(before.prev_state.serialize(delex=True)),
        user_input=user_input if user_input is not None else tuple(turn.user_delex.tokens),
        act_target=tuple(serialize_acts(before.prev_acts)),
        paraphrase_target=paraphrase_target,
        belief_target=tuple(turn.state.serialize(delex=True)),
        response_target=tuple(turn.response_delex.tokens),
        db_bucket=corpus.db_bucket(turn.domain, turn.state.informed),
        is_paraphrase=is_paraphrase,
        losses=losses,
    )


def _relex_with_turn_values(target_tokens: tuple[str, ...], turn: Turn) -> DelexUtterance | None:
    """Rebuild a surface form for target delex tokens using the source turn's values.

    Placeholder surfaces come from the turn's own utterance bindings, falling
    back to its informed state; a placeholder with no value available anywhere
    makes the whole rebuild fail (None).
    """
    informed_by_slot = {s: v for (_d, s), v in turn.state.informed.items()}
    bindings = []
    for pos, tok in enumerate(target_tokens):
        if not is_bracket_token(tok):
            continue
        slot = tok[1:-1]
        b = turn.user_delex.binding_for(slot)
        if b is not None:
            surface = b.surface
        elif slot in informed_by_slot:
            surface = tuple(tokenize(informed_by_slot[slot]))
        else:
            return None
        bindings.append(Binding(position=pos, slot=slot, surface=surface))
    return DelexUtterance(tokens=tuple(target_tokens), bindings=tuple(bindings))


def utter_sub(corpus: Corpus, pairs: list[ParaphrasePair]) -> Corpus:
    """Paraphrases as extra training samples: one cloned single-turn dialog per paired turn.

    The clone's user utterance is the paraphrase target relexicalized with the
    source turn's slot values; state, acts and response are copied unchanged.
    Original dialogs are not touched.
    """
    by_turn = targets_by_turn(pairs)
    new_dialogs: list[Dialog] = []
    skipped = 0
    for dialog in corpus.dialogs:
        n_clones = 0
        for turn in dialog.turns:
            targets = by_turn.get((dialog.id, turn.index), [])
            clone_delex = None
            for pair in targets:
                tgt_dialog = corpus.get_dialog(pair.tgt[0])
                tgt_tokens = tgt_dialog.turns[pair.tgt[1] - 1].user_delex.tokens
                clone_delex = _relex_with_turn_values(tgt_tokens, turn)
                if clone_delex is not None:
                    break
                skipped += 1
                log.warning(
                    "utter-sub: skipping target %s for %s turn %d (placeholder without value)",
                    pair.tgt, dialog.id, turn.index,
                )
            if clone_delex is None:
                continue
            n_clones += 1
            clone_turn = Turn(
                index=1,
                user=relexicalize(clone_delex),
                user_delex=clone_delex,
                state=turn.state.copy(),
                sys_acts=list(turn.sys_acts),
                response=list(turn.response),
                response_delex=turn.response_delex,
                domain=turn.domain,
                context=dialog.context_before(turn.index),
            )
            new_dialogs.append(Dialog(id=f"{dialog.id}#p{n_clones}", goal=dialog.goal, turns=[clone_turn]))
    if skipped:
        log.warning("utter-sub: %d paraphrase targets skipped", skipped)
    return Corpus(corpus.ontology, corpus.database, list(corpus.dialogs) + new_dialogs)


# The epoch's originals in stream order -> one candidate (or None) each; called once per epoch.
GenerateFn = Callable[[list[TrainingInstance]], list[list[str] | None]]


def build_instances(
    corpus: Corpus,
    pairs: list[ParaphrasePair] | None = None,
    *,
    paraphrase_source: str = "mined",
    generate: GenerateFn | None = None,
    cfg: MiningConfig = MiningConfig(),
    epoch_seed: int = 0,
    max_targets: int = 1,
    losses: frozenset[str] = ALL_LOSSES,
    self_paraphrase: bool = False,
) -> list[TrainingInstance]:
    """Ordered instance stream for one epoch, deterministic per epoch_seed.

    Each turn yields its original-input instance; each paraphrase candidate
    (mined target or model-generated, per `paraphrase_source`) that passes
    filter_generated yields an adjacent paraphrase-input instance sharing every
    target.  Model candidates come from one `generate` call over all of the
    epoch's originals in stream order; they are filtered turn by turn in that
    order.  `self_paraphrase` supervises the paraphrase decoder with the input
    itself (a copy task) instead of mined targets.
    """
    if paraphrase_source not in ("mined", "model", "none"):
        raise ValueError(f"unknown paraphrase_source {paraphrase_source!r}")
    if paraphrase_source == "model" and generate is None:
        raise ValueError("paraphrase_source 'model' requires a generate callback")
    if max_targets < 1:
        raise ValueError("max_targets must be >= 1")

    by_turn = targets_by_turn(pairs or [])
    refs = [(dialog, turn) for dialog, turn in corpus.user_turns()]
    order = np.random.Generator(np.random.PCG64(epoch_seed)).permutation(len(refs))

    originals: list[TrainingInstance] = []
    candidates_of: list[list[tuple[str, ...]]] = []  # mined targets, replaced by generations for "model"
    for idx in order:
        dialog, turn = refs[idx]
        mined_tokens = []
        for pair in by_turn.get((dialog.id, turn.index), [])[:max_targets]:
            tgt_dialog = corpus.get_dialog(pair.tgt[0])
            mined_tokens.append(tuple(tgt_dialog.turns[pair.tgt[1] - 1].user_delex.tokens))

        para_target: tuple[str, ...] | None = None
        if LOSS_PARAPHRASE in losses:
            if self_paraphrase:
                para_target = tuple(turn.user_delex.tokens)
            elif mined_tokens:
                para_target = mined_tokens[0]
        originals.append(instance_for_turn(corpus, dialog, turn, paraphrase_target=para_target, losses=losses))
        candidates_of.append(mined_tokens)

    if paraphrase_source == "none" or self_paraphrase:
        return originals
    if paraphrase_source == "model":
        generated = generate(originals)
        if len(generated) != len(originals):
            raise ValueError(f"generate returned {len(generated)} results for {len(originals)} instances")
        candidates_of = [[tuple(g)] if g else [] for g in generated]

    out: list[TrainingInstance] = []
    for idx, original, candidates in zip(order, originals, candidates_of):
        dialog, turn = refs[idx]
        out.append(original)
        for cand in candidates:
            verdict = filter_generated(turn.user_delex, cand, cfg)
            if verdict.passed:
                out.append(
                    instance_for_turn(
                        corpus, dialog, turn,
                        user_input=cand,
                        paraphrase_target=original.paraphrase_target,
                        is_paraphrase=True,
                        losses=losses,
                    )
                )
    return out
