"""Task-completion metrics and the experiment harness.

Rollout semantics: the model sees gold user utterances (delexicalized) but its
own previously generated response and belief span as context.  Belief-span
placeholders are relexicalized through a per-dialog value memory collected from
the gold user utterances seen so far, which is also how database lookups for
the response decoder's match bucket resolve slot values.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field

from .corpus import BeliefState, Corpus, Dialog, Goal, placeholder, split, subsample
from .mining import MiningConfig, mine_pairs, relax_for_orphans
from .augment import ALL_LOSSES, LOSS_BELIEF, LOSS_RESPONSE, build_instances, utter_sub
from .neural.model import ModelConfig, ModelParams, generate_paraphrases, generate_turn
from .neural.training import TrainResult, train
from .neural.vocab import Vocab
from .textmetrics import BleuConfig, SMOOTH_NONE, corpus_bleu

log = logging.getLogger(__name__)

MODE_NONE = "none"
MODE_UTTER_SUB = "utter-sub"
MODE_PARG = "parg"
MODES = (MODE_NONE, MODE_UTTER_SUB, MODE_PARG)

NAME_SLOT = "name"


class EvalError(Exception):
    pass


@dataclass
class DialogResult:
    """Per-dialog rollout outcome, gold annotations alongside predictions."""

    dialog_id: str
    domain: str
    goal: Goal
    gold_final_informed: dict[tuple[str, str], str]
    pred_final_informed: dict[tuple[str, str], str]
    gold_responses: list[list[str]]
    gen_responses: list[list[str]]


def _norm_informed(informed: dict[tuple[str, str], str]) -> dict[tuple[str, str], str]:
    return {k: v.lower() for k, v in informed.items()}


def entity_match_rate(results: list[DialogResult]) -> float:
    """Fraction of dialogs whose final predicted informed set equals gold exactly."""
    if not results:
        return 0.0
    hits = sum(
        1 for r in results if _norm_informed(r.pred_final_informed) == _norm_informed(r.gold_final_informed)
    )
    return hits / len(results)


def requestable_placeholders(tokens: list[str], corpus: Corpus, domain: str) -> set[str]:
    requestable = {placeholder(s) for s in corpus.ontology.requestable_slots(domain)}
    return {t for t in tokens if t in requestable}


def success_f1(results: list[DialogResult], corpus: Corpus) -> float:
    """Micro-F1 of requestable placeholders surfaced in generated vs gold responses, per dialog."""
    tp = fp = fn = 0
    for r in results:
        gold: set[str] = set()
        gen: set[str] = set()
        for toks in r.gold_responses:
            gold |= requestable_placeholders(toks, corpus, r.domain)
        for toks in r.gen_responses:
            gen |= requestable_placeholders(toks, corpus, r.domain)
        tp += len(gen & gold)
        fp += len(gen - gold)
        fn += len(gold - gen)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def inform_success(results: list[DialogResult], corpus: Corpus) -> tuple[float, float, int]:
    """(inform rate, success rate, excluded dialog count).

    Inform: the dialog offered an entity (name placeholder in a generated
    response) and the database rows matching the predicted constraints include
    one satisfying the goal constraints.  Success additionally requires every
    goal-requested slot's placeholder to appear in some generated response.
    Dialogs without a goal are excluded and counted.
    """
    informs = successes = 0
    scored = 0
    excluded = 0
    for r in results:
        if not r.goal.constraints and not r.goal.requested:
            excluded += 1
            continue
        scored += 1
        offered = any(placeholder(NAME_SLOT) in toks for toks in r.gen_responses)
        ok_entity = False
        if offered:
            candidates = corpus.db_query(r.domain, r.pred_final_informed)
            goal_wanted = {s: v for (d, s), v in r.goal.constraints.items() if d == r.domain}
            for rec in candidates:
                if all(str(rec.get(s, "")).lower() == v.lower() for s, v in goal_wanted.items()):
                    ok_entity = True
                    break
        if ok_entity:
            informs += 1
            generated = set()
            for toks in r.gen_responses:
                generated.update(toks)
            if all(placeholder(s) in generated for (_d, s) in r.goal.requested):
                successes += 1
    if scored == 0:
        return 0.0, 0.0, excluded
    return informs / scored, successes / scored, excluded


def response_bleu(results: list[DialogResult]) -> float:
    """Corpus BLEU of generated vs gold delexicalized responses over all turns."""
    hyps, refs = [], []
    for r in results:
        for gen, gold in zip(r.gen_responses, r.gold_responses):
            if gold:
                hyps.append(gen if gen else ["<none>"])
                refs.append(gold)
    return corpus_bleu(hyps, refs, BleuConfig(smoothing=SMOOTH_NONE))


class ValueMemory:
    """Surface values observed for each slot so far in a dialog, latest mention winning."""

    def __init__(self):
        self.values: dict[str, str] = {}

    def observe_turn(self, turn) -> None:
        for b in turn.user_delex.bindings:
            self.values[b.slot] = " ".join(b.surface)

    def resolve(self, slot: str, value_tokens: list[str]) -> str:
        if value_tokens == [placeholder(slot)] and slot in self.values:
            return self.values[slot]
        return " ".join(value_tokens)


def _parsed_to_informed(parsed, memory: ValueMemory) -> dict[tuple[str, str], str]:
    informed = {}
    for (d, s), value_tokens in parsed.informed.items():
        if not value_tokens:
            continue
        informed[(d, s)] = memory.resolve(s, value_tokens)
    return informed


def rollout_dialog(params: ModelParams, vocab: Vocab, corpus: Corpus, dialog: Dialog) -> DialogResult:
    memory = ValueMemory()
    prev_response: list[str] = []
    prev_belief: list[str] = []
    if dialog.turns:
        prev_response = corpus.prev_response(dialog, 1)
        prev_belief = dialog.context_before(1).prev_state.serialize(delex=True)
    gen_responses: list[list[str]] = []
    pred_informed: dict[tuple[str, str], str] = {}
    for turn in dialog.turns:
        memory.observe_turn(turn)

        def db_bucket_fn(belief_tokens: list[str]) -> int:
            parsed = BeliefState.parse(belief_tokens, corpus.ontology)
            return corpus.db_bucket(turn.domain, _parsed_to_informed(parsed, memory))

        out = generate_turn(
            params, vocab,
            context=prev_response,
            prev_belief=prev_belief,
            user_input=list(turn.user_delex.tokens),
            db_bucket_fn=db_bucket_fn,
        )
        parsed = BeliefState.parse(out.belief, corpus.ontology)
        pred_informed = _parsed_to_informed(parsed, memory)
        gen_responses.append(out.response)
        prev_response = out.response
        prev_belief = out.belief
    return DialogResult(
        dialog_id=dialog.id,
        domain=dialog.turns[-1].domain if dialog.turns else "",
        goal=dialog.goal,
        gold_final_informed=dict(dialog.turns[-1].state.informed) if dialog.turns else {},
        pred_final_informed=pred_informed,
        gold_responses=[list(t.response_delex.tokens) for t in dialog.turns],
        gen_responses=gen_responses,
    )


def gold_results(corpus: Corpus) -> list[DialogResult]:
    """Results that echo the gold annotations; the self-consistency reference point."""
    out = []
    for d in corpus.dialogs:
        out.append(
            DialogResult(
                dialog_id=d.id,
                domain=d.turns[-1].domain if d.turns else "",
                goal=d.goal,
                gold_final_informed=dict(d.turns[-1].state.informed) if d.turns else {},
                pred_final_informed=dict(d.turns[-1].state.informed) if d.turns else {},
                gold_responses=[list(t.response_delex.tokens) for t in d.turns],
                gen_responses=[list(t.response_delex.tokens) for t in d.turns],
            )
        )
    return out


def score_results(results: list[DialogResult], corpus: Corpus) -> dict:
    bleu = response_bleu(results)
    emr = entity_match_rate(results)
    f1 = success_f1(results, corpus)
    inform, success, excluded = inform_success(results, corpus)
    return {
        "bleu": bleu,
        "emr": emr,
        "success_f1": f1,
        "inform": inform,
        "success": success,
        "combined": (inform + success) * 0.5 + bleu,
        "n_dialogs": len(results),
        "n_excluded": excluded,
    }


def evaluate_model(params: ModelParams, vocab: Vocab, corpus: Corpus) -> dict:
    results = [rollout_dialog(params, vocab, corpus, d) for d in corpus.dialogs]
    return score_results(results, corpus)


@dataclass
class EvalCell:
    data_fraction: float
    augmentation: str
    seed: int
    bleu: float = 0.0
    emr: float = 0.0
    success_f1: float = 0.0
    inform: float = 0.0
    success: float = 0.0
    combined: float = 0.0
    runtime: float = 0.0
    error: str | None = None

    def __post_init__(self):
        if self.error is None:
            expected = (self.inform + self.success) * 0.5 + self.bleu
            if abs(self.combined - expected) > 1e-9:
                raise EvalError(f"combined score {self.combined} != {expected}")
            for name in ("bleu", "emr", "success_f1", "inform", "success"):
                v = getattr(self, name)
                if not (0.0 <= v <= 1.0):
                    raise EvalError(f"{name} = {v} outside [0, 1]")

    def to_json(self, include_runtime: bool = False) -> dict:
        obj = {
            "data_fraction": self.data_fraction,
            "augmentation": self.augmentation,
            "seed": self.seed,
            "bleu": self.bleu,
            "emr": self.emr,
            "success_f1": self.success_f1,
            "inform": self.inform,
            "success": self.success,
            "combined": self.combined,
        }
        if self.error is not None:
            obj["error"] = self.error
        if include_runtime:
            obj["runtime"] = self.runtime
        return obj


@dataclass
class EvalReport:
    cells: list[EvalCell] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"rows": [c.to_json() for c in self.cells]}

    def to_markdown(self) -> str:
        lines = [
            "| data | augmentation | seed | EMR | Success F1 | BLEU | Inform | Success | Combined |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for c in self.cells:
            if c.error is not None:
                lines.append(
                    f"| {c.data_fraction:.0%} | {c.augmentation} | {c.seed} | error: {c.error} | | | | | |"
                )
                continue
            lines.append(
                f"| {c.data_fraction:.0%} | {c.augmentation} | {c.seed} "
                f"| {c.emr:.3f} | {c.success_f1:.3f} | {c.bleu:.3f} "
                f"| {c.inform:.3f} | {c.success:.3f} | {c.combined:.3f} |"
            )
        return "\n".join(lines) + "\n"

    def save(self, json_path, md_path=None, timing_path=None) -> None:
        # Runtime is volatile, so it lives in a sidecar; report files stay
        # byte-identical across reruns with equal config and seed.
        with open(json_path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, ensure_ascii=False, sort_keys=True, indent=1)
            f.write("\n")
        if md_path is not None:
            with open(md_path, "w", encoding="utf-8") as f:
                f.write(self.to_markdown())
        if timing_path is not None:
            timing = [
                {"data_fraction": c.data_fraction, "augmentation": c.augmentation, "seed": c.seed, "runtime": c.runtime}
                for c in self.cells
            ]
            with open(timing_path, "w", encoding="utf-8") as f:
                json.dump(timing, f, ensure_ascii=False, sort_keys=True, indent=1)
                f.write("\n")


def mode_losses(mode: str) -> frozenset[str]:
    if mode == MODE_PARG:
        return ALL_LOSSES
    return frozenset({LOSS_BELIEF, LOSS_RESPONSE})


def make_paraphrase_generator(params: ModelParams, vocab: Vocab):
    """Paraphrase-decoder greedy decode as the generation callback of build_instances.

    One call per epoch decodes all originals, in chunks of `params.cfg.batch_size`
    rows (never more memory than a training step); an empty paraphrase maps to None.
    """
    size = params.cfg.batch_size

    def generate(instances) -> list[list[str] | None]:
        out: list[list[str] | None] = []
        for start in range(0, len(instances), size):
            rows = [(i.context, i.prev_belief, i.user_input) for i in instances[start : start + size]]
            out.extend(para or None for para in generate_paraphrases(params, vocab, rows))
        return out

    return generate


def train_mode(
    train_corpus: Corpus,
    dev_corpus: Corpus,
    mode: str,
    model_cfg: ModelConfig,
    mining_cfg: MiningConfig = MiningConfig(),
    pairs=None,
) -> TrainResult:
    """Train one augmentation setting end to end on the given splits."""
    if mode not in MODES:
        raise ValueError(f"unknown augmentation mode {mode!r}; expected one of {MODES}")
    losses = mode_losses(mode)
    if pairs is None and mode != MODE_NONE:
        mined = mine_pairs(train_corpus, mining_cfg)
        pairs = mined + relax_for_orphans(train_corpus, mined, mining_cfg)
    elif pairs is not None:
        # Pairs may come from a larger corpus; keep only those fully inside the
        # training split so augmentation never touches held-out dialogs.
        known = {d.id for d in train_corpus.dialogs}
        pairs = [p for p in pairs if p.src[0] in known and p.tgt[0] in known]

    if mode == MODE_UTTER_SUB:
        effective_corpus = utter_sub(train_corpus, pairs)
    else:
        effective_corpus = train_corpus

    parg = mode == MODE_PARG

    def instances(epoch_seed: int, generate=None):
        return build_instances(
            effective_corpus, pairs if parg else None,
            paraphrase_source="model" if generate else "none", generate=generate,
            cfg=mining_cfg, epoch_seed=epoch_seed, losses=losses,
        )

    vocab = Vocab.build(_vocab_sequences(instances(0)), reserved=_reserved_tokens(train_corpus))
    cfg = model_cfg.with_vocab(len(vocab))

    def instance_fn(epoch: int, params: ModelParams, vocab_: Vocab):
        return instances(cfg.seed * 100003 + epoch, make_paraphrase_generator(params, vocab_) if parg else None)

    dev_instances = build_instances(dev_corpus, None, paraphrase_source="none", epoch_seed=0, losses=losses)
    return train(cfg, vocab, instance_fn, dev_instances)


def _vocab_sequences(instances):
    for inst in instances:
        yield inst.context
        yield inst.prev_belief
        yield inst.user_input
        yield inst.act_target
        yield inst.belief_target
        yield inst.response_target
        if inst.paraphrase_target is not None:
            yield inst.paraphrase_target


def _reserved_tokens(corpus: Corpus) -> list[str]:
    from .corpus import REQ_SEP

    tokens = [REQ_SEP]
    ontology = corpus.ontology
    for s in ontology.all_slot_names():
        tokens.append(placeholder(s))
    for d in ontology.domains:
        tokens.append(f"[{d}]")
    for a in ontology.act_types:
        tokens.append(f"[{a}]")
    return tokens


def run_experiment(
    corpus: Corpus,
    fractions: list[float],
    modes: list[str],
    seeds: list[int],
    model_cfg: ModelConfig,
    mining_cfg: MiningConfig = MiningConfig(),
    split_ratios: tuple[float, float, float] = (3.0, 1.0, 1.0),
    split_seed: int = 13,
) -> EvalReport:
    """Grid of data fractions × augmentation settings × seeds; failures recorded, run continues."""
    train_c, dev_c, test_c = split(corpus, split_ratios, split_seed)
    report = EvalReport()
    for fraction in fractions:
        for mode in modes:
            for seed in seeds:
                t0 = time.monotonic()
                try:
                    sub_train = subsample(train_c, fraction, seed) if fraction < 1.0 else train_c
                    cfg = ModelConfig.from_json({**model_cfg.to_json(), "seed": seed})
                    result = train_mode(sub_train, dev_c, mode, cfg, mining_cfg)
                    metrics = evaluate_model(result.params, result.vocab, test_c)
                    cell = EvalCell(
                        data_fraction=fraction,
                        augmentation=mode,
                        seed=seed,
                        bleu=metrics["bleu"],
                        emr=metrics["emr"],
                        success_f1=metrics["success_f1"],
                        inform=metrics["inform"],
                        success=metrics["success"],
                        combined=metrics["combined"],
                        runtime=time.monotonic() - t0,
                    )
                except Exception as e:  # cell isolation: one failure must not sink the grid
                    log.exception("cell (%.2f, %s, %d) failed", fraction, mode, seed)
                    cell = EvalCell(
                        data_fraction=fraction, augmentation=mode, seed=seed,
                        runtime=time.monotonic() - t0, error=f"{type(e).__name__}: {e}",
                    )
                report.cells.append(cell)
                log.info(
                    "cell (%.0f%%, %s, seed %d): %s",
                    fraction * 100, mode, seed,
                    "error" if cell.error else f"emr {cell.emr:.3f} combined {cell.combined:.3f}",
                )
    return report
