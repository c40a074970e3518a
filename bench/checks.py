"""Output checks of the benchmark.

Each check takes a workload's outputs and independent reference data, and
returns a list of failure messages; an empty list is a pass.  References are
the generator's own labels and the metric definitions in `reference`, never a
stored copy of earlier output.  The checks only read attributes of the
outputs, so tests can feed them deliberately corrupted copies.
"""

from __future__ import annotations

import random

import corpusgen
import reference

TOL = 1e-9
GRAD_TOL = 1e-4
MAX_REPORTED = 5


def _cap(failures: list[str]) -> list[str]:
    if len(failures) > MAX_REPORTED:
        return failures[:MAX_REPORTED] + [f"... and {len(failures) - MAX_REPORTED} more"]
    return failures


def bucket_failures(index, labels) -> list[str]:
    """The buckets index_by_function forms equal the generator's intended partition."""
    got = {(df.domain, tuple(df.slots), tuple(df.prev_acts)): sorted(refs) for df, refs in index.items()}
    want = corpusgen.bucket_partition(labels)
    failures = []
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            failures.append(f"bucket {key}: got {len(got.get(key, []))} turns, intended {len(want.get(key, []))}")
    return _cap(failures)


def _bucket_of(labels) -> dict:
    return {ref: key for key, refs in corpusgen.bucket_partition(labels).items() for ref in refs}


def mined_pair_failures(pairs, tokens, labels, bleu_min, div_min, rng: random.Random, n_sample: int) -> list[str]:
    """Every mined pair re-scores equal and passes both gates; sampled rejected pairs fail one."""
    bucket_of = _bucket_of(labels)
    failures = []
    admitted = set()
    for p in pairs:
        admitted.add((p.src, p.tgt))
        if p.relaxed:
            failures.append(f"{p.src}->{p.tgt}: relaxed pair among strictly mined pairs")
        if bucket_of.get(p.src) is None or bucket_of.get(p.src) != bucket_of.get(p.tgt):
            failures.append(f"{p.src}->{p.tgt}: not in one intended bucket")
            continue
        if p.src == p.tgt:
            failures.append(f"{p.src}: paired with itself")
        b = reference.sentence_bleu(tokens[p.src], tokens[p.tgt])
        d = reference.edit_distance(tokens[p.src], tokens[p.tgt])
        if abs(b - p.bleu) > TOL or abs(d - p.diversity) > TOL:
            failures.append(f"{p.src}->{p.tgt}: bleu {p.bleu} / div {p.diversity}, reference {b} / {d}")
        if b < bleu_min or d < div_min:
            failures.append(f"{p.src}->{p.tgt}: bleu {b} / div {d} below the gates")
    rejected = [
        (src, tgt)
        for refs in corpusgen.bucket_partition(labels).values()
        for src in refs
        for tgt in refs
        if src != tgt and (src, tgt) not in admitted
    ]
    for src, tgt in rng.sample(rejected, min(n_sample, len(rejected))):
        b = reference.sentence_bleu(tokens[src], tokens[tgt])
        if b >= bleu_min and reference.edit_distance(tokens[src], tokens[tgt]) >= div_min:
            failures.append(f"{src}->{tgt}: passes both gates but was not mined")
    return _cap(failures)


def relaxed_pair_failures(relaxed, mined, tokens, bleu_min, div_min) -> list[str]:
    """Relaxed pairs serve uncovered turns, pass BLEU and sit below the diversity gate."""
    covered = {p.src for p in mined}
    failures = []
    for p in relaxed:
        b = reference.sentence_bleu(tokens[p.src], tokens[p.tgt])
        d = reference.edit_distance(tokens[p.src], tokens[p.tgt])
        if not p.relaxed:
            failures.append(f"{p.src}->{p.tgt}: not marked relaxed")
        if p.src in covered:
            failures.append(f"{p.src}: relaxed although already covered")
        if abs(b - p.bleu) > TOL or abs(d - p.diversity) > TOL:
            failures.append(f"{p.src}->{p.tgt}: bleu {p.bleu} / div {p.diversity}, reference {b} / {d}")
        if b < bleu_min or d >= div_min:
            failures.append(f"{p.src}->{p.tgt}: bleu {b} / div {d} is not a relaxed pair")
    return _cap(failures)


def orphan_failures(orphans, pairs, tokens, labels, bleu_min, rng: random.Random, n_sample: int) -> list[str]:
    """Orphans are uncovered, and a sampled orphan has no bucket-mate reaching the BLEU gate."""
    partition = corpusgen.bucket_partition(labels)
    bucket_of = _bucket_of(labels)
    covered = {p.src for p in pairs}
    refs = [(o["dialog"], o["turn"]) for o in orphans]
    failures = [f"{ref}: reported orphan has a pair" for ref in refs if ref in covered]
    uncovered = sorted(ref for ref in bucket_of if ref not in covered)
    if sorted(refs) != uncovered:
        failures.append(f"orphan report lists {len(refs)} turns, {len(uncovered)} are uncovered")
    for ref in rng.sample(refs, min(n_sample, len(refs))):
        for mate in partition.get(bucket_of.get(ref), []):
            if mate != ref and reference.sentence_bleu(tokens[ref], tokens[mate]) >= bleu_min:
                failures.append(f"{ref}: bucket-mate {mate} reaches the BLEU gate")
    return _cap(failures)


def pair_file_failures(exported, imported) -> list[str]:
    """Pairs survive export then import unchanged (the file is in canonical order)."""
    want = sorted(exported, key=lambda p: (p.src, p.tgt, p.relaxed))
    if len(want) != len(imported):
        return [f"{len(want)} pairs exported, {len(imported)} imported"]
    return _cap([f"pair {i} changed: {a} -> {b}" for i, (a, b) in enumerate(zip(want, imported)) if a != b])


SHARED_FIELDS = (
    "dialog_id", "turn", "context", "prev_belief", "act_target", "paraphrase_target",
    "belief_target", "response_target", "db_bucket", "losses",
)


def twin_failures(stream, bleu_min, div_min) -> list[str]:
    """Every paraphrase twin follows its original, shares its targets and passes the reference filter."""
    failures = []
    original = None
    for i, inst in enumerate(stream):
        if not inst.is_paraphrase:
            original = inst
            continue
        if original is None:
            failures.append(f"instance {i}: twin without an original")
            continue
        for name in SHARED_FIELDS:
            if getattr(inst, name) != getattr(original, name):
                failures.append(f"instance {i}: twin differs from its original in {name}")
        if not reference.passes_filter(original.user_input, inst.user_input, bleu_min, div_min):
            failures.append(f"instance {i}: twin {' '.join(inst.user_input)!r} fails the reference filter")
    return _cap(failures)


def stream_failures(streams, epochs: int, user_turns: int, mode: str) -> list[str]:
    """One stream per epoch, each with one original per user turn of the generated input."""
    failures = []
    if len(streams) != epochs:
        failures.append(f"{len(streams)} epoch streams for {epochs} epochs")
    for e, stream in enumerate(streams, start=1):
        originals = sum(1 for inst in stream if not inst.is_paraphrase)
        if originals != user_turns:
            failures.append(f"epoch {e}: {originals} originals for {user_turns} user turns")
        if mode == "none" and len(stream) != user_turns:
            failures.append(f"epoch {e}: none stream has {len(stream)} instances for {user_turns} user turns")
    return failures


def mixture_failures(rows) -> list[str]:
    """Every decode step's mixture distribution is non-negative and sums to 1."""
    failures = []
    for i, row in enumerate(rows):
        total = float(row.sum())
        if abs(total - 1.0) > TOL or float(row.min()) < 0.0:
            failures.append(f"step {i}: sum {total!r}, min {float(row.min())!r}")
    return _cap(failures)


def gradient_failures(coords, tape, finite) -> list[str]:
    """Tape gradients agree with central differences within 1e-4 relative."""
    failures = []
    for c, g, f in zip(coords, tape, finite):
        rel = abs(g - f) / max(abs(g), abs(f), 1e-6)
        if not rel < GRAD_TOL:
            failures.append(f"coordinate {c}: tape {g!r}, finite differences {f!r}, rel {rel:.2e}")
    return _cap(failures)


def dev_loss_failures(final: float, initial: float) -> list[str]:
    """Training lowered the dev loss below that of the same-seed initial parameters."""
    return [] if final < initial else [f"final dev loss {final} is not below the initial {initial}"]


def gold_score_failures(scores: dict) -> list[str]:
    """Gold results score 1 on entity match, inform and success."""
    return [f"gold {k} = {scores[k]!r}" for k in ("emr", "inform", "success") if scores[k] != 1.0]


def rollout_bleu_failures(results, reported: float) -> list[str]:
    """The reported response BLEU equals the reference corpus BLEU of the rollout.

    Turns with an empty gold response are skipped and an empty generated
    response is scored as the single token `<none>`, as the package defines
    response BLEU.
    """
    hyps, refs = [], []
    for r in results:
        for gen, gold in zip(r.gen_responses, r.gold_responses):
            if gold:
                hyps.append(list(gen) if gen else ["<none>"])
                refs.append(list(gold))
    want = reference.corpus_bleu(hyps, refs) if hyps else 0.0
    return [] if abs(want - reported) <= TOL else [f"rollout BLEU {reported!r}, reference {want!r}"]


def checkpoint_failures(first: bytes, second: bytes) -> list[str]:
    """save -> load -> save reproduces the checkpoint byte for byte."""
    if first == second:
        return []
    diff = next((i for i, (a, b) in enumerate(zip(first, second)) if a != b), min(len(first), len(second)))
    return [f"checkpoint bytes differ from offset {diff} ({len(first)} vs {len(second)} bytes)"]


def training_failures(aborted: bool, epochs_run: int, epochs: int) -> list[str]:
    """Training ran every epoch and was not aborted on non-finite parameters."""
    failures = ["training aborted on non-finite parameters"] if aborted else []
    if epochs_run != epochs:
        failures.append(f"{epochs_run} epochs run of {epochs}")
    return failures


def load_failures(n_turns: int, n_dialogs: int, corpus_json: dict) -> list[str]:
    """The loaded corpus has every dialog and turn of the generated file."""
    want_turns = sum(len(d["turns"]) for d in corpus_json["dialogs"])
    want_dialogs = len(corpus_json["dialogs"])
    if (n_turns, n_dialogs) != (want_turns, want_dialogs):
        return [f"loaded {n_dialogs} dialogs / {n_turns} turns, file has {want_dialogs} / {want_turns}"]
    return []
