"""Tests of the benchmark's reference metrics and output checks.

Each check must pass on genuine output and fail when fed a deliberately
corrupted copy.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpusgen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

run.import_package()

from dialaug import corpus_from_json, index_by_function, mine_pairs, orphan_turns, relax_for_orphans  # noqa: E402

BLEU_MIN, DIV_MIN = 0.2, 3.4


# ---- reference metrics -----------------------------------------------------


def test_reference_imports_nothing_from_the_package():
    lines = (BENCH / "reference.py").read_text().splitlines()
    assert not [line for line in lines if line.startswith(("import", "from")) and "dialaug" in line]


def test_reference_bleu_identity_and_disjoint():
    toks = "i want a [food] restaurant".split()
    assert reference.sentence_bleu(toks, toks) == pytest.approx(1.0, abs=1e-12)
    assert reference.sentence_bleu("a b".split(), "c d".split()) == 0.0


def test_reference_bleu_by_hand():
    hyp, ref = "a b c d".split(), "a b x d e".split()
    # p1 = 3/4, p2 = 1/3, p3 = 0 -> 1/3 smoothed, p4 = 0 -> 1/2 smoothed; brevity exp(1 - 5/4)
    want = (3 / 4 * 1 / 3 * 1 / 3 * 1 / 2) ** 0.25 * np.exp(1 - 5 / 4)
    assert reference.sentence_bleu(hyp, ref) == pytest.approx(want, rel=1e-12)
    assert reference.corpus_bleu([hyp], [ref]) == 0.0  # unsmoothed: no trigram match


def test_reference_edit_distance():
    assert reference.edit_distance("a b c".split(), "a b c".split()) == 0
    assert reference.edit_distance("a b c".split(), "a c".split()) == 1
    assert reference.edit_distance("kitten".split(), "sitting".split()) == 1
    assert reference.edit_distance([], "x y".split()) == 2


def test_reference_slot_cover_is_a_multiset():
    assert reference.covers_slots("[food] and [food]".split(), "[food] [food] x".split())
    assert not reference.covers_slots("[food] and [food]".split(), "[food] x".split())


# ---- generator -------------------------------------------------------------


def test_generator_is_seeded_and_loads():
    a, labels_a = corpusgen.generate(5, scale=0.3)
    b, labels_b = corpusgen.generate(5, scale=0.3)
    c, _ = corpusgen.generate(6, scale=0.3)
    assert a == b and labels_a == labels_b and a != c
    corpus = corpus_from_json(a)
    assert all(t.user for _d, t in corpus.user_turns())
    assert len(labels_a) == corpus.n_turns()


def test_generator_bucket_sizes_do_not_depend_on_the_seed():
    sizes = {
        seed: sorted(len(v) for v in corpusgen.bucket_partition(corpusgen.generate(seed)[1]).values())
        for seed in (1, 2)
    }
    assert sizes[1] == sizes[2]
    assert sizes[1][-1] > 20 and sizes[1].count(1) >= 3


# ---- mining checks on genuine and corrupted output -------------------------


@pytest.fixture(scope="module")
def mined():
    obj, labels = corpusgen.generate(11, scale=0.4)
    corpus = corpus_from_json(obj)
    strict = mine_pairs(corpus)
    relaxed = relax_for_orphans(corpus, strict)
    orphans = orphan_turns(corpus, strict + relaxed)
    tokens = {(d.id, t.index): list(t.user_delex.tokens) for d, t in corpus.user_turns()}
    assert strict and relaxed and orphans
    return corpus, labels, strict, relaxed, orphans, tokens


def test_bucket_check(mined):
    corpus, labels, *_ = mined
    index = index_by_function(corpus)
    assert checks.bucket_failures(index, labels) == []
    moved = {k: list(v) for k, v in index.items()}
    keys = sorted(moved, key=lambda k: -len(moved[k]))
    moved[keys[1]].append(moved[keys[0]].pop())
    assert checks.bucket_failures(moved, labels)


def test_mined_pair_check(mined):
    _corpus, labels, strict, _relaxed, _orphans, tokens = mined
    rng = random.Random(0)
    assert checks.mined_pair_failures(strict, tokens, labels, BLEU_MIN, DIV_MIN, rng, 10**6) == []
    wrong_score = [dataclasses.replace(strict[0], bleu=strict[0].bleu + 1e-6)] + strict[1:]
    assert checks.mined_pair_failures(wrong_score, tokens, labels, BLEU_MIN, DIV_MIN, rng, 10**6)
    assert checks.mined_pair_failures(strict[1:], tokens, labels, BLEU_MIN, DIV_MIN, rng, 10**6)


def test_relaxed_pair_check(mined):
    _corpus, _labels, strict, relaxed, _orphans, tokens = mined
    assert checks.relaxed_pair_failures(relaxed, strict, tokens, BLEU_MIN, DIV_MIN) == []
    as_strict = [dataclasses.replace(strict[0], relaxed=True)]
    assert checks.relaxed_pair_failures(as_strict, strict[1:], tokens, BLEU_MIN, DIV_MIN)
    assert checks.relaxed_pair_failures(relaxed, relaxed[:1] + strict, tokens, BLEU_MIN, DIV_MIN)


def test_orphan_check(mined):
    _corpus, labels, strict, relaxed, orphans, tokens = mined
    pairs = strict + relaxed
    rng = random.Random(0)
    assert checks.orphan_failures(orphans, pairs, tokens, labels, BLEU_MIN, rng, 100) == []
    assert checks.orphan_failures(orphans[1:], pairs, tokens, labels, BLEU_MIN, rng, 100)
    # A covered turn reported as an orphan, with its pairs dropped, still has a mate passing BLEU.
    victim = strict[0].src
    fake = orphans + [{"dialog": victim[0], "turn": victim[1], "bucket_size": 0, "function": {}}]
    kept = [p for p in pairs if p.src != victim]
    assert checks.orphan_failures(fake, kept, tokens, labels, BLEU_MIN, rng, 100)


def test_pair_file_check(mined):
    _corpus, _labels, strict, relaxed, *_ = mined
    pairs = sorted(strict + relaxed, key=lambda p: (p.src, p.tgt, p.relaxed))
    assert checks.pair_file_failures(pairs, list(pairs)) == []
    changed = list(pairs)
    changed[3] = dataclasses.replace(changed[3], diversity=changed[3].diversity + 1)
    assert checks.pair_file_failures(pairs, changed)
    assert checks.pair_file_failures(pairs, pairs[:-1])


# ---- pipeline checks on one genuine round and corrupted copies -------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    w = run.Workload("check", "parg", 0.3, "synth", 6, (4, 1), 10, 2)
    work = tmp_path_factory.mktemp("bench")
    ctx = run.setup(w, 3, work)
    _times, out, _wall = run.run_round(ctx)
    return ctx, out, work


def _verify(pipeline, **corrupt) -> list[str]:
    ctx, out, work = pipeline
    return run.verify(ctx, {**out, **corrupt}, work)


def test_genuine_round_passes(pipeline):
    assert _verify(pipeline) == []


def _failed(failures: list[str], check: str) -> bool:
    return any(f.startswith(check + ":") for f in failures)


def test_corrupt_load(pipeline):
    _ctx, out, _ = pipeline
    loaded = out["loaded"]
    fewer = type(loaded)(loaded.ontology, loaded.database, loaded.dialogs[1:])
    assert _failed(_verify(pipeline, loaded=fewer), "load")


def test_corrupt_mined_twin(pipeline):
    _ctx, out, _ = pipeline
    instances = list(out["instances"])
    i = next(i for i, inst in enumerate(instances) if inst.is_paraphrase)
    instances[i] = dataclasses.replace(instances[i], response_target=("wrong",))
    assert _failed(_verify(pipeline, instances=instances), "mined twins")
    instances[i] = dataclasses.replace(instances[i - 1], is_paraphrase=True)
    assert _failed(_verify(pipeline, instances=instances), "mined twins")


def test_corrupt_model_stream(pipeline):
    _ctx, out, _ = pipeline
    streams = [list(s) for s in out["streams"]]
    original = streams[0][0]
    streams[0].insert(1, dataclasses.replace(original, is_paraphrase=True))  # copies its original
    assert _failed(_verify(pipeline, streams=streams), "model twins")
    streams = [s[:-1] for s in out["streams"]]
    assert _failed(_verify(pipeline, streams=streams), "stream length")


def test_corrupt_scores(pipeline):
    _ctx, out, _ = pipeline
    scores = {**out["scores"], "bleu": out["scores"]["bleu"] + 1e-6}
    assert _failed(_verify(pipeline, scores=scores), "rollout bleu")


def test_corrupt_orphans_and_pair_file(pipeline):
    _ctx, out, _ = pipeline
    covered = out["mined"][0].src
    fake = {"dialog": covered[0], "turn": covered[1], "bucket_size": 0, "function": {}}
    assert _failed(_verify(pipeline, orphans=out["orphans"] + [fake]), "orphans")
    pairs = list(out["pairs"])
    pairs[0] = dataclasses.replace(pairs[0], bleu=0.5)
    assert _failed(_verify(pipeline, pairs=pairs), "pair file")


def test_untrained_model_fails_dev_loss(pipeline):
    ctx, out, _ = pipeline
    from dialaug.neural import ModelParams

    result = out["result"]
    untrained = dataclasses.replace(result, params=ModelParams(result.cfg))
    assert _failed(_verify(pipeline, result=untrained), "dev loss")


def test_aborted_training_fails(pipeline):
    _ctx, out, _ = pipeline
    result = out["result"]
    aborted = dataclasses.replace(result, aborted=True, epochs_run=result.epochs_run - 1)
    assert _failed(_verify(pipeline, result=aborted), "training")
    assert checks.training_failures(False, 2, 2) == []
    assert checks.training_failures(True, 2, 2) and checks.training_failures(False, 1, 2)


# ---- numeric checks fed corrupted values ------------------------------------


def test_mixture_check():
    row = np.array([0.25, 0.25, 0.5])
    assert checks.mixture_failures([row]) == []
    assert checks.mixture_failures([row * (1 + 1e-8)])
    assert checks.mixture_failures([np.array([0.5, 0.6, -0.1])])


def test_gradient_check():
    tape = [0.3, -2.0, 1e-11]
    assert checks.gradient_failures([1, 2, 3], tape, [0.3 + 1e-7, -2.0, 0.0]) == []
    assert checks.gradient_failures([1, 2, 3], tape, [0.3 * (1 + 1e-3), -2.0, 0.0])


def test_dev_loss_gold_and_checkpoint_checks():
    assert checks.dev_loss_failures(1.0, 2.0) == [] and checks.dev_loss_failures(2.0, 2.0)
    assert checks.gold_score_failures({"emr": 1.0, "inform": 1.0, "success": 1.0}) == []
    assert checks.gold_score_failures({"emr": 1.0, "inform": 0.5, "success": 1.0})
    assert checks.checkpoint_failures(b"abc", b"abc") == [] and checks.checkpoint_failures(b"abc", b"abd")
