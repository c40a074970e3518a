"""Acceptance gate: nine criteria, each reported as one [PASS]/[FAIL] line.

Every criterion re-derives its expectation independently (frozen oracles,
brute-force enumeration, finite differences, scripted simulations) and checks
the library against it at the stated tolerance and time budget.
"""

import json
import time
from dataclasses import replace

import numpy as np

from oracles import ref_corpus_bleu, ref_edit_distance, ref_mine, ref_sentence_bleu

from dialaug.augment import ALL_LOSSES, build_instances
from dialaug.evaluation import (
    MODE_NONE,
    MODE_PARG,
    EvalCell,
    EvalReport,
    _reserved_tokens,
    _vocab_sequences,
    evaluate_model,
    mode_losses,
    run_experiment,
)
from dialaug.mining import MiningConfig, index_by_function, mine_pairs, relax_for_orphans
from dialaug.neural import (
    Adam,
    CopyExtension,
    Decoder,
    ModelConfig,
    ModelParams,
    PlateauSchedule,
    SEP,
    Vocab,
    clip_gradient,
    encode,
    forward_instance,
    from_result,
    generate_turn,
    save_checkpoint,
    train,
)
from dialaug.neural import autodiff as ad
from dialaug.textmetrics import SMOOTH_ADD_ONE, SMOOTH_NONE, BleuConfig, corpus_bleu, diversity, sentence_bleu

_cache: dict = {}


def _verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} — {detail}")
    assert ok, f"criterion {num}: {label} — {detail}"


def _random_pairs(n: int, seed: int = 42):
    rng = np.random.Generator(np.random.PCG64(seed))
    alphabet = ["a", "b", "c", "d", "e", "f", "g", "h"]
    out = []
    for _ in range(n):
        la, lb = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        hyp = [alphabet[i] for i in rng.integers(0, len(alphabet), la)]
        ref = [alphabet[i] for i in rng.integers(0, len(alphabet), lb)]
        out.append((hyp, ref))
    return out


def test_criterion_1_metric_oracles(capsys):
    t0 = time.monotonic()
    pairs = _random_pairs(100)
    max_err = 0.0
    div_mismatches = 0
    for hyp, ref in pairs:
        for smoothing in (SMOOTH_NONE, SMOOTH_ADD_ONE):
            got = sentence_bleu(hyp, ref, BleuConfig(smoothing=smoothing))
            want = ref_sentence_bleu(hyp, ref, smoothing=smoothing)
            max_err = max(max_err, abs(got - want))
        if diversity(hyp, ref) != ref_edit_distance(hyp, ref):
            div_mismatches += 1
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    for smoothing in (SMOOTH_NONE, SMOOTH_ADD_ONE):
        got = corpus_bleu(hyps, refs, BleuConfig(smoothing=smoothing))
        want = ref_corpus_bleu(hyps, refs, smoothing=smoothing)
        max_err = max(max_err, abs(got - want))
    elapsed = time.monotonic() - t0
    ok = max_err <= 1e-9 and div_mismatches == 0 and elapsed < 60
    _verdict(
        capsys, 1, "BLEU and diversity match frozen oracles on 100 random pairs",
        ok, f"max BLEU err {max_err:.2e}, diversity mismatches {div_mismatches}, {elapsed:.1f}s",
    )


def test_criterion_2_mining_brute_force(capsys, mini_corpus):
    t0 = time.monotonic()
    cfg = MiningConfig()
    mined = mine_pairs(mini_corpus, cfg)
    got = {(p.src, p.tgt) for p in mined}
    want = ref_mine(mini_corpus, cfg.bleu_threshold, cfg.diversity_threshold)
    exact = got == want

    merged = mined + relax_for_orphans(mini_corpus, mined, cfg)
    srcs = {p.src for p in merged}
    index = index_by_function(mini_corpus, cfg.include_requested_slots)
    uncovered = [
        ref for refs in index.values() if len(refs) >= 2 for ref in refs if ref not in srcs
    ]
    elapsed = time.monotonic() - t0
    ok = exact and not uncovered and elapsed < 60
    _verdict(
        capsys, 2, "mined pairs equal brute-force enumeration; relaxation covers all non-singleton turns",
        ok, f"{len(got)} strict pairs exact={exact}, uncovered after relax {len(uncovered)}, {elapsed:.1f}s",
    )


def test_criterion_3_gradient_check(capsys, tiny_setup):
    t0 = time.monotonic()
    corpus, instances, vocab, cfg = tiny_setup
    inst = next(i for i in instances if i.turn == 2)  # non-empty context and prev belief
    params = ModelParams(cfg)
    base = params.flat().copy()
    rng = np.random.Generator(np.random.PCG64(7))
    coords = rng.choice(params.n_params, size=200, replace=False)
    step = 1e-4

    def loss_at(flat, losses):
        params.load_flat(flat)
        return forward_instance(params, vocab, inst, losses=losses).total.item()

    worst = {}
    configs = [("joint", ALL_LOSSES)] + [(k, frozenset({k})) for k in "apbr"]
    for name, losses in configs:
        params.load_flat(base)
        params.zero_grads()
        forward_instance(params, vocab, inst, losses=losses).total.backward()
        grad = params.grad_flat().copy()
        max_rel = 0.0
        for c in coords:
            up, down = base.copy(), base.copy()
            up[c] += step
            down[c] -= step
            fd = (loss_at(up, losses) - loss_at(down, losses)) / (2 * step)
            rel = abs(grad[c] - fd) / max(abs(grad[c]), abs(fd), 1e-6)
            max_rel = max(max_rel, rel)
        worst[name] = max_rel
    elapsed = time.monotonic() - t0
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 300
    detail = ", ".join(f"{k}:{v:.1e}" for k, v in worst.items())
    _verdict(
        capsys, 3, "analytic gradient matches central differences on 200 coordinates",
        ok, f"max rel err {detail}, {elapsed:.1f}s",
    )


def test_criterion_4_loss_additivity_and_normalization(capsys, tiny_setup):
    corpus, _, vocab, base_cfg = tiny_setup
    cfg = replace(base_cfg, max_epochs=2, batch_size=4)
    params = ModelParams(cfg)
    adam = Adam(params.n_params, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    max_add_err = 0.0
    max_norm_err = 0.0
    min_prob = 1.0
    n_batches = 0
    for epoch in (1, 2):
        stream = build_instances(
            corpus, None, paraphrase_source="none", epoch_seed=epoch,
            losses=ALL_LOSSES, self_paraphrase=True,
        )
        for start in range(0, len(stream), cfg.batch_size):
            batch = stream[start : start + cfg.batch_size]
            params.zero_grads()
            for inst in batch:
                res = forward_instance(params, vocab, inst)
                c = res.components()
                max_add_err = max(max_add_err, abs(c["total"] - (c["a"] + c["p"] + c["b"] + c["r"])))
                for steps in res.steps.values():
                    for s in steps:
                        row = s.probs.data
                        max_norm_err = max(max_norm_err, abs(float(row.sum()) - 1.0))
                        min_prob = min(min_prob, float(row.min()))
                res.total.backward()
            grad = clip_gradient(params.grad_flat() / len(batch), cfg.clip_norm)
            adam.step(params, grad, cfg.learning_rate)
            n_batches += 1
    ok = max_add_err <= 1e-12 and max_norm_err <= 1e-9 and min_prob >= 0.0
    _verdict(
        capsys, 4, "total loss additivity and per-step softmax normalization hold on every batch",
        ok, f"{n_batches} batches, additivity err {max_add_err:.1e}, norm err {max_norm_err:.1e}, min prob {min_prob:.1e}",
    )


def _greedy_chain(params, vocab, inst, want: str) -> dict:
    """Greedy decode through the decoder chain, stopping at the requested stage."""
    cfg = params.cfg
    enc1_tokens = list(inst.context) + [SEP] + list(inst.user_input)
    enc2_tokens = enc1_tokens + [SEP] + list(inst.prev_belief)
    ext = CopyExtension(vocab, enc2_tokens)
    enc1 = encode(params, [[vocab.id(t) for t in enc1_tokens]], [enc1_tokens])
    dec_a = Decoder(params, "action", enc1, [ext])
    steps_a, (action,) = dec_a.run_greedy(vocab, cfg.max_decode("action"))
    out = {"action": action}
    if want == "action":
        return out
    dec_p = Decoder(
        params, "para", enc1, [ext],
        cross_keys=ad.concat([s.hidden for s in steps_a], axis=0), cross_lengths=dec_a.lengths,
    )
    steps_p, (para,) = dec_p.run_greedy(vocab, cfg.max_decode("para"))
    out["para"] = para
    if want == "para":
        return out
    enc2 = encode(params, [[vocab.id(t) for t in enc2_tokens]], [enc2_tokens])
    dec_b = Decoder(
        params, "belief", enc2, [ext],
        cross_keys=ad.concat([s.hidden for s in steps_p], axis=0), cross_lengths=dec_p.lengths,
    )
    _, (belief,) = dec_b.run_greedy(vocab, cfg.max_decode("belief"))
    out["belief"] = belief
    return out


def _gate_train(corpus, losses, *, self_paraphrase: bool, batch_size: int, seed: int):
    eval_instances = build_instances(
        corpus, None, paraphrase_source="none", epoch_seed=0,
        losses=losses, self_paraphrase=self_paraphrase,
    )
    vocab = Vocab.build(_vocab_sequences(eval_instances), reserved=_reserved_tokens(corpus))
    cfg = ModelConfig(batch_size=batch_size, max_epochs=50, seed=seed).with_vocab(len(vocab))

    def instance_fn(epoch, params, vocab_):
        return build_instances(
            corpus, None, paraphrase_source="none", epoch_seed=cfg.seed * 100003 + epoch,
            losses=losses, self_paraphrase=self_paraphrase,
        )

    result = train(cfg, vocab, instance_fn, eval_instances)
    return result, eval_instances


def test_criterion_5_synthetic_learnability_gate(capsys, synth30):
    t0 = time.monotonic()
    belief_result, belief_eval = _gate_train(
        synth30, mode_losses(MODE_NONE), self_paraphrase=False, batch_size=8, seed=0
    )
    belief_hits = 0
    for inst in belief_eval:
        out = _greedy_chain(belief_result.params, belief_result.vocab, inst, "belief")
        belief_hits += out["belief"] == list(inst.belief_target)
    belief_em = belief_hits / len(belief_eval)

    copy_result, copy_eval = _gate_train(
        synth30, frozenset({"a", "p"}), self_paraphrase=True, batch_size=8, seed=1
    )
    matched = total = act_hits = 0
    for inst in copy_eval:
        out = _greedy_chain(copy_result.params, copy_result.vocab, inst, "para")
        target = list(inst.user_input)
        matched += sum(g == t for g, t in zip(out["para"], target))
        total += max(len(out["para"]), len(target))
        act_hits += out["action"] == list(inst.act_target)
    copy_acc = matched / total
    act_em = act_hits / len(copy_eval)
    elapsed = time.monotonic() - t0
    ok = belief_em >= 0.95 and copy_acc >= 0.99 and act_em >= 0.95 and elapsed < 900
    _verdict(
        capsys, 5, "synthetic-corpus learnability gate within 50 epochs",
        ok, f"belief EM {belief_em:.3f} (>=0.95), copy acc {copy_acc:.3f} (>=0.99), act EM {act_em:.3f} (>=0.95), {elapsed:.0f}s",
    )


def test_criterion_6_low_data_augmentation_benefit(capsys, synth30):
    t0 = time.monotonic()
    report = run_experiment(
        synth30, [0.2], [MODE_NONE, MODE_PARG], [0, 1, 2],
        ModelConfig(max_epochs=50, batch_size=2),
    )
    _cache["experiment"] = report
    errors = [c.error for c in report.cells if c.error]
    by_mode = {
        mode: [c.emr for c in report.cells if c.augmentation == mode and c.error is None]
        for mode in (MODE_NONE, MODE_PARG)
    }
    mean_none = float(np.mean(by_mode[MODE_NONE])) if by_mode[MODE_NONE] else float("nan")
    mean_parg = float(np.mean(by_mode[MODE_PARG])) if by_mode[MODE_PARG] else float("nan")
    elapsed = time.monotonic() - t0
    ok = (
        not errors
        and len(by_mode[MODE_NONE]) == 3
        and len(by_mode[MODE_PARG]) == 3
        and mean_parg >= mean_none
        and elapsed < 2700
    )
    _verdict(
        capsys, 6, "20% data: mean EMR with paraphrase augmentation >= baseline over 3 seeds",
        ok, f"parg {mean_parg:.3f} vs none {mean_none:.3f}, errors {len(errors)}, {elapsed:.0f}s",
    )


def test_criterion_7_lr_schedule_simulation(capsys):
    sched = PlateauSchedule(1.0, halve_patience=3, stop_patience=5)
    losses = [10.0, 10.5, 10.4, 10.3, 9.0, 9.5, 9.4, 9.3, 9.2, 9.1]
    got = [(e.improved, e.halved, e.stop, e.lr) for e in (sched.update(l) for l in losses)]
    expected = [
        (True, False, False, 1.0),
        (False, False, False, 1.0),
        (False, False, False, 1.0),
        (False, True, False, 0.5),   # 3rd consecutive miss halves
        (True, False, False, 0.5),   # improvement resets both counters
        (False, False, False, 0.5),
        (False, False, False, 0.5),
        (False, True, False, 0.25),  # halving counter restarted after the halve
        (False, False, False, 0.25),
        (False, False, True, 0.25),  # 5th miss since last improvement stops
    ]
    ok = got == expected
    first_bad = next((i for i, (g, e) in enumerate(zip(got, expected)) if g != e), None)
    _verdict(
        capsys, 7, "plateau schedule halves after 3 misses and stops after 5",
        ok, "10-epoch scripted trace exact" if ok else f"first divergence at epoch {first_bad + 1}: {got[first_bad]}",
    )


def test_criterion_8_byte_identical_artifacts(capsys, mini_corpus, tiny_setup, tmp_path):
    from dialaug.mining import export_pairs

    cfg_m = MiningConfig()
    pair_files = []
    for name in ("a", "b"):
        mined = mine_pairs(mini_corpus, cfg_m)
        merged = mined + relax_for_orphans(mini_corpus, mined, cfg_m)
        path = tmp_path / f"pairs_{name}.jsonl"
        export_pairs(merged, path)
        pair_files.append(path.read_bytes())
    pairs_ok = pair_files[0] == pair_files[1]

    corpus, instances, vocab, base_cfg = tiny_setup
    cfg = replace(base_cfg, max_epochs=2, batch_size=4)

    def instance_fn(epoch, params, vocab_):
        return build_instances(
            corpus, None, paraphrase_source="none", epoch_seed=epoch,
            losses=ALL_LOSSES, self_paraphrase=True,
        )

    ckpt_files = []
    results = []
    for name in ("a", "b"):
        result = train(cfg, vocab, instance_fn, instances)
        results.append(result)
        path = tmp_path / f"model_{name}.ckpt"
        save_checkpoint(from_result(result), path)
        ckpt_files.append(path.read_bytes())
    ckpt_ok = ckpt_files[0] == ckpt_files[1]

    report_files = []
    timing_files = []
    for run, runtime in ((0, 1.0), (1, 2.0)):
        metrics = evaluate_model(results[run].params, vocab, corpus)
        cell = EvalCell(
            data_fraction=1.0, augmentation="none", seed=cfg.seed, runtime=runtime,
            **{k: metrics[k] for k in ("bleu", "emr", "success_f1", "inform", "success", "combined")},
        )
        report = EvalReport(cells=[cell])
        jp, mp, tp = (tmp_path / f"report_{run}{ext}" for ext in (".json", ".md", ".timing.json"))
        report.save(jp, mp, tp)
        report_files.append(jp.read_bytes() + mp.read_bytes())
        timing_files.append(tp.read_bytes())
        _cache.setdefault("report8", report)
    report_ok = report_files[0] == report_files[1]
    timing_differs = timing_files[0] != timing_files[1]

    ok = pairs_ok and ckpt_ok and report_ok and timing_differs
    _verdict(
        capsys, 8, "pair files, checkpoints and reports byte-identical across repeat runs",
        ok, f"pairs={pairs_ok}, checkpoints={ckpt_ok}, reports={report_ok}, runtime kept out of reports={timing_differs}",
    )


def test_criterion_9_combined_score_identity(capsys):
    reports = {name: _cache[name] for name in ("experiment", "report8") if name in _cache}
    assert reports, "no reports produced by earlier criteria"
    n_rows = 0
    max_err = 0.0
    for report in reports.values():
        for row in json.loads(json.dumps(report.to_json()))["rows"]:
            if "error" in row:
                continue
            n_rows += 1
            expected = (row["inform"] + row["success"]) * 0.5 + row["bleu"]
            max_err = max(max_err, abs(row["combined"] - expected))
    ok = n_rows > 0 and max_err <= 1e-9
    _verdict(
        capsys, 9, "combined = (inform + success) * 0.5 + BLEU on every report row",
        ok, f"{n_rows} rows from {len(reports)} reports, max err {max_err:.1e}",
    )
