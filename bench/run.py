#!/usr/bin/env python3
"""Benchmark of the dialaug pipeline: one workload, one seed, one process.

    python3 bench/run.py --workload train-none --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/` next to
this directory.  The run generates its inputs from the seed, then repeats
whole rounds of the pipeline for at least `--seconds`: load the corpus file,
mine paraphrase pairs, round-trip them through a pair file, augment, train
one experiment cell, roll out the test split and score it.  It is a closed
loop with one caller on one thread (BLAS is pinned to one thread).  After the
timing it checks the outputs against independent references.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, each taken from the run's best round (see README.md for
why); with `--trace 1` the first half of the time runs untraced, the second
half traced, and the metrics are the per-layer ones derived from the spans.
Spans and results are written under `bench/out/`.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

import argparse
import gc
import json
import pathlib
import random
import resource
import shutil
import signal
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPLIT_RATIOS = (3.0, 1.0, 1.0)
PAIR_SAMPLE = 200
ORPHAN_SAMPLE = 20
GRAD_COORDS = 16
GRAD_STEP = 1e-4
MIXTURE_INSTANCES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # augmentation mode of the trained cell
    data_scale: float  # plan scale of the seeded data corpus (corpusgen)
    cell_corpus: str  # generator of the cell and test dialogs: "synth" or "skewed"
    cell_size: float  # dialogs for "synth", plan scale for "skewed"
    cell: tuple[int, int]  # train and dev dialogs of the fixed training cell
    test_size: float  # size of the seeded corpus whose test split is rolled out, as cell_size
    test_dialogs: int  # dialogs of that test split rolled out per round


BATCH_SIZE = 4
# Below the early-stop patience (5), so the work never depends on the losses.
EPOCHS = 2
# The training cell comes from its generator at CELL_SEED, whatever --seed
# is.  Greedy decoding stops at the first end token the model emits, so the
# generation work of a parg epoch and of every rollout depends on what the
# model learned; on seeded cells it ranged over a factor of two.  A fixed cell
# trains the same model in every run, so the seed varies the data corpus and
# the dialogs rolled out, and the training work stays equal.
CELL_SEED = 0
# load_canonical calls per round.  One load of the 190-turn file takes about
# 10 ms, too short a sample for the host's speed switches; eight make one
# timed interval per round.
LOAD_REPEATS = 8
WORKLOADS = {
    "train-none": Workload("train-none", "none", 0.5, "synth", 30, (6, 2), 50, 8),
    "train-parg": Workload("train-parg", "parg", 0.5, "synth", 30, (6, 2), 50, 8),
    "mine-augment": Workload("mine-augment", "none", 1.5, "skewed", 0.5, (2, 1), 0.5, 5),
}


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time when readable.

    The kernel reports the start in clock ticks (10 ms at the usual 100 Hz),
    so the age reads up to one tick long.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _START


def import_package():
    """Import dialaug from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dialaug
    except ImportError as e:
        raise SystemExit(f"error: cannot import dialaug from {src}: {e}")
    if pathlib.Path(dialaug.__file__).resolve().parent != (src / "dialaug").resolve():
        raise SystemExit(f"error: dialaug resolved to {dialaug.__file__}, not {src}")
    return dialaug


@dataclass
class Context:
    workload: Workload
    seed: int
    corpus_json: dict  # the seeded data corpus as written to the corpus file
    labels: list[dict]  # intended function of every user turn of the data corpus
    corpus_path: pathlib.Path
    pairs_path: pathlib.Path
    data: object  # the data corpus, mined and augmented
    train: object  # training split of the fixed cell
    dev: object  # dev split of the fixed cell
    test: object  # seeded dialogs rolled out with the trained cell
    model_cfg: object
    mining_cfg: object
    candidates: int  # ordered same-bucket pairs of the data corpus, from the labels
    train_turns: int  # user turns of the cell's training split, counted in its generated JSON


def generate(kind: str, size: float, seed: int):
    """(corpus, its canonical JSON) from the synth generator or corpusgen."""
    import corpusgen
    from dialaug.corpus import corpus_from_json
    from dialaug.synth import synth_corpus

    if kind == "synth":
        corpus = synth_corpus(int(size), seed=seed)
        return corpus, corpus.to_json()
    corpus_json, _labels = corpusgen.generate(seed, size)
    return corpus_from_json(corpus_json), corpus_json


def decode_caps(corpus) -> dict[str, int]:
    """Greedy-decode caps: the longest gold sequence of each decoder in `corpus`, plus two.

    Decoding always has room to finish, and a model that has not learned to
    stop costs a bounded number of steps.
    """
    from dialaug.augment import build_instances

    instances = build_instances(corpus, None, paraphrase_source="none", epoch_seed=0)
    fields = {
        "max_decode_action": "act_target", "max_decode_paraphrase": "user_input",
        "max_decode_belief": "belief_target", "max_decode_response": "response_target",
    }
    return {cap: max(len(getattr(inst, f)) for inst in instances) + 2 for cap, f in fields.items()}


def setup(w: Workload, seed: int, work_dir: pathlib.Path) -> Context:
    import corpusgen
    from dialaug.corpus import Corpus, corpus_from_json, split
    from dialaug.mining import MiningConfig
    from dialaug.neural import ModelConfig

    corpus_json, labels = corpusgen.generate(seed, w.data_scale)
    corpus_path = work_dir / "corpus.json"
    corpus_path.write_text(json.dumps(corpus_json), encoding="utf-8")
    data = corpus_from_json(corpus_json)

    cell, cell_json = generate(w.cell_corpus, w.cell_size, CELL_SEED)
    cell_train, cell_dev, _ = split(cell, SPLIT_RATIOS, CELL_SEED)
    n_train, n_dev = w.cell
    train = Corpus(cell.ontology, cell.database, cell_train.dialogs[:n_train])
    dev = Corpus(cell.ontology, cell.database, cell_dev.dialogs[:n_dev])
    test_source, _ = generate(w.cell_corpus, w.test_size, seed)
    _, _, test = split(test_source, SPLIT_RATIOS, seed)
    if len(test.dialogs) < w.test_dialogs:
        raise SystemExit(f"error: the seeded test split has {len(test.dialogs)} dialogs, {w.test_dialogs} wanted")

    train_ids = {d.id for d in train.dialogs}
    # From the whole fixed cell corpus, so the caps do not depend on --seed.
    model_cfg = ModelConfig(max_epochs=EPOCHS, batch_size=BATCH_SIZE, **decode_caps(cell))
    return Context(
        workload=w, seed=seed, corpus_json=corpus_json, labels=labels,
        corpus_path=corpus_path, pairs_path=work_dir / "pairs.jsonl",
        data=data, train=train, dev=dev,
        test=Corpus(test.ontology, test.database, test.dialogs[: w.test_dialogs]),
        model_cfg=model_cfg, mining_cfg=MiningConfig(),
        candidates=corpusgen.candidate_pairs(labels),
        train_turns=sum(len(d["turns"]) for d in cell_json["dialogs"] if d["id"] in train_ids),
    )


@contextmanager
def capture_streams(evaluation):
    """Collect the per-epoch instance streams train_mode builds (calls with a non-zero epoch seed)."""
    original = evaluation.build_instances
    streams: list = []

    def capturing(*args, **kwargs):
        out = original(*args, **kwargs)
        if kwargs.get("epoch_seed", 0) != 0:
            streams.append(out)
        return out

    evaluation.build_instances = capturing
    try:
        yield streams
    finally:
        evaluation.build_instances = original


def ops_per_round(ctx: Context) -> int:
    # LOAD_REPEATS loads, mine, relax, orphans, export, import, utter_sub,
    # build_instances, train, one rollout per test dialog, score
    return LOAD_REPEATS + 8 + len(ctx.test.dialogs) + 1


class RoundFailed(Exception):
    def __init__(self, failed_ops: int):
        super().__init__(failed_ops)
        self.failed_ops = failed_ops


def run_round(ctx: Context) -> tuple[dict, dict, float]:
    """One pass of the pipeline: (per-stage seconds, outputs, wall seconds).

    The data block (load, mine, relax, orphan report, pair-file round trip,
    utter-sub, instance stream) runs on the seeded corpus; then the cell
    trains and the test dialogs are rolled out.
    """
    from dialaug import corpus as corpus_mod, mining, augment, evaluation

    times: dict[str, float] = {"rollout": 0.0}
    done = 0

    def timed(key, fn, *args, **kwargs):
        nonlocal done
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times[key] = times.get(key, 0.0) + time.perf_counter() - t0
        done += 1
        return out

    m, cfg = ctx.data, ctx.mining_cfg
    t_round = time.perf_counter()
    try:
        for _ in range(LOAD_REPEATS):
            loaded = timed("load", corpus_mod.load_canonical, ctx.corpus_path)
        mined = timed("mine", mining.mine_pairs, m, cfg)
        relaxed = timed("relax", mining.relax_for_orphans, m, mined, cfg)
        orphans = timed("orphans", mining.orphan_turns, m, mined + relaxed, cfg.include_requested_slots)
        timed("export", mining.export_pairs, mined + relaxed, ctx.pairs_path)
        pairs = timed("import", mining.import_pairs, ctx.pairs_path)
        subbed = timed("utter_sub", augment.utter_sub, m, pairs)
        instances = timed(
            "build_instances", augment.build_instances, m, pairs,
            paraphrase_source="mined", cfg=cfg, epoch_seed=ctx.seed,
        )
        with capture_streams(evaluation) as streams:
            result = timed("train", evaluation.train_mode, ctx.train, ctx.dev, ctx.workload.mode, ctx.model_cfg, cfg)
        rollouts = [
            timed("rollout", evaluation.rollout_dialog, result.params, result.vocab, ctx.test, d)
            for d in ctx.test.dialogs
        ]
        scores = timed("score", evaluation.score_results, rollouts, ctx.test)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        raise RoundFailed(ops_per_round(ctx) - done)
    wall = time.perf_counter() - t_round
    outputs = {
        "loaded": loaded, "mined": mined, "relaxed": relaxed, "orphans": orphans, "pairs": pairs,
        "subbed": subbed, "instances": instances, "streams": streams, "result": result,
        "rollouts": rollouts, "scores": scores,
    }
    return times, outputs, wall


def round_metrics(ctx: Context, times: dict, out: dict) -> dict[str, float]:
    clones = len(out["subbed"].dialogs) - len(ctx.data.dialogs)
    return {
        "train_s": times["train"],
        "train_instances_per_s": sum(len(s) for s in out["streams"]) / times["train"],
        "rollout_turns_per_s": ctx.test.n_turns() / (times["rollout"] + times["score"]),
        "load_turns_per_s": LOAD_REPEATS * out["loaded"].n_turns() / times["load"],
        "mine_candidates_per_s": ctx.candidates / (times["mine"] + times["relax"] + times["orphans"]),
        "augment_instances_per_s": (clones + len(out["instances"])) / (times["utter_sub"] + times["build_instances"]),
    }


LOWER_IS_BETTER = {"setup_s", "train_s", "peak_rss_mb"}
UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "train_instances_per_s": "instances/s",
    "rollout_turns_per_s": "turns/s",
    "load_turns_per_s": "turns/s",
    "mine_candidates_per_s": "pairs/s",
    "augment_instances_per_s": "instances/s",
    "peak_rss_mb": "MB",
}


def verify(ctx: Context, out: dict, work_dir: pathlib.Path) -> list[str]:
    """Run every output check on the last round; returns the failures."""
    import numpy as np

    import checks
    from dialaug import augment, evaluation, mining
    from dialaug.neural import ModelParams, checkpoint, forward_instance, mean_loss

    rng = random.Random(ctx.seed)
    cfg = ctx.mining_cfg
    bleu_min, div_min = cfg.bleu_threshold, cfg.diversity_threshold
    m = ctx.data
    tokens = {(d.id, t.index): list(t.user_delex.tokens) for d, t in m.user_turns()}
    result = out["result"]
    params, vocab = result.params, result.vocab
    failures: dict[str, list[str]] = {}

    failures["training"] = checks.training_failures(result.aborted, result.epochs_run, EPOCHS)
    failures["load"] = checks.load_failures(out["loaded"].n_turns(), len(out["loaded"].dialogs), ctx.corpus_json)
    failures["buckets"] = checks.bucket_failures(mining.index_by_function(m, cfg.include_requested_slots), ctx.labels)
    failures["mined pairs"] = checks.mined_pair_failures(
        out["mined"], tokens, ctx.labels, bleu_min, div_min, rng, PAIR_SAMPLE)
    failures["relaxed pairs"] = checks.relaxed_pair_failures(out["relaxed"], out["mined"], tokens, bleu_min, div_min)
    failures["orphans"] = checks.orphan_failures(
        out["orphans"], out["mined"] + out["relaxed"], tokens, ctx.labels, bleu_min, rng, ORPHAN_SAMPLE)
    failures["pair file"] = checks.pair_file_failures(out["mined"] + out["relaxed"], out["pairs"])
    failures["mined twins"] = checks.twin_failures(out["instances"], bleu_min, div_min)
    failures["model twins"] = [f for s in out["streams"] for f in checks.twin_failures(s, bleu_min, div_min)]
    failures["stream length"] = checks.stream_failures(
        out["streams"], EPOCHS, ctx.train_turns, ctx.workload.mode)

    ckpt_a, ckpt_b = work_dir / "a.ckpt", work_dir / "b.ckpt"
    checkpoint.save_checkpoint(checkpoint.from_result(result), ckpt_a)
    checkpoint.save_checkpoint(checkpoint.load_checkpoint(ckpt_a), ckpt_b)
    failures["checkpoint"] = checks.checkpoint_failures(ckpt_a.read_bytes(), ckpt_b.read_bytes())

    stream = out["streams"][-1] if out["streams"] else []
    sampled = rng.sample(stream, min(MIXTURE_INSTANCES, len(stream)))
    rows = [
        step.probs.data[0]
        for inst in sampled
        for steps in forward_instance(params, vocab, inst).steps.values()
        for step in steps
    ]
    failures["mixtures"] = checks.mixture_failures(rows) if rows else ["no instances to check"]

    dev_instances = augment.build_instances(
        ctx.dev, None, paraphrase_source="none", epoch_seed=0,
        losses=evaluation.mode_losses(ctx.workload.mode),
    )
    initial = mean_loss(ModelParams(result.cfg), vocab, dev_instances)["total"]
    failures["dev loss"] = checks.dev_loss_failures(mean_loss(params, vocab, dev_instances)["total"], initial)

    gold = evaluation.score_results(evaluation.gold_results(ctx.test), ctx.test)
    failures["gold scores"] = checks.gold_score_failures(gold)
    failures["rollout bleu"] = checks.rollout_bleu_failures(out["rollouts"], out["scores"]["bleu"])

    later = [inst for inst in stream if inst.turn > 1] or stream
    if later:
        inst = rng.choice(later)
        base = params.flat().copy()
        params.zero_grads()
        forward_instance(params, vocab, inst).total.backward()
        grad = params.grad_flat().copy()
        params.zero_grads()
        nonzero = [int(i) for i in np.flatnonzero(grad)]
        coords = rng.sample(nonzero, min(GRAD_COORDS - 4, len(nonzero))) + rng.sample(range(base.size), 4)
        finite = []
        for c in coords:
            losses = []
            for delta in (GRAD_STEP, -GRAD_STEP):
                moved = base.copy()
                moved[c] += delta
                params.load_flat(moved)
                losses.append(forward_instance(params, vocab, inst).total.item())
            finite.append((losses[0] - losses[1]) / (2 * GRAD_STEP))
        params.load_flat(base)
        failures["gradients"] = checks.gradient_failures(coords, [grad[c] for c in coords], finite)
    else:
        failures["gradients"] = ["no instances to check"]

    return [f"{name}: {msg}" for name, msgs in failures.items() for msg in msgs]


def measure(ctx: Context, seconds: float, traced: bool):
    """Repeat whole rounds for `seconds`.

    Returns (metrics of each untraced round, outputs of the last round,
    operations attempted, operations failed, (recorders, traced walls,
    untraced walls)).
    """
    import spans

    per_round = ops_per_round(ctx)
    rounds: list[dict[str, float]] = []
    recorders: list = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    attempted = failed = 0
    last = None
    start = time.perf_counter()
    switch_at = start + seconds / 2 if traced else float("inf")
    while True:
        tracing = traced and bool(untraced_walls) and time.perf_counter() >= switch_at
        recorder = spans.SpanRecorder()
        gc.collect()
        attempted += per_round
        try:
            if tracing:
                with spans.Patch(recorder, spans.TARGETS):
                    times, last, wall = run_round(ctx)
            else:
                times, last, wall = run_round(ctx)
        except RoundFailed as e:
            failed += e.failed_ops
            break
        if tracing:
            recorders.append(recorder)
            traced_walls.append(wall)
        else:
            rounds.append(round_metrics(ctx, times, last))
            untraced_walls.append(wall)
        elapsed_out = time.perf_counter() >= start + seconds
        if elapsed_out and (not traced or recorders):
            break
    return rounds, last, attempted, failed, (recorders, traced_walls, untraced_walls)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR))
    import_package()
    import spans

    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    work_dir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work_dir.mkdir()
    try:
        ctx = setup(w, args.seed, work_dir)
        setup_s = process_age()
        rounds, last, attempted, failed, trace = measure(ctx, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if failed:
            failures = ["a round failed, so its outputs were not checked"]
        else:
            failures = verify(ctx, last, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    if args.trace:
        recorders, traced_walls, untraced_walls = trace
        metrics = spans.layer_metrics(recorders, traced_walls, untraced_walls) if recorders else {}
        with open(OUT_DIR / f"trace-{w.name}-s{args.seed}.json", "w", encoding="utf-8") as f:
            json.dump(
                {"workload": w.name, "seed": args.seed, "untraced_walls": untraced_walls,
                 "traced_walls": traced_walls, "rounds": [r.to_json() for r in recorders]},
                f,
            )
    else:
        # The best round: see README.md on the host's speed states.
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name in rounds[0] if rounds else ():
            best = min if name in LOWER_IS_BETTER else max
            metrics[name] = {"value": best(r[name] for r in rounds), "unit": UNITS[name]}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    line = {"correct": not failures and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump({**line, "rounds": rounds, "failures": failures}, f, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
