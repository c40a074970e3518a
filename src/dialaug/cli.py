"""Command-line entry point wiring the pipeline stages.

Subcommands: ingest, mine, augment, train, generate, evaluate, stats, and
metrics (bleu / diversity).  Global flags `--seed`, `--config`, `--log-level`
apply to every subcommand; flag values override config-file values, which
override built-in defaults.  Logs go to stderr, data to files or stdout.
Exit codes: 0 success, 1 validation or usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .augment import ALL_LOSSES, build_instances, utter_sub
from .corpus import CorpusError, load_canonical, split, tokenize
from .evaluation import MODE_NONE, MODE_PARG, MODES, EvalCell, EvalReport, evaluate_model, train_mode
from .mining import (
    MiningConfig,
    PairFileError,
    export_pairs,
    import_pairs,
    mine_pairs,
    orphan_turns,
    relax_for_orphans,
)
from .neural import (
    CheckpointError,
    ModelConfig,
    TrainingError,
    from_result,
    generate_turn,
    load_checkpoint,
    save_checkpoint,
)
from .raw_formats import SCHEMAS, ConversionError, convert_raw
from .textmetrics import SMOOTH_ADD_ONE, SMOOTH_NONE, BleuConfig, diversity, sentence_bleu

log = logging.getLogger("dialaug")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
CONFIG_VERSION = 1


class UsageError(Exception):
    """Bad flags, bad config, or invalid input data; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dialaug", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None, help="global random seed (default 0)")
    parser.add_argument("--config", default=None, help="JSON config file with a 'version' field")
    parser.add_argument("--log-level", default=None, help="logging level name (default INFO)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", help="convert a raw corpus file to canonical JSON")
    p.add_argument("--raw", required=True, help="raw corpus file")
    p.add_argument("--schema", required=True, choices=SCHEMAS, help="raw schema id")
    p.add_argument("--db", default=None, help="separate database JSON file, if the schema needs one")
    p.add_argument("--out", required=True, help="canonical corpus JSON to write")

    p = sub.add_parser("mine", help="mine context-aware paraphrase pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--bleu-th", type=float, default=None, help="BLEU admission threshold")
    p.add_argument("--div-th", type=float, default=None, help="diversity admission threshold")
    p.add_argument("--out", required=True, help="pairs JSONL to write")
    p.add_argument("--orphan-report", default=None, help="JSON report of unpaired turns")

    p = sub.add_parser("augment", help="apply mined pairs as data augmentation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", required=True, help="mined pairs JSONL")
    p.add_argument("--mode", required=True, choices=("utter-sub", "stream"))
    p.add_argument("--out", required=True, help="augmented corpus JSON (utter-sub) or instance JSONL (stream)")

    p = sub.add_parser("train", help="train the joint multi-decoder network")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", default=None, help="mined pairs JSONL (mined fresh when omitted)")
    p.add_argument("--mode", default=None, choices=MODES,
                   help="augmentation setting; defaults to parg with --pairs, none without")
    p.add_argument("--dev-corpus", default=None, help="held-out corpus (default: 1/5 split of --corpus)")
    p.add_argument("--out", required=True, help="checkpoint file to write")

    p = sub.add_parser("generate", help="run one dialog turn through a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True, help="turn JSON: context, prev_belief, user_input, db_bucket")
    p.add_argument("--mode", default="full-turn", choices=("full-turn",))

    p = sub.add_parser("evaluate", help="score a checkpoint on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--label", default=MODE_NONE, choices=MODES, help="augmentation label for the report row")
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--md", default=None, help="markdown report to write")
    p.add_argument("--timings", default=None, help="runtime sidecar JSON to write")

    p = sub.add_parser("stats", help="print corpus (and optional pair) statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pairs", default=None)

    p = sub.add_parser("metrics", help="compute one text metric on the command line")
    msub = p.add_subparsers(dest="metric", required=True, metavar="metric")
    b = msub.add_parser("bleu", help="sentence BLEU of --hyp against --ref")
    b.add_argument("--hyp", required=True)
    b.add_argument("--ref", required=True)
    b.add_argument("--corpus-level", action="store_true", help="treat the pair as a one-sentence corpus")
    b.add_argument("--smoothing", default=None, choices=(SMOOTH_NONE, SMOOTH_ADD_ONE))
    d = msub.add_parser("diversity", help="word-level edit distance between --hyp and --ref")
    d.add_argument("--hyp", required=True)
    d.add_argument("--ref", required=True)
    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    if data.get("version") != CONFIG_VERSION:
        raise UsageError(f"config file must carry \"version\": {CONFIG_VERSION}")
    return data


def _mining_config(cfg_data: dict, args) -> MiningConfig:
    section = dict(cfg_data.get("mining", {}))
    for flag, key in (("bleu_th", "bleu_threshold"), ("div_th", "diversity_threshold")):
        value = getattr(args, flag, None)
        if value is not None:
            section[key] = value
    try:
        return MiningConfig(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad mining config: {exc}") from exc


def _model_config(cfg_data: dict, seed: int) -> ModelConfig:
    section = dict(cfg_data.get("model", {}))
    section.setdefault("seed", seed)
    try:
        return ModelConfig.from_json(section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad model config: {exc}") from exc


def _tokens(value, fieldname: str) -> list[str]:
    if isinstance(value, str):
        return tokenize(value)
    if isinstance(value, list) and all(isinstance(t, str) for t in value):
        return list(value)
    raise UsageError(f"turn field {fieldname!r} must be a string or a list of tokens")


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, ensure_ascii=False, sort_keys=True, indent=1)
        f.write("\n")


def cmd_ingest(args, cfg_data: dict, seed: int) -> int:
    corpus, conv = convert_raw(args.raw, args.schema, db_path=args.db)
    for line in conv.warnings:
        log.warning("%s", line)
    log.info("%s", conv.summary())
    corpus.save(args.out)
    log.info("wrote %s", args.out)
    return EXIT_OK


def cmd_mine(args, cfg_data: dict, seed: int) -> int:
    corpus = load_canonical(args.corpus)
    cfg = _mining_config(cfg_data, args)
    strict = mine_pairs(corpus, cfg)
    pairs = strict + relax_for_orphans(corpus, strict, cfg)
    export_pairs(pairs, args.out)
    n_strict = len(strict)
    orphans = orphan_turns(corpus, pairs, cfg.include_requested_slots)
    log.info("mined %d pairs (%d strict, %d relaxed), %d orphan turns",
             len(pairs), n_strict, len(pairs) - n_strict, len(orphans))
    if args.orphan_report is not None:
        _write_json(
            {
                "n_pairs": len(pairs),
                "n_relaxed": sum(1 for p in pairs if p.relaxed),
                "n_orphans": len(orphans),
                "orphans": orphans,
            },
            args.orphan_report,
        )
    return EXIT_OK


def cmd_augment(args, cfg_data: dict, seed: int) -> int:
    corpus = load_canonical(args.corpus)
    pairs = import_pairs(args.pairs)
    if args.mode == "utter-sub":
        augmented = utter_sub(corpus, pairs)
        augmented.save(args.out)
        log.info("wrote %d dialogs (%d originals) to %s",
                 len(augmented.dialogs), len(corpus.dialogs), args.out)
        return EXIT_OK
    cfg = _mining_config(cfg_data, args)
    instances = build_instances(
        corpus, pairs, paraphrase_source="mined", cfg=cfg, epoch_seed=seed, losses=ALL_LOSSES
    )
    with open(args.out, "w", encoding="utf-8") as f:
        for inst in instances:
            f.write(json.dumps(inst.to_json(), ensure_ascii=False, sort_keys=True) + "\n")
    log.info("wrote %d instances to %s", len(instances), args.out)
    return EXIT_OK


def cmd_train(args, cfg_data: dict, seed: int) -> int:
    corpus = load_canonical(args.corpus)
    pairs = import_pairs(args.pairs) if args.pairs else None
    mode = args.mode if args.mode is not None else (MODE_PARG if pairs else MODE_NONE)
    if args.dev_corpus:
        train_c, dev_c = corpus, load_canonical(args.dev_corpus)
    else:
        train_c, dev_c, _ = split(corpus, (4.0, 1.0, 0.0), seed)
    model_cfg = _model_config(cfg_data, seed)
    mining_cfg = _mining_config(cfg_data, args)
    result = train_mode(train_c, dev_c, mode, model_cfg, mining_cfg, pairs=pairs)
    save_checkpoint(from_result(result), args.out)
    log.info("trained %d epochs, best dev loss %.6f, wrote %s",
             result.epochs_run, result.best_dev, args.out)
    if result.aborted:
        log.error("training aborted on non-finite loss; checkpoint holds the best earlier state")
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_generate(args, cfg_data: dict, seed: int) -> int:
    params, vocab = load_checkpoint(args.ckpt).restore()
    try:
        with open(args.input, encoding="utf-8") as f:
            turn = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read turn file {args.input}: {exc}") from exc
    if not isinstance(turn, dict) or "user_input" not in turn:
        raise UsageError("turn file must be a JSON object with at least 'user_input'")
    bucket = turn.get("db_bucket", 0)
    if not isinstance(bucket, int) or not 0 <= bucket <= 2:
        raise UsageError("turn field 'db_bucket' must be an integer in 0..2")
    out = generate_turn(
        params,
        vocab,
        context=_tokens(turn.get("context", []), "context"),
        prev_belief=_tokens(turn.get("prev_belief", []), "prev_belief"),
        user_input=_tokens(turn["user_input"], "user_input"),
        db_bucket_fn=lambda _belief: bucket,
    )
    json.dump(
        {
            "action": out.action,
            "paraphrase": out.paraphrase,
            "belief": out.belief,
            "response": out.response,
            "db_bucket": out.db_bucket,
        },
        sys.stdout,
        ensure_ascii=False,
        sort_keys=True,
        indent=1,
    )
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_evaluate(args, cfg_data: dict, seed: int) -> int:
    corpus = load_canonical(args.corpus)
    params, vocab = load_checkpoint(args.ckpt).restore()
    scores = evaluate_model(params, vocab, corpus)
    cell = EvalCell(
        data_fraction=1.0,
        augmentation=args.label,
        seed=seed,
        bleu=scores["bleu"],
        emr=scores["emr"],
        success_f1=scores["success_f1"],
        inform=scores["inform"],
        success=scores["success"],
        combined=scores["combined"],
    )
    report = EvalReport([cell])
    report.save(args.out, md_path=args.md, timing_path=args.timings)
    log.info("evaluated %d dialogs (%d excluded as goalless); wrote %s",
             scores["n_dialogs"], scores["n_excluded"], args.out)
    return EXIT_OK


def cmd_stats(args, cfg_data: dict, seed: int) -> int:
    corpus = load_canonical(args.corpus)
    ont = corpus.ontology
    n_turns = sum(len(d.turns) for d in corpus.dialogs)
    lines = [
        ("dialogs", len(corpus.dialogs)),
        ("turns", n_turns),
        ("domains", len(ont.domains)),
        ("slot types", len(ont.all_slot_names())),
        ("informable slots", sum(len(ont.informable_slots(d)) for d in ont.domains)),
        ("requestable slots", sum(len(ont.requestable_slots(d)) for d in ont.domains)),
        ("database records", len(corpus.database)),
    ]
    if args.pairs is not None:
        pairs = import_pairs(args.pairs)
        lines += [
            ("paraphrase pairs", len(pairs)),
            ("relaxed pairs", sum(1 for p in pairs if p.relaxed)),
        ]
    for name, value in lines:
        sys.stdout.write(f"{name}: {value}\n")
    return EXIT_OK


def cmd_metrics(args, cfg_data: dict, seed: int) -> int:
    hyp, ref = tokenize(args.hyp), tokenize(args.ref)
    if args.metric == "diversity":
        value = float(diversity(hyp, ref))
    elif not hyp or not ref:
        raise UsageError("BLEU needs non-empty --hyp and --ref text")
    else:
        # A one-pair corpus scores as its sentence; the flag only changes the default smoothing.
        default = SMOOTH_NONE if args.corpus_level else SMOOTH_ADD_ONE
        value = sentence_bleu(hyp, ref, BleuConfig(smoothing=args.smoothing or default))
    sys.stdout.write(f"{value:.10f}\n")
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "mine": cmd_mine,
    "augment": cmd_augment,
    "train": cmd_train,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
    "stats": cmd_stats,
    "metrics": cmd_metrics,
}


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg_data = _load_config_file(args.config) if args.config else {}
        seed = args.seed if args.seed is not None else int(cfg_data.get("seed", 0))
        level = args.log_level or cfg_data.get("log_level", "INFO")
        logging.basicConfig(
            stream=sys.stderr, level=str(level).upper(), format="%(levelname)s %(name)s: %(message)s"
        )
        return _COMMANDS[args.command](args, cfg_data, seed)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"dialaug: error: {exc}\n")
        return EXIT_USAGE
    except (CorpusError, ConversionError, CheckpointError, PairFileError, FileNotFoundError) as exc:
        sys.stderr.write(f"dialaug: error: {exc}\n")
        return EXIT_USAGE
    except TrainingError as exc:
        sys.stderr.write(f"dialaug: training failure: {exc}\n")
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns surprises into exit codes
        sys.stderr.write(f"dialaug: unexpected failure: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
