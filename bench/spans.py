"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps library functions from outside the program: each target
is replaced, at the module or class attribute its callers look up, by a
wrapper that opens a span (name, start, end, parent span) around the call.
Spans stay in memory and are written out when the run ends.  A hook may
count work from a call's arguments or result; hooks run in a span of their
own named `trace.hook`, so their cost never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

HOOK = "trace.hook"


class SpanRecorder:
    """Flat, append-only span store; spans nest through a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def wrap(self, fn, name: str, hook=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._end(idx)
            if hook is not None:
                h = rec._begin(HOOK)
                try:
                    hook(rec, args, result)
                finally:
                    rec._end(h)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "spans": [
                [n, s, e, p] for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counters": dict(self.counters),
        }


class Patch:
    """Install wrappers at (module, attribute path) targets; undo restores the originals."""

    def __init__(self, recorder: SpanRecorder, targets):
        self.recorder = recorder
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name, hook in self.targets:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.recorder.wrap(original, name, hook))
        return self.recorder

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
        return False


# ---- hooks: counts measured where the work happens -------------------------


def _tape_nodes(rec, args, result) -> None:
    seen: set[int] = set()
    stack = [result.total]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    rec.count("autodiff.tape_nodes", len(seen))


def _encode_tokens(rec, args, result) -> None:
    rec.count("model.encode_tokens", len(result.tokens))


def _nll_tokens(rec, args, result) -> None:
    rec.count("model.nll_tokens", len(args[1]))


def _admitted(rec, args, result) -> None:
    rec.count("mining.admitted", len(result))


def _filter_passed(rec, args, result) -> None:
    rec.count("augment.filter_passed", 1 if result.passed else 0)


# (module, attribute, span name, hook).  A function bound under several
# modules is wrapped at each binding, under one span name.
TARGETS = [
    ("dialaug.corpus", "load_canonical", "corpus.load_canonical", None),
    ("dialaug.mining", "sentence_bleu", "textmetrics.sentence_bleu", None),
    ("dialaug.mining", "diversity", "textmetrics.diversity", None),
    ("dialaug.augment", "sentence_bleu", "textmetrics.sentence_bleu", None),
    ("dialaug.augment", "diversity", "textmetrics.diversity", None),
    ("dialaug.mining", "index_by_function", "mining.index_by_function", None),
    ("dialaug.mining", "mine_pairs", "mining.mine_pairs", _admitted),
    ("dialaug.evaluation", "mine_pairs", "mining.mine_pairs", _admitted),
    ("dialaug.mining", "relax_for_orphans", "mining.relax_for_orphans", _admitted),
    ("dialaug.evaluation", "relax_for_orphans", "mining.relax_for_orphans", _admitted),
    ("dialaug.mining", "orphan_turns", "mining.orphan_turns", None),
    ("dialaug.mining", "export_pairs", "mining.export_pairs", None),
    ("dialaug.mining", "import_pairs", "mining.import_pairs", None),
    ("dialaug.augment", "utter_sub", "augment.utter_sub", None),
    ("dialaug.evaluation", "utter_sub", "augment.utter_sub", None),
    ("dialaug.augment", "build_instances", "augment.build_instances", None),
    ("dialaug.evaluation", "build_instances", "augment.build_instances", None),
    ("dialaug.augment", "filter_generated", "augment.filter_generated", _filter_passed),
    ("dialaug.neural.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("dialaug.neural.training", "forward_instance", "model.forward_instance", _tape_nodes),
    ("dialaug.neural.model", "encode", "model.encode", _encode_tokens),
    ("dialaug.neural.model", "Decoder.step", "model.decoder_step", None),
    ("dialaug.neural.model", "AttentionSite.__call__", "model.attention", None),
    ("dialaug.neural.model", "sequence_nll", "model.sequence_nll", _nll_tokens),
    ("dialaug.neural.model", "ModelParams.flat", "model.params_vector", None),
    ("dialaug.neural.model", "ModelParams.load_flat", "model.params_vector", None),
    ("dialaug.neural.model", "ModelParams.grad_flat", "model.params_vector", None),
    ("dialaug.evaluation", "generate_turn", "model.generate_turn", None),
    ("dialaug.neural.training", "Adam.step", "training.adam_step", None),
    ("dialaug.neural.training", "mean_loss", "training.mean_loss", None),
    ("dialaug.evaluation", "train", "training.train", None),
    ("dialaug.evaluation", "train_mode", "evaluation.train_mode", None),
    ("dialaug.evaluation", "rollout_dialog", "evaluation.rollout_dialog", None),
    ("dialaug.evaluation", "score_results", "evaluation.score_results", None),
]


# ---- per-layer metrics -----------------------------------------------------


class SpanStats:
    """Totals, counts and self times by span name over one recorder."""

    def __init__(self, rec: SpanRecorder):
        n = len(rec.names)
        durations = [rec.ends[i] - rec.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            p = rec.parents[i]
            if p >= 0:
                child_time[p] += durations[i]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_under: dict[tuple[str, str], int] = defaultdict(int)
        for i, name in enumerate(rec.names):
            self.total[name] += durations[i]
            self.self_time[name] += durations[i] - child_time[i]
            self.calls[name] += 1
            p = rec.parents[i]
            self.calls_under[(name, rec.names[p] if p >= 0 else "")] += 1
        self.counters = rec.counters

    def mean(self, name: str, scale: float) -> float:
        return self.total[name] / self.calls[name] * scale if self.calls[name] else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better, function of SpanStats)
LAYER_METRICS = {
    "corpus.load_canonical_s": ("s", "lower", lambda s: s.mean("corpus.load_canonical", 1.0)),
    "textmetrics.sentence_bleu_calls": ("count", "lower", lambda s: s.calls["textmetrics.sentence_bleu"]),
    "textmetrics.sentence_bleu_us": ("us", "lower", lambda s: s.mean("textmetrics.sentence_bleu", 1e6)),
    "textmetrics.diversity_calls": ("count", "lower", lambda s: s.calls["textmetrics.diversity"]),
    "textmetrics.diversity_us": ("us", "lower", lambda s: s.mean("textmetrics.diversity", 1e6)),
    "mining.index_by_function_calls": ("count", "lower", lambda s: s.calls["mining.index_by_function"]),
    "mining.mine_pairs_self_s": ("s", "lower", lambda s: s.self_time["mining.mine_pairs"]),
    "mining.relax_for_orphans_self_s": ("s", "lower", lambda s: s.self_time["mining.relax_for_orphans"]),
    "mining.orphan_turns_s": ("s", "lower", lambda s: s.total["mining.orphan_turns"]),
    "mining.admitted_per_bleu_call": ("pairs/call", "higher", lambda s: _ratio(
        s.counters["mining.admitted"],
        s.calls_under[("textmetrics.sentence_bleu", "mining.mine_pairs")]
        + s.calls_under[("textmetrics.sentence_bleu", "mining.relax_for_orphans")],
    )),
    "augment.build_instances_self_s": ("s", "lower", lambda s: s.self_time["augment.build_instances"]),
    "augment.utter_sub_s": ("s", "lower", lambda s: s.total["augment.utter_sub"]),
    "augment.filter_generated_calls": ("count", "lower", lambda s: s.calls["augment.filter_generated"]),
    "augment.filter_passed_per_call": ("ratio", "higher", lambda s: _ratio(
        s.counters["augment.filter_passed"], s.calls["augment.filter_generated"])),
    "autodiff.tape_nodes_per_instance": ("nodes", "lower", lambda s: _ratio(
        s.counters["autodiff.tape_nodes"], s.calls["model.forward_instance"])),
    "autodiff.backward_ms_per_instance": ("ms", "lower", lambda s: s.mean("autodiff.backward", 1e3)),
    "model.forward_instance_ms": ("ms", "lower", lambda s: s.mean("model.forward_instance", 1e3)),
    "model.encode_us_per_token": ("us", "lower", lambda s: _ratio(
        s.total["model.encode"] * 1e6, s.counters["model.encode_tokens"])),
    "model.decoder_step_us": ("us", "lower", lambda s: s.mean("model.decoder_step", 1e6)),
    "model.attention_us": ("us", "lower", lambda s: s.mean("model.attention", 1e6)),
    "model.sequence_nll_us_per_token": ("us", "lower", lambda s: _ratio(
        s.total["model.sequence_nll"] * 1e6, s.counters["model.nll_tokens"])),
    "model.params_vector_ms": ("ms", "lower", lambda s: s.total["model.params_vector"] * 1e3),
    "model.generate_turn_ms": ("ms", "lower", lambda s: s.mean("model.generate_turn", 1e3)),
    "model.greedy_steps_per_generate": ("steps", "lower", lambda s: _ratio(
        s.calls_under[("model.decoder_step", "model.generate_turn")], s.calls["model.generate_turn"])),
    "training.adam_step_ms": ("ms", "lower", lambda s: s.mean("training.adam_step", 1e3)),
    "training.mean_loss_s": ("s", "lower", lambda s: s.total["training.mean_loss"]),
    "training.train_self_s": ("s", "lower", lambda s: s.self_time["training.train"]),
    "evaluation.train_mode_self_s": ("s", "lower", lambda s: s.self_time["evaluation.train_mode"]),
    "evaluation.rollout_dialog_self_ms": ("ms", "lower", lambda s: _ratio(
        s.self_time["evaluation.rollout_dialog"] * 1e3, s.calls["evaluation.rollout_dialog"])),
    "evaluation.score_results_ms": ("ms", "lower", lambda s: s.mean("evaluation.score_results", 1e3)),
}
OVERHEAD = "trace.overhead_s"


def layer_metrics(recorders: list[SpanRecorder], traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Every per-layer metric as the median over traced rounds, plus the tracing overhead.

    The overhead compares the best traced round with the best untraced one,
    as the end-to-end metrics take each run's best round.
    """
    stats = [SpanStats(r) for r in recorders]
    out = {}
    for name, (unit, _better, fn) in LAYER_METRICS.items():
        out[name] = {"value": statistics.median(fn(s) for s in stats), "unit": unit}
    overhead = min(traced_walls) - min(untraced_walls)
    out[OVERHEAD] = {"value": overhead, "unit": "s"}
    return out
