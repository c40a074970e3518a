"""Joint four-decoder network: context encoder, action / paraphrase / belief /
response decoders with additive attention, cross-decoder attention links and a
pointer-generator copy mechanism over the encoder input.

Decoder chain (teacher-forced during training, greedy at test time):
  action     <- encoder(R_prev, U)
  paraphrase <- encoder(R_prev, U)            + attention over action hiddens
  belief     <- encoder(R_prev, U, B_prev)    + attention over paraphrase hiddens
  response   <- encoder(R_prev, U)            + attention over belief hiddens
                + database match bucket appended to the first decoder input
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vocab import Vocab, CopyExtension, PAD_ID, UNK_ID, BOS_ID, EOS_ID, SEP

log = logging.getLogger(__name__)

DECODERS = ("action", "para", "belief", "response")
DB_BUCKETS = 3

LOG_EPS = 1e-12


class TrainingError(Exception):
    """Non-finite loss or another unrecoverable numerical failure."""


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 50
    hidden_dim: int = 50
    vocab_size: int = 0
    max_encode_len: int = 160
    max_decode_action: int = 24
    max_decode_paraphrase: int = 40
    max_decode_belief: int = 48
    max_decode_response: int = 48
    learning_rate: float = 0.003
    lr_halve_patience: int = 3
    early_stop_patience: int = 5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    # Instances per optimizer step; a batch runs as one padded (B, ·) pass.
    batch_size: int = 32
    clip_norm: float = 5.0
    init_scale: float = 0.08
    max_epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim <= 0 or self.hidden_dim <= 0:
            raise ValueError("embed_dim and hidden_dim must be positive")
        if self.lr_halve_patience <= 0 or self.early_stop_patience <= 0:
            raise ValueError("patience values must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        return cls(**obj)

    def with_vocab(self, vocab_size: int) -> "ModelConfig":
        return replace(self, vocab_size=vocab_size)

    def max_decode(self, decoder: str) -> int:
        return {
            "action": self.max_decode_action,
            "para": self.max_decode_paraphrase,
            "belief": self.max_decode_belief,
            "response": self.max_decode_response,
        }[decoder]


def _layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Stable (name, shape) list defining the flat parameter ordering."""
    e, h, v = cfg.embed_dim, cfg.hidden_dim, cfg.vocab_size
    a = h
    out: list[tuple[str, tuple[int, ...]]] = [("embed", (v, e))]
    for direction in ("fwd", "bwd"):
        out += [
            (f"enc.{direction}.Wx", (e, 3 * h)),
            (f"enc.{direction}.Uh", (h, 3 * h)),
            (f"enc.{direction}.b", (1, 3 * h)),
        ]
    for name in DECODERS:
        ctx_w = 2 * h if name == "action" else 3 * h
        in_x = e + (DB_BUCKETS if name == "response" else 0)
        out += [
            (f"dec.{name}.init.W", (2 * h, h)),
            (f"dec.{name}.init.b", (1, h)),
            (f"dec.{name}.cell.Wx", (in_x + ctx_w, 3 * h)),
            (f"dec.{name}.cell.Uh", (h, 3 * h)),
            (f"dec.{name}.cell.b", (1, 3 * h)),
            (f"dec.{name}.att_enc.Wq", (h, a)),
            (f"dec.{name}.att_enc.Wk", (2 * h, a)),
            (f"dec.{name}.att_enc.b", (1, a)),
            (f"dec.{name}.att_enc.v", (a, 1)),
        ]
        if name != "action":
            out += [
                (f"dec.{name}.att_cross.Wq", (h, a)),
                (f"dec.{name}.att_cross.Wk", (h, a)),
                (f"dec.{name}.att_cross.b", (1, a)),
                (f"dec.{name}.att_cross.v", (a, 1)),
            ]
        out += [
            (f"dec.{name}.out.W", (h + ctx_w, v)),
            (f"dec.{name}.out.b", (1, v)),
            (f"dec.{name}.gate.w", (h + ctx_w, 1)),
            (f"dec.{name}.gate.b", (1, 1)),
        ]
    return out


class ModelParams:
    """All trainable tensors as views into one flat float64 parameter buffer.

    `data` holds every parameter and `grad` every gradient, both in layout
    order; each tensor's `.data` and `.grad` is a view into them, so an
    optimizer updates the buffer in place and clearing gradients is one fill.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        if cfg.vocab_size <= 0:
            raise ValueError("ModelConfig.vocab_size must be set before building parameters")
        self.cfg = cfg
        self.layout = _layout(cfg)
        rng = rng or np.random.Generator(np.random.PCG64(cfg.seed))
        sizes = [int(np.prod(shape)) for _, shape in self.layout]
        self.data = np.empty(sum(sizes))
        self.grad = np.zeros(sum(sizes))
        self.tensors: dict[str, Tensor] = {}
        offset = 0
        for (name, shape), size in zip(self.layout, sizes):
            view = self.data[offset : offset + size].reshape(shape)
            view[...] = rng.uniform(-cfg.init_scale, cfg.init_scale, size=shape)
            tensor = ad.param(view)
            tensor.grad = self.grad[offset : offset + size].reshape(shape)
            self.tensors[name] = tensor
            offset += size

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    @property
    def n_params(self) -> int:
        return self.data.size

    def flat(self) -> np.ndarray:
        return self.data.copy()

    def load_flat(self, vec: np.ndarray) -> None:
        if vec.size != self.n_params:
            raise ValueError(f"expected {self.n_params} values, got {vec.size}")
        self.data[:] = np.ravel(vec)

    def grad_flat(self) -> np.ndarray:
        return self.grad.copy()

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def check_finite(self) -> None:
        if np.isfinite(self.data).all():
            return
        for name, _ in self.layout:
            if not np.all(np.isfinite(self.tensors[name].data)):
                raise TrainingError(f"non-finite values in parameter {name!r}")


@dataclass
class Encoding:
    """Encoder outputs of a batch of B rows."""

    hiddens: Tensor  # (T*B, 2H), time-major: row t*B + j is position t of row j
    final: Tensor  # (B, 2H)
    tokens: list[list[str]]  # each row's tokens
    lengths: np.ndarray  # (B,) tokens per row; later positions are padding


def encode(params: ModelParams, token_ids: list[list[int]], tokens: list[list[str]]) -> Encoding:
    """Bi-directional recurrent pass over a batch of token rows.

    A position's hidden is the concatenation of both directions' states, and
    a row's final state concatenates the forward state after its last token
    with the backward state after its first.  A row longer than
    `max_encode_len` keeps its last tokens: the user turn and the belief come
    last, the oldest context first.
    """
    keep = params.cfg.max_encode_len
    if not token_ids:
        raise ValueError("encoder input must have at least one row")
    rows_ids, rows_tokens = [], []
    for ids, toks in zip(token_ids, tokens):
        if len(ids) > keep:
            log.warning("encoder input of %d tokens truncated to its last %d", len(ids), keep)
            ids, toks = ids[-keep:], toks[-keep:]
        if not ids:
            raise ValueError("encoder input must be non-empty")
        rows_ids.append(ids)
        rows_tokens.append(list(toks))
    lengths = np.array([len(ids) for ids in rows_ids])
    nb, n = len(rows_ids), int(lengths.max())
    grid = np.full((n, nb), PAD_ID, dtype=np.intp)
    for j, ids in enumerate(rows_ids):
        grid[: len(ids), j] = ids
    emb = ad.gather_rows(params["embed"], grid.ravel())  # (T*B, E)
    fwd, bwd = (
        ad.gru_sequence(
            emb, params[f"enc.{d}.Wx"], params[f"enc.{d}.Uh"], params[f"enc.{d}.b"],
            reverse=d == "bwd", lengths=lengths,
        )
        for d in ("fwd", "bwd")
    )
    # Padding positions repeat the forward state, so its last block holds every row's final state.
    return Encoding(
        hiddens=ad.concat([fwd, bwd], axis=1),
        final=ad.concat([ad.narrow(fwd, 0, (n - 1) * nb, nb), ad.narrow(bwd, 0, 0, nb)], axis=1),
        tokens=rows_tokens,
        lengths=lengths,
    )


class AttentionSite:
    """Additive attention over a batch of key sequences; key projections are shared across steps."""

    def __init__(self, params: ModelParams, prefix: str, keys: Tensor, lengths: np.ndarray):
        self.keys = keys
        # Without padding the weights need no mask.
        self.lengths = lengths if (lengths < keys.shape[0] // lengths.size).any() else None
        self.wq = params[f"{prefix}.Wq"]
        self.v = params[f"{prefix}.v"]
        self.proj_k = ad.add(ad.matmul(keys, params[f"{prefix}.Wk"]), params[f"{prefix}.b"])  # (T*B, A)

    def __call__(self, query: Tensor) -> tuple[Tensor, Tensor]:
        """(context rows (B, K), attention weights (B, T)) for (B, H) queries."""
        weights = ad.attention_weights(query, self.wq, self.proj_k, self.v, self.lengths)
        return ad.attend(weights, self.keys), weights


@dataclass
class DecodeStep:
    probs: Tensor  # (B, widest extended vocab of the batch): mixture distributions
    copy_probs: Tensor  # (B, same width): copy component alone (constant)
    gate: Tensor  # (B, 1) (constant)
    hidden: Tensor  # (B, H)


class Decoder:
    """One decoding head over a batch of rows, bound to its attention sites and copy sources.

    Row j copies from the tokens of its encoder row through its own copy
    extension `exts[j]`.  `cross_keys` are the previous decoder's hiddens
    (time-major, `cross_lengths` steps per row), and the response decoder
    reads each row's database bucket on its first step.  After a run,
    `lengths` holds each row's number of steps.
    """

    def __init__(
        self,
        params: ModelParams,
        name: str,
        encoding: Encoding,
        exts: list[CopyExtension],
        cross_keys: Tensor | None = None,
        cross_lengths: np.ndarray | None = None,
        db_buckets: list[int] | None = None,
    ):
        if (cross_keys is None) != (name == "action") or (cross_keys is None) != (cross_lengths is None):
            raise ValueError(f"decoder {name!r} cross-attention wiring is wrong")
        if (db_buckets is not None) != (name == "response"):
            raise ValueError("db bucket applies to the response decoder only")
        if len(exts) != len(encoding.tokens):
            raise ValueError(f"{len(exts)} copy extensions for {len(encoding.tokens)} rows")
        self.params = params
        self.name = name
        self.exts = exts
        self.att_enc = AttentionSite(params, f"dec.{name}.att_enc", encoding.hiddens, encoding.lengths)
        self.att_cross = (
            AttentionSite(params, f"dec.{name}.att_cross", cross_keys, cross_lengths) if cross_keys is not None else None
        )
        # Padding positions have attention weight 0, so any column serves them.
        self.src_ids = np.zeros((len(exts), int(encoding.lengths.max())), dtype=np.intp)
        for j, (ext, toks) in enumerate(zip(exts, encoding.tokens)):
            self.src_ids[j, : len(toks)] = [ext.source_id(t) for t in toks]
        self.width = max(ext.width for ext in exts)
        if db_buckets is not None:
            self.db_flags = np.zeros((len(exts), DB_BUCKETS))
            self.db_flags[np.arange(len(exts)), db_buckets] = 1.0
        self.cell = [params[f"dec.{name}.cell.{k}"] for k in ("Wx", "Uh", "b")]
        self.out = [params[f"dec.{name}.{k}"] for k in ("out.W", "out.b", "gate.w", "gate.b")]
        self.state = ad.tanh(
            ad.add(ad.matmul(encoding.final, params[f"dec.{name}.init.W"]), params[f"dec.{name}.init.b"])
        )
        self.first_step = True
        self.lengths: np.ndarray | None = None

    def step(self, x_emb: Tensor) -> DecodeStep:
        inputs = [x_emb]
        if self.name == "response":
            inputs.append(ad.const(self.db_flags if self.first_step else np.zeros_like(self.db_flags)))
        self.first_step = False

        ctx_enc, w_enc = self.att_enc(self.state)
        ctx = [ctx_enc]
        if self.att_cross is not None:
            ctx.append(self.att_cross(self.state)[0])

        self.state = ad.gru_cell(ad.concat(inputs + ctx, axis=1), self.state, *self.cell)
        probs, gate, copy = ad.pointer_mixture(
            ad.concat([self.state] + ctx, axis=1), *self.out, w_enc, self.src_ids, self.width
        )
        return DecodeStep(probs=probs, copy_probs=ad.const(copy), gate=ad.const(gate), hidden=self.state)

    def run_teacher(self, vocab: Vocab, targets: list[list[str]]) -> tuple[list[DecodeStep], list[list[int]]]:
        """Teacher-forced pass; returns per-step outputs and each row's extended target ids (incl. EOS)."""
        nb = len(targets)
        self.lengths = np.array([len(toks) + 1 for toks in targets])
        n = int(self.lengths.max())
        teacher = np.full((n, nb), PAD_ID, dtype=np.intp)
        target_ids = []
        for j, (ext, toks) in enumerate(zip(self.exts, targets)):
            teacher[: len(toks) + 1, j] = [BOS_ID] + [vocab.id(t) for t in toks]
            target_ids.append([ext.target_id(t) for t in toks] + [EOS_ID])
        emb = ad.gather_rows(self.params["embed"], teacher.ravel())  # (T*B, E)
        return [self.step(ad.narrow(emb, 0, t * nb, nb)) for t in range(n)], target_ids

    def run_greedy(self, vocab: Vocab, max_len: int) -> tuple[list[DecodeStep], list[list[str]]]:
        """Greedy decode until every row has emitted EOS or max_len steps ran.

        Returns the steps and each row's emitted tokens (EOS excluded); a row
        that has finished keeps stepping with the others but emits nothing.
        """
        nb = len(self.exts)
        prev = [BOS_ID] * nb
        lengths = [0] * nb
        live = set(range(nb))
        steps: list[DecodeStep] = []
        tokens: list[list[str]] = [[] for _ in range(nb)]
        for _ in range(max_len):
            step = self.step(ad.gather_rows(self.params["embed"], prev))
            steps.append(step)
            choice = step.probs.data.argmax(axis=1).tolist()
            for j in sorted(live):
                lengths[j] += 1
                if choice[j] == EOS_ID:
                    live.discard(j)
                    continue
                tokens[j].append(self.exts[j].token(choice[j]))
                prev[j] = choice[j] if choice[j] < len(vocab) else UNK_ID
            if not live:
                break
        self.lengths = np.array(lengths)
        return steps, tokens


def sequence_nll(steps: list[DecodeStep], target_ids: list[list[int]]) -> Tensor:
    """Each row's mean per-token negative log-likelihood of the mixture distributions, as (B, 1)."""
    lengths = np.array([len(ids) for ids in target_ids], dtype=np.intp)
    if len(steps) != lengths.max(initial=0):
        raise ValueError(f"{len(steps)} steps vs {lengths.max(initial=0)} targets")
    padded = np.zeros((len(target_ids), len(steps)), dtype=np.intp)
    for j, ids in enumerate(target_ids):
        padded[j, : len(ids)] = ids
    return ad.mean_nll([s.probs for s in steps], padded, LOG_EPS, lengths)


@dataclass
class ForwardResult:
    """Teacher-forced outputs of a batch of B instances."""

    total: Tensor  # (1, 1): the sum of the rows' totals
    totals: Tensor  # (B, 1): each row's total
    loss_action: Tensor  # (B, 1) each, per row
    loss_paraphrase: Tensor
    loss_belief: Tensor
    loss_response: Tensor
    steps: dict[str, list[DecodeStep]]
    targets: dict[str, list[list[int]]]  # each row's extended target ids, by decoder
    exts: list[CopyExtension]

    def _columns(self) -> dict[str, Tensor]:
        return {
            "total": self.totals, "a": self.loss_action, "p": self.loss_paraphrase,
            "b": self.loss_belief, "r": self.loss_response,
        }

    def row_components(self) -> list[dict[str, float]]:
        """Each row's loss components."""
        cols = self._columns()
        return [{k: float(t.data[j, 0]) for k, t in cols.items()} for j in range(self.totals.shape[0])]

    def components(self) -> dict[str, float]:
        """Loss components summed over the batch (a batch of one: the instance's own)."""
        return {k: float(t.data.sum()) for k, t in self._columns().items()}


def _run_chain(params: ModelParams, vocab: Vocab, rows, run, db_buckets, last: str = "response"):
    """Encode a batch of turns and run the decoders in chain order, up to and including `last`.

    `rows` holds each turn's (context, prev_belief, user_input).  The belief
    decoder reads the input extended by the previous belief; the others read
    context and user input only, and each decoder after the first attends
    over the hiddens of the one before.  `run(decoder)` returns the
    decoder's (steps, outputs); `db_buckets(outputs so far)` gives the
    response decoder's database bucket of every row.  Returns each row's copy
    extension, and the steps and outputs keyed by decoder name.
    """
    enc1_tokens = [list(context) + [SEP] + list(user) for context, _, user in rows]
    enc2_tokens = [toks + [SEP] + list(belief) for toks, (_, belief, _) in zip(enc1_tokens, rows)]
    exts = [CopyExtension(vocab, toks) for toks in enc2_tokens]

    def encoded(token_rows):
        return encode(params, [[vocab.id(t) for t in toks] for toks in token_rows], token_rows)

    enc1 = encoded(enc1_tokens)
    steps: dict[str, list[DecodeStep]] = {}
    outputs: dict = {}
    cross_keys = cross_lengths = None
    for name in DECODERS:
        encoding = encoded(enc2_tokens) if name == "belief" else enc1
        buckets = db_buckets(outputs) if name == "response" else None
        dec = Decoder(params, name, encoding, exts, cross_keys, cross_lengths, buckets)
        steps[name], outputs[name] = run(dec)
        if name == last:
            break
        cross_keys = ad.concat([s.hidden for s in steps[name]], axis=0)
        cross_lengths = dec.lengths
    return exts, steps, outputs


def _nll_of_rows(steps: list[DecodeStep], target_ids: list[list[int]], active: np.ndarray) -> Tensor:
    """Per-row NLL (B, 1), zero for the rows `active` leaves out."""
    if not active.any():
        return ad.const(np.zeros((active.size, 1)))
    nll = sequence_nll(steps, target_ids)
    return nll if active.all() else ad.mul(nll, ad.const(active[:, None].astype(np.float64)))


def forward_batch(params: ModelParams, vocab: Vocab, instances, losses: frozenset[str] | None = None) -> ForwardResult:
    """Teacher-forced forward pass of all four decoders over a batch of training instances.

    The batch runs as one pass over padded rows; each row's losses equal its
    instance's own.  Every decoder always runs (downstream attention needs its
    hiddens); `losses`, or each instance's own `losses` without it, masks
    which components contribute to a row's total.  A turn without a
    paraphrase target teacher-forces the paraphrase decoder on the user input
    and contributes zero paraphrase loss.
    """
    active = [losses if losses is not None else inst.losses for inst in instances]
    gold = {
        "action": [inst.act_target for inst in instances],
        "para": [inst.paraphrase_target if inst.paraphrase_target is not None else inst.user_input for inst in instances],
        "belief": [inst.belief_target for inst in instances],
        "response": [inst.response_target for inst in instances],
    }
    exts, steps, targets = _run_chain(
        params, vocab, [(inst.context, inst.prev_belief, inst.user_input) for inst in instances],
        run=lambda dec: dec.run_teacher(vocab, [list(toks) for toks in gold[dec.name]]),
        db_buckets=lambda _outputs: [inst.db_bucket for inst in instances],
    )

    def supervised(key: str) -> np.ndarray:
        return np.array([key in keys for keys in active])

    has_para = np.array([inst.paraphrase_target is not None for inst in instances])
    loss_a = _nll_of_rows(steps["action"], targets["action"], supervised("a"))
    loss_p = _nll_of_rows(steps["para"], targets["para"], supervised("p") & has_para)
    loss_b = _nll_of_rows(steps["belief"], targets["belief"], supervised("b"))
    loss_r = _nll_of_rows(steps["response"], targets["response"], supervised("r"))
    totals = ad.add(ad.add(loss_a, loss_p), ad.add(loss_b, loss_r))
    bad = np.flatnonzero(~np.isfinite(totals.data[:, 0]))
    if bad.size:
        j = int(bad[0])
        inst = instances[j]
        raise TrainingError(
            f"non-finite loss on dialog {inst.dialog_id!r} turn {inst.turn}: "
            f"a={loss_a.data[j, 0]} p={loss_p.data[j, 0]} b={loss_b.data[j, 0]} r={loss_r.data[j, 0]}"
        )
    return ForwardResult(
        total=ad.tsum(totals),
        totals=totals,
        loss_action=loss_a,
        loss_paraphrase=loss_p,
        loss_belief=loss_b,
        loss_response=loss_r,
        steps=steps,
        targets=targets,
        exts=exts,
    )


def forward_instance(params: ModelParams, vocab: Vocab, inst, losses: frozenset[str] | None = None) -> ForwardResult:
    """`forward_batch` over a batch of one instance."""
    return forward_batch(params, vocab, [inst], losses)


@dataclass
class TurnOutput:
    action: list[str]
    paraphrase: list[str]
    belief: list[str]
    response: list[str]
    db_bucket: int


def _greedy(params: ModelParams, vocab: Vocab):
    return lambda dec: dec.run_greedy(vocab, params.cfg.max_decode(dec.name))


def generate_turn(
    params: ModelParams,
    vocab: Vocab,
    context: list[str],
    prev_belief: list[str],
    user_input: list[str],
    db_bucket_fn=None,
) -> TurnOutput:
    """Greedy full-turn rollout: action, paraphrase, belief, then response.

    `db_bucket_fn` maps the predicted belief tokens to a database match bucket
    (0, 1 or 2); without it the response decoder sees bucket 0.
    """
    bucket = 0

    def db_buckets(outputs) -> list[int]:
        nonlocal bucket
        if db_bucket_fn is not None:
            bucket = int(db_bucket_fn(outputs["belief"][0]))
        return [bucket]

    _, _, out = _run_chain(
        params, vocab, [(context, prev_belief, user_input)], _greedy(params, vocab), db_buckets
    )
    return TurnOutput(
        action=out["action"][0], paraphrase=out["para"][0], belief=out["belief"][0], response=out["response"][0],
        db_bucket=bucket,
    )


def generate_paraphrase(
    params: ModelParams, vocab: Vocab, context: list[str], prev_belief: list[str], user_input: list[str]
) -> list[str]:
    """The paraphrase `generate_turn` would emit, decoding only the action and paraphrase heads."""
    _, _, out = _run_chain(
        params, vocab, [(context, prev_belief, user_input)], _greedy(params, vocab), db_buckets=None, last="para"
    )
    return out["para"][0]
