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
from .vocab import Vocab, CopyExtension, UNK_ID, BOS_ID, EOS_ID, SEP

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
    """All trainable tensors, with a stable flat-vector view."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        if cfg.vocab_size <= 0:
            raise ValueError("ModelConfig.vocab_size must be set before building parameters")
        self.cfg = cfg
        self.layout = _layout(cfg)
        rng = rng or np.random.Generator(np.random.PCG64(cfg.seed))
        self.tensors: dict[str, Tensor] = {}
        for name, shape in self.layout:
            data = rng.uniform(-cfg.init_scale, cfg.init_scale, size=shape)
            self.tensors[name] = ad.param(data)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    @property
    def n_params(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def flat(self) -> np.ndarray:
        return np.concatenate([self.tensors[n].data.ravel() for n, _ in self.layout])

    def load_flat(self, vec: np.ndarray) -> None:
        if vec.size != self.n_params:
            raise ValueError(f"expected {self.n_params} values, got {vec.size}")
        offset = 0
        for name, shape in self.layout:
            size = int(np.prod(shape))
            self.tensors[name].data = vec[offset : offset + size].reshape(shape).astype(np.float64)
            offset += size

    def grad_flat(self) -> np.ndarray:
        parts = []
        for name, shape in self.layout:
            g = self.tensors[name].grad
            parts.append(np.zeros(int(np.prod(shape))) if g is None else g.ravel())
        return np.concatenate(parts)

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def check_finite(self) -> None:
        for name, _ in self.layout:
            if not np.all(np.isfinite(self.tensors[name].data)):
                raise TrainingError(f"non-finite values in parameter {name!r}")


@dataclass
class Encoding:
    hiddens: Tensor  # (T, 2H)
    final: Tensor  # (1, 2H)
    tokens: list[str]


def encode(params: ModelParams, token_ids: list[int], tokens: list[str]) -> Encoding:
    """Bi-directional recurrent pass; per-position hidden is the concatenation of directions."""
    cfg = params.cfg
    if len(token_ids) > cfg.max_encode_len:
        log.warning("encoder input of %d tokens truncated to %d", len(token_ids), cfg.max_encode_len)
        token_ids = token_ids[: cfg.max_encode_len]
        tokens = tokens[: cfg.max_encode_len]
    if not token_ids:
        raise ValueError("encoder input must be non-empty")
    emb = ad.gather_rows(params["embed"], token_ids)  # (T, E)
    fwd, bwd = (
        ad.gru_sequence(emb, params[f"enc.{d}.Wx"], params[f"enc.{d}.Uh"], params[f"enc.{d}.b"], reverse=d == "bwd")
        for d in ("fwd", "bwd")
    )
    return Encoding(
        hiddens=ad.concat([fwd, bwd], axis=1),
        final=ad.concat([ad.narrow(fwd, 0, len(token_ids) - 1, 1), ad.narrow(bwd, 0, 0, 1)], axis=1),
        tokens=list(tokens),
    )


class AttentionSite:
    """Additive attention over a fixed key matrix; key projections are shared across steps."""

    def __init__(self, params: ModelParams, prefix: str, keys: Tensor):
        self.keys = keys
        self.wq = params[f"{prefix}.Wq"]
        self.v = params[f"{prefix}.v"]
        self.proj_k = ad.add(ad.matmul(keys, params[f"{prefix}.Wk"]), params[f"{prefix}.b"])  # (T, A)

    def __call__(self, query: Tensor) -> tuple[Tensor, Tensor]:
        """(context row (1, K), attention weights (1, T)) for a (1, H) query."""
        weights = ad.attention_weights(query, self.wq, self.proj_k, self.v)
        return ad.matmul(weights, self.keys), weights


@dataclass
class DecodeStep:
    probs: Tensor  # (1, extended vocab width): mixture distribution
    copy_probs: Tensor  # (1, extended vocab width): copy component alone (constant)
    gate: Tensor  # (1, 1) (constant)
    hidden: Tensor  # (1, H)


class Decoder:
    """One decoding head bound to its attention sites and copy source."""

    def __init__(
        self,
        params: ModelParams,
        name: str,
        encoding: Encoding,
        ext: CopyExtension,
        cross_keys: Tensor | None = None,
        db_bucket: int | None = None,
    ):
        if (cross_keys is None) != (name == "action"):
            raise ValueError(f"decoder {name!r} cross-attention wiring is wrong")
        if (db_bucket is not None) != (name == "response"):
            raise ValueError("db bucket applies to the response decoder only")
        self.params = params
        self.name = name
        self.ext = ext
        self.att_enc = AttentionSite(params, f"dec.{name}.att_enc", encoding.hiddens)
        self.att_cross = AttentionSite(params, f"dec.{name}.att_cross", cross_keys) if cross_keys is not None else None
        self.src_ids = [ext.source_id(t) for t in encoding.tokens]
        self.db_bucket = db_bucket
        self.cell = [params[f"dec.{name}.cell.{k}"] for k in ("Wx", "Uh", "b")]
        self.out = [params[f"dec.{name}.{k}"] for k in ("out.W", "out.b", "gate.w", "gate.b")]
        self.state = ad.tanh(
            ad.add(ad.matmul(encoding.final, params[f"dec.{name}.init.W"]), params[f"dec.{name}.init.b"])
        )
        self.first_step = True

    def step(self, x_emb: Tensor) -> DecodeStep:
        inputs = [x_emb]
        if self.name == "response":
            flag = np.zeros((1, DB_BUCKETS))
            if self.first_step:
                flag[0, self.db_bucket] = 1.0
            inputs.append(ad.const(flag))
        self.first_step = False

        ctx_enc, w_enc = self.att_enc(self.state)
        ctx = [ctx_enc]
        if self.att_cross is not None:
            ctx.append(self.att_cross(self.state)[0])

        self.state = ad.gru_cell(ad.concat(inputs + ctx, axis=1), self.state, *self.cell)
        probs, gate, copy = ad.pointer_mixture(
            ad.concat([self.state] + ctx, axis=1), *self.out, w_enc, self.src_ids, self.ext.width
        )
        return DecodeStep(probs=probs, copy_probs=ad.const(copy), gate=ad.const(gate), hidden=self.state)

    def run_teacher(self, vocab: Vocab, target_tokens: list[str]) -> tuple[list[DecodeStep], list[int]]:
        """Teacher-forced pass; returns per-step outputs and extended target ids (incl. EOS)."""
        teacher_ids = [BOS_ID] + [vocab.id(t) for t in target_tokens]
        target_ids = [self.ext.target_id(t) for t in target_tokens] + [EOS_ID]
        emb = ad.gather_rows(self.params["embed"], teacher_ids)
        steps = []
        for i in range(len(teacher_ids)):
            steps.append(self.step(ad.narrow(emb, 0, i, 1)))
        return steps, target_ids

    def run_greedy(self, vocab: Vocab, max_len: int) -> tuple[list[DecodeStep], list[str]]:
        """Greedy decode until EOS or max_len; returns steps and emitted tokens (EOS excluded)."""
        prev_id = BOS_ID
        steps: list[DecodeStep] = []
        tokens: list[str] = []
        for _ in range(max_len):
            emb = ad.gather_rows(self.params["embed"], [prev_id])
            step = self.step(emb)
            steps.append(step)
            choice = int(np.argmax(step.probs.data[0]))
            if choice == EOS_ID:
                break
            tokens.append(self.ext.token(choice))
            prev_id = choice if choice < len(vocab) else UNK_ID
        return steps, tokens


def sequence_nll(steps: list[DecodeStep], target_ids: list[int]) -> Tensor:
    """Mean per-token negative log-likelihood of the mixture distributions."""
    if len(steps) != len(target_ids):
        raise ValueError(f"{len(steps)} steps vs {len(target_ids)} targets")
    return ad.mean_nll([s.probs for s in steps], target_ids, LOG_EPS)


@dataclass
class ForwardResult:
    total: Tensor
    loss_action: Tensor
    loss_paraphrase: Tensor
    loss_belief: Tensor
    loss_response: Tensor
    steps: dict[str, list[DecodeStep]]
    targets: dict[str, list[int]]
    ext: CopyExtension

    def components(self) -> dict[str, float]:
        return {
            "total": self.total.item(),
            "a": self.loss_action.item(),
            "p": self.loss_paraphrase.item(),
            "b": self.loss_belief.item(),
            "r": self.loss_response.item(),
        }


def _run_chain(
    params: ModelParams, vocab: Vocab, context, prev_belief, user_input, run, db_bucket, last: str = "response"
):
    """Encode one turn and run the decoders in chain order, up to and including `last`.

    The belief decoder reads the input extended by the previous belief; the
    others read context and user input only, and each decoder after the first
    attends over the hiddens of the one before.  `run(decoder)` returns the
    decoder's (steps, output); `db_bucket(outputs so far)` gives the response
    decoder's database bucket.  Returns the copy extension, and the steps and
    outputs keyed by decoder name.
    """
    enc1_tokens = list(context) + [SEP] + list(user_input)
    enc2_tokens = enc1_tokens + [SEP] + list(prev_belief)
    ext = CopyExtension(vocab, enc2_tokens)
    enc1 = encode(params, [vocab.id(t) for t in enc1_tokens], enc1_tokens)
    steps: dict[str, list[DecodeStep]] = {}
    outputs: dict = {}
    cross_keys = None
    for name in DECODERS:
        if name == "belief":
            encoding = encode(params, [vocab.id(t) for t in enc2_tokens], enc2_tokens)
        else:
            encoding = enc1
        bucket = db_bucket(outputs) if name == "response" else None
        dec = Decoder(params, name, encoding, ext, cross_keys=cross_keys, db_bucket=bucket)
        steps[name], outputs[name] = run(dec)
        if name == last:
            break
        cross_keys = ad.concat([s.hidden for s in steps[name]], axis=0)
    return ext, steps, outputs


def forward_instance(params: ModelParams, vocab: Vocab, inst, losses: frozenset[str] | None = None) -> ForwardResult:
    """Teacher-forced forward pass of all four decoders for one training instance.

    Every decoder always runs (downstream attention needs its hiddens); `losses`
    masks which components contribute to the total.  A turn without a
    paraphrase target teacher-forces the paraphrase decoder on the user input
    and contributes zero paraphrase loss.
    """
    active = losses if losses is not None else inst.losses
    para_target = inst.paraphrase_target if inst.paraphrase_target is not None else inst.user_input
    gold = {
        "action": inst.act_target, "para": para_target,
        "belief": inst.belief_target, "response": inst.response_target,
    }
    ext, steps, targets = _run_chain(
        params, vocab, inst.context, inst.prev_belief, inst.user_input,
        run=lambda dec: dec.run_teacher(vocab, list(gold[dec.name])),
        db_bucket=lambda _outputs: inst.db_bucket,
    )

    zero = ad.const(np.zeros((1, 1)))
    loss_a = sequence_nll(steps["action"], targets["action"]) if "a" in active else zero
    loss_p = (
        sequence_nll(steps["para"], targets["para"])
        if ("p" in active and inst.paraphrase_target is not None)
        else zero
    )
    loss_b = sequence_nll(steps["belief"], targets["belief"]) if "b" in active else zero
    loss_r = sequence_nll(steps["response"], targets["response"]) if "r" in active else zero
    total = ad.add(ad.add(loss_a, loss_p), ad.add(loss_b, loss_r))
    if not np.isfinite(total.data).all():
        raise TrainingError(
            f"non-finite loss on dialog {inst.dialog_id!r} turn {inst.turn}: "
            f"a={loss_a.item()} p={loss_p.item()} b={loss_b.item()} r={loss_r.item()}"
        )
    return ForwardResult(
        total=total,
        loss_action=loss_a,
        loss_paraphrase=loss_p,
        loss_belief=loss_b,
        loss_response=loss_r,
        steps=steps,
        targets=targets,
        ext=ext,
    )


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

    def db_bucket(outputs) -> int:
        nonlocal bucket
        if db_bucket_fn is not None:
            bucket = int(db_bucket_fn(outputs["belief"]))
        return bucket

    _, _, out = _run_chain(params, vocab, context, prev_belief, user_input, _greedy(params, vocab), db_bucket)
    return TurnOutput(
        action=out["action"], paraphrase=out["para"], belief=out["belief"], response=out["response"],
        db_bucket=bucket,
    )


def generate_paraphrase(
    params: ModelParams, vocab: Vocab, context: list[str], prev_belief: list[str], user_input: list[str]
) -> list[str]:
    """The paraphrase `generate_turn` would emit, decoding only the action and paraphrase heads."""
    _, _, out = _run_chain(
        params, vocab, context, prev_belief, user_input, _greedy(params, vocab), db_bucket=None, last="para"
    )
    return out["para"]
