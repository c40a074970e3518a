"""Deterministic training loop: Adam, plateau-driven LR halving, early stopping."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# The benchmark's tracer (bench/spans.py) looks `forward_instance` up on this
# module; training itself runs `forward_batch`.
from .model import ModelConfig, ModelParams, TrainingError, forward_batch, forward_instance  # noqa: F401
from .vocab import Vocab

log = logging.getLogger(__name__)


class Adam:
    """Adam with bias correction; moments live in flat-vector order and the
    update is applied in place to the parameter buffer."""

    def __init__(self, n_params: int, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)

    def step(self, params: ModelParams, grad: np.ndarray, lr: float) -> None:
        # The float operations of p -= lr * m_hat / (sqrt(v_hat) + eps), each
        # written into a buffer instead of a fresh array.
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        denom = self.v / (1.0 - self.beta2 ** self.t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update = self.m / (1.0 - self.beta1 ** self.t)
        update *= lr
        update /= denom
        params.data -= update

    def state(self) -> dict:
        return {"t": self.t, "m": self.m.copy(), "v": self.v.copy()}

    def load_state(self, state: dict) -> None:
        self.t = int(state["t"])
        self.m = np.asarray(state["m"], dtype=np.float64).copy()
        self.v = np.asarray(state["v"], dtype=np.float64).copy()


@dataclass
class ScheduleEvent:
    improved: bool
    halved: bool
    stop: bool
    lr: float


class PlateauSchedule:
    """Halve the LR after `halve_patience` consecutive non-improving epochs and
    stop after `stop_patience`; the halving counter restarts after each halving,
    the stop counter only on improvement."""

    def __init__(self, initial_lr: float, halve_patience: int = 3, stop_patience: int = 5):
        if halve_patience <= 0 or stop_patience <= 0:
            raise ValueError("patience values must be positive")
        self.lr = initial_lr
        self.halve_patience = halve_patience
        self.stop_patience = stop_patience
        self.best = float("inf")
        self.halve_counter = 0
        self.stop_counter = 0

    def update(self, dev_loss: float) -> ScheduleEvent:
        if dev_loss < self.best:
            self.best = dev_loss
            self.halve_counter = 0
            self.stop_counter = 0
            return ScheduleEvent(improved=True, halved=False, stop=False, lr=self.lr)
        self.halve_counter += 1
        self.stop_counter += 1
        halved = False
        if self.halve_counter >= self.halve_patience:
            self.lr *= 0.5
            self.halve_counter = 0
            halved = True
        stop = self.stop_counter >= self.stop_patience
        return ScheduleEvent(improved=False, halved=halved, stop=stop, lr=self.lr)

    def state(self) -> dict:
        return {
            "lr": self.lr,
            "best": self.best,
            "halve_counter": self.halve_counter,
            "stop_counter": self.stop_counter,
        }


def clip_by_norm(grad: np.ndarray, max_norm: float) -> tuple[np.ndarray, float, bool]:
    """(grad scaled down to norm `max_norm` if longer, its norm before, whether it was scaled).

    A `max_norm` of 0 or less disables clipping.
    """
    norm = float(np.linalg.norm(grad))
    if max_norm > 0 and norm > max_norm:
        return grad * (max_norm / norm), norm, True
    return grad, norm, False


def mean_loss(params: ModelParams, vocab: Vocab, instances: Sequence) -> dict[str, float]:
    """Forward-only mean loss components over an instance list, in batches of the config's batch size."""
    sums = {"total": 0.0, "a": 0.0, "p": 0.0, "b": 0.0, "r": 0.0}
    if not instances:
        return sums
    size = params.cfg.batch_size
    for start in range(0, len(instances), size):
        for row in forward_batch(params, vocab, instances[start : start + size]).row_components():
            for k, val in row.items():
                sums[k] += val
    return {k: v / len(instances) for k, v in sums.items()}


# instance_fn(epoch, params, vocab) -> the epoch's training stream; the params
# argument lets a caller generate paraphrases with the model being trained.
InstanceFn = Callable[[int, ModelParams, Vocab], Sequence]


@dataclass
class TrainResult:
    params: ModelParams
    vocab: Vocab
    cfg: ModelConfig
    best_dev: float
    dev_history: list[float] = field(default_factory=list)
    epochs_run: int = 0
    final_lr: float = 0.0
    aborted: bool = False
    adam_state: dict | None = None
    history: list[dict] = field(default_factory=list)


def train(
    cfg: ModelConfig,
    vocab: Vocab,
    instance_fn: InstanceFn,
    dev_instances: Sequence,
    params: ModelParams | None = None,
) -> TrainResult:
    """Run the full training loop; returns the best-dev-loss parameters.

    Deterministic given cfg.seed: parameter init, per-epoch stream order and
    optimizer arithmetic all derive from it.
    """
    if params is None:
        params = ModelParams(cfg)
    adam = Adam(params.n_params, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
    sched = PlateauSchedule(cfg.learning_rate, cfg.lr_halve_patience, cfg.early_stop_patience)

    best_flat = params.flat()
    best_adam = adam.state()
    best_dev = float("inf")
    result = TrainResult(params=params, vocab=vocab, cfg=cfg, best_dev=best_dev)

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.monotonic()
        stream = list(instance_fn(epoch, params, vocab))
        train_loss_sum = 0.0
        n_seen = 0
        grad_norm_max = 0.0
        clipped_batches = 0
        try:
            for start in range(0, len(stream), cfg.batch_size):
                batch = stream[start : start + cfg.batch_size]
                params.zero_grads()
                res = forward_batch(params, vocab, batch)
                res.total.backward()
                train_loss_sum += res.total.item()
                n_seen += len(batch)
                grad, norm, clipped = clip_by_norm(params.grad / len(batch), cfg.clip_norm)
                grad_norm_max = max(grad_norm_max, norm)
                clipped_batches += clipped
                adam.step(params, grad, sched.lr)
            params.check_finite()
            dev = mean_loss(params, vocab, dev_instances)
        except TrainingError as e:
            log.error("epoch %d aborted: %s; restoring best checkpoint", epoch, e)
            params.load_flat(best_flat)
            adam.load_state(best_adam)
            result.aborted = True
            break

        event = sched.update(dev["total"])
        result.dev_history.append(dev["total"])
        result.epochs_run = epoch
        result.history.append(
            {
                "epoch": epoch,
                "train_loss": train_loss_sum / max(n_seen, 1),
                "dev_loss": dev["total"],
                "dev_components": dev,
                "lr": event.lr,
                "improved": event.improved,
                "halved": event.halved,
                "grad_norm_max": grad_norm_max,
                "clipped_batches": clipped_batches,
                "seconds": round(time.monotonic() - t0, 3),
            }
        )
        log.info(
            "epoch %d: train %.4f dev %.4f lr %.5f%s",
            epoch, train_loss_sum / max(n_seen, 1), dev["total"], event.lr,
            " (improved)" if event.improved else "",
        )
        if event.improved:
            best_flat = params.flat()
            best_adam = adam.state()
            best_dev = dev["total"]
        if event.stop:
            log.info("early stop after epoch %d", epoch)
            break

    params.load_flat(best_flat)
    adam.load_state(best_adam)
    result.best_dev = best_dev
    result.final_lr = sched.lr
    result.adam_state = adam.state()
    return result
