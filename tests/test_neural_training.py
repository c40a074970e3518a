import numpy as np
import pytest

from dialaug.neural.model import ModelParams, TrainingError
from dialaug.neural.training import (
    Adam,
    PlateauSchedule,
    clip_by_norm,
    clip_gradient,
    mean_loss,
    train,
)


class TestAdam:
    def test_first_steps_move_by_lr_sign(self, tiny_setup):
        # With a constant gradient g, bias correction makes m_hat = g and
        # v_hat = g^2 at every step, so each update is lr * g/(|g| + eps),
        # i.e. lr * sign(g) up to the epsilon.
        _, _, _, cfg = tiny_setup
        params = ModelParams(cfg)
        n = params.n_params
        rng = np.random.Generator(np.random.PCG64(0))
        grad = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
        adam = Adam(n, eps=1e-8)
        lr = 0.01
        for step in range(1, 4):
            before = params.flat()
            adam.step(params, grad, lr)
            delta = params.flat() - before
            np.testing.assert_allclose(delta, -lr * np.sign(grad), atol=1e-6)
            assert adam.t == step

    def test_hand_computed_two_steps(self, tiny_setup):
        # Full hand computation with two different gradients on one coordinate.
        _, _, _, cfg = tiny_setup
        params = ModelParams(cfg)
        n = params.n_params
        g1 = np.zeros(n); g1[0] = 0.3
        g2 = np.zeros(n); g2[0] = -0.1
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        x0 = params.flat()[0]

        adam = Adam(n, beta1=b1, beta2=b2, eps=eps)
        adam.step(params, g1, lr)
        m = (1 - b1) * 0.3
        v = (1 - b2) * 0.09
        x1 = x0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
        assert abs(params.flat()[0] - x1) < 1e-12

        adam.step(params, g2, lr)
        m = b1 * m + (1 - b1) * (-0.1)
        v = b2 * v + (1 - b2) * 0.01
        x2 = x1 - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)
        assert abs(params.flat()[0] - x2) < 1e-12
        # untouched coordinates never move
        assert params.flat()[1] == ModelParams(cfg).flat()[1]

    def test_state_round_trip(self):
        adam = Adam(4)
        adam.m[:] = [1, 2, 3, 4]
        adam.v[:] = [5, 6, 7, 8]
        adam.t = 9
        other = Adam(4)
        other.load_state(adam.state())
        assert other.t == 9
        np.testing.assert_array_equal(other.m, adam.m)
        np.testing.assert_array_equal(other.v, adam.v)


class TestClipGradient:
    def test_below_threshold_unchanged(self):
        g = np.array([3.0, 4.0])  # norm 5
        np.testing.assert_array_equal(clip_gradient(g, 6.0), g)

    def test_above_threshold_scaled_to_norm(self):
        g = np.array([3.0, 4.0])
        out = clip_gradient(g, 2.5)
        assert abs(np.linalg.norm(out) - 2.5) < 1e-12
        np.testing.assert_allclose(out, g * 0.5)

    def test_zero_max_norm_disables(self):
        g = np.array([10.0, 10.0])
        np.testing.assert_array_equal(clip_gradient(g, 0.0), g)

    def test_reports_norm_and_whether_it_clipped(self):
        g = np.array([3.0, 4.0])
        assert clip_by_norm(g, 2.5)[1:] == (5.0, True)
        assert clip_by_norm(g, 5.0)[1:] == (5.0, False)


class TestPlateauSchedule:
    def test_halve_at_three_then_stop_at_five(self):
        sched = PlateauSchedule(0.4, halve_patience=3, stop_patience=5)
        ev = sched.update(1.0)
        assert ev.improved and not ev.halved and not ev.stop and ev.lr == 0.4
        ev = sched.update(0.9)
        assert ev.improved
        # five straight non-improving epochs: halve on the 3rd, stop on the 5th
        ev = sched.update(0.95)
        assert (ev.improved, ev.halved, ev.stop, ev.lr) == (False, False, False, 0.4)
        ev = sched.update(0.95)
        assert (ev.improved, ev.halved, ev.stop, ev.lr) == (False, False, False, 0.4)
        ev = sched.update(0.95)
        assert (ev.improved, ev.halved, ev.stop, ev.lr) == (False, True, False, 0.2)
        ev = sched.update(0.95)
        assert (ev.improved, ev.halved, ev.stop, ev.lr) == (False, False, False, 0.2)
        ev = sched.update(0.95)
        assert (ev.improved, ev.halved, ev.stop, ev.lr) == (False, False, True, 0.2)

    def test_improvement_resets_both_counters(self):
        sched = PlateauSchedule(0.4, halve_patience=3, stop_patience=5)
        sched.update(1.0)
        sched.update(1.1)
        sched.update(1.1)
        ev = sched.update(0.5)  # improvement
        assert ev.improved and ev.lr == 0.4
        # needs three fresh non-improving epochs before the next halving
        assert not sched.update(0.6).halved
        assert not sched.update(0.6).halved
        assert sched.update(0.6).halved

    def test_halving_counter_restarts_but_stop_counter_does_not(self):
        sched = PlateauSchedule(1.0, halve_patience=2, stop_patience=5)
        sched.update(1.0)
        assert not sched.update(2.0).halved
        assert sched.update(2.0).halved       # 2nd miss: lr 0.5, halve counter reset
        assert not sched.update(2.0).halved   # 3rd miss
        ev = sched.update(2.0)                # 4th miss: second halving, no stop yet
        assert ev.halved and not ev.stop and ev.lr == 0.25
        ev = sched.update(2.0)                # 5th miss: stop fires without a halving
        assert ev.stop and not ev.halved and ev.lr == 0.25

    def test_equal_loss_is_not_improvement(self):
        sched = PlateauSchedule(1.0, halve_patience=3, stop_patience=5)
        sched.update(0.7)
        assert not sched.update(0.7).improved

    def test_validation(self):
        with pytest.raises(ValueError):
            PlateauSchedule(0.1, halve_patience=0)
        with pytest.raises(ValueError):
            PlateauSchedule(0.1, stop_patience=0)

    def test_state_snapshot(self):
        sched = PlateauSchedule(0.8, halve_patience=3, stop_patience=5)
        sched.update(0.5)
        sched.update(0.6)
        s = sched.state()
        assert s == {"lr": 0.8, "best": 0.5, "halve_counter": 1, "stop_counter": 1}


class TestMeanLoss:
    def test_empty(self, tiny_setup):
        _, _, vocab, cfg = tiny_setup
        out = mean_loss(ModelParams(cfg), vocab, [])
        assert out == {"total": 0.0, "a": 0.0, "p": 0.0, "b": 0.0, "r": 0.0}

    def test_is_arithmetic_mean(self, tiny_setup):
        from dialaug.neural.model import forward_instance

        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        pair = instances[:2]
        got = mean_loss(params, vocab, pair)
        singles = [forward_instance(params, vocab, i).components() for i in pair]
        for k in got:
            assert abs(got[k] - (singles[0][k] + singles[1][k]) / 2) < 1e-12


def _small_run(tiny_setup, max_epochs=3, hook=None):
    from dataclasses import replace

    _, instances, vocab, cfg = tiny_setup
    cfg = replace(cfg, max_epochs=max_epochs, batch_size=4)
    train_split, dev_split = instances[:6], instances[6:9]

    def instance_fn(epoch, params, _vocab):
        if hook is not None:
            hook(epoch, params)
        return train_split

    return cfg, vocab, instance_fn, dev_split


class TestTrainLoop:
    def test_deterministic(self, tiny_setup):
        cfg, vocab, fn, dev = _small_run(tiny_setup)
        r1 = train(cfg, vocab, fn, dev)
        r2 = train(cfg, vocab, fn, dev)
        np.testing.assert_array_equal(r1.params.flat(), r2.params.flat())
        assert r1.dev_history == r2.dev_history
        assert r1.best_dev == r2.best_dev

    def test_returns_best_dev_params(self, tiny_setup):
        cfg, vocab, fn, dev = _small_run(tiny_setup, max_epochs=4)
        result = train(cfg, vocab, fn, dev)
        assert result.best_dev == min(result.dev_history)
        # re-evaluating the returned parameters reproduces the best dev loss
        again = mean_loss(result.params, vocab, dev)["total"]
        assert abs(again - result.best_dev) < 1e-12
        assert result.epochs_run == 4
        assert len(result.history) == 4
        for row in result.history:
            assert {"epoch", "train_loss", "dev_loss", "lr", "improved", "halved"} <= row.keys()

    def test_training_reduces_loss(self, tiny_setup):
        cfg, vocab, fn, dev = _small_run(tiny_setup, max_epochs=3)
        result = train(cfg, vocab, fn, dev)
        assert result.dev_history[-1] < result.dev_history[0]

    def test_abort_restores_best(self, tiny_setup):
        poison = {}

        def hook(epoch, params):
            if epoch == 3:
                params.tensors["embed"].data[0, 0] = np.nan
                poison["done"] = True

        cfg, vocab, fn, dev = _small_run(tiny_setup, max_epochs=5, hook=hook)
        result = train(cfg, vocab, fn, dev)
        assert poison.get("done")
        assert result.aborted
        assert result.epochs_run == 2  # the poisoned epoch records nothing
        assert np.isfinite(result.params.flat()).all()
        again = mean_loss(result.params, vocab, dev)["total"]
        assert abs(again - result.best_dev) < 1e-12


class TestGradientTelemetry:
    def _run(self, tiny_setup, clip_norm):
        from dataclasses import replace

        cfg, vocab, fn, dev = _small_run(tiny_setup, max_epochs=2)
        return train(replace(cfg, clip_norm=clip_norm), vocab, fn, dev)

    def test_clip_that_always_fires(self, tiny_setup):
        result = self._run(tiny_setup, 1e-6)
        for row in result.history:
            assert row["clipped_batches"] == 2  # six instances in batches of four
            assert row["grad_norm_max"] > 1e-6

    def test_clip_that_never_fires(self, tiny_setup):
        result = self._run(tiny_setup, 1e9)
        for row in result.history:
            assert row["clipped_batches"] == 0
            assert 0.0 < row["grad_norm_max"] < 1e9

    def test_first_epoch_norm_is_the_pre_clip_batch_norm(self, tiny_setup):
        from dataclasses import replace

        from dialaug.neural.model import forward_batch

        cfg, vocab, fn, dev = _small_run(tiny_setup, max_epochs=1)
        cfg = replace(cfg, batch_size=6, clip_norm=1e-6)
        batch = fn(1, None, vocab)
        params = ModelParams(cfg)
        forward_batch(params, vocab, batch).total.backward()
        want = float(np.linalg.norm(params.grad_flat() / len(batch)))
        row = train(cfg, vocab, fn, dev).history[0]
        assert row["clipped_batches"] == 1
        assert abs(row["grad_norm_max"] - want) <= 1e-12 * want

