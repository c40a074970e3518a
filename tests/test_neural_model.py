import numpy as np
import pytest

from dialaug.augment import TrainingInstance, instance_for_turn
from dialaug.neural import autodiff as ad
from dialaug.neural.model import (
    Decoder,
    ModelConfig,
    ModelParams,
    TrainingError,
    encode,
    forward_batch,
    forward_instance,
    generate_turn,
    sequence_nll,
)
from dialaug.neural.training import mean_loss
from dialaug.neural.vocab import (
    BOS_ID,
    EOS_ID,
    SEP,
    SPECIALS,
    UNK_ID,
    CopyExtension,
    Vocab,
)


class TestVocab:
    def test_build_order(self):
        v = Vocab.build([["b", "a", "b"], ["c", "b"]], reserved=["[food]"])
        assert v.id_to_token[:5] == list(SPECIALS)
        assert v.id_to_token[5] == "[food]"
        # then corpus tokens by descending frequency, ties alphabetical
        assert v.id_to_token[6:] == ["b", "a", "c"]

    def test_oov_maps_to_unk(self):
        v = Vocab.build([["a"]])
        assert v.id("zzz") == UNK_ID
        assert "zzz" not in v
        assert v.id("a") == v.token_to_id["a"]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocab(list(SPECIALS) + ["x", "x"])

    def test_specials_prefix_enforced(self):
        with pytest.raises(ValueError):
            Vocab(["a", "b", "c", "d", "e"])

    def test_reserved_never_duplicated(self):
        v = Vocab.build([["[food]", "hi"]], reserved=["[food]"])
        assert v.id_to_token.count("[food]") == 1


class TestCopyExtension:
    def test_extends_only_oov(self):
        v = Vocab.build([["known"]])
        ext = CopyExtension(v, ["known", "novel", "novel", "other"])
        assert ext.width == len(v) + 2
        assert ext.source_id("known") == v.id("known")
        assert ext.source_id("novel") == len(v)
        assert ext.source_id("other") == len(v) + 1

    def test_target_id_fallback(self):
        v = Vocab.build([["known"]])
        ext = CopyExtension(v, ["novel"])
        assert ext.target_id("known") == v.id("known")
        assert ext.target_id("novel") == len(v)
        assert ext.target_id("absent") == UNK_ID

    def test_token_inverse(self):
        v = Vocab.build([["known"]])
        ext = CopyExtension(v, ["novel"])
        assert ext.token(v.id("known")) == "known"
        assert ext.token(len(v)) == "novel"


class TestModelConfig:
    def test_round_trip(self):
        cfg = ModelConfig(embed_dim=8, hidden_dim=8, seed=3).with_vocab(40)
        assert ModelConfig.from_json(cfg.to_json()) == cfg
        assert cfg.vocab_size == 40

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            ModelConfig(lr_halve_patience=0)

    def test_max_decode(self):
        cfg = ModelConfig()
        assert cfg.max_decode("action") == cfg.max_decode_action
        assert cfg.max_decode("para") == cfg.max_decode_paraphrase
        assert cfg.max_decode("belief") == cfg.max_decode_belief
        assert cfg.max_decode("response") == cfg.max_decode_response


class TestModelParams:
    def test_flat_round_trip(self, tiny_setup):
        _, _, _, cfg = tiny_setup
        params = ModelParams(cfg)
        vec = params.flat()
        assert vec.size == params.n_params
        params.load_flat(vec * 2.0)
        np.testing.assert_array_equal(params.flat(), vec * 2.0)

    def test_load_flat_size_check(self, tiny_setup):
        _, _, _, cfg = tiny_setup
        params = ModelParams(cfg)
        with pytest.raises(ValueError):
            params.load_flat(np.zeros(3))

    def test_init_deterministic(self, tiny_setup):
        _, _, _, cfg = tiny_setup
        np.testing.assert_array_equal(ModelParams(cfg).flat(), ModelParams(cfg).flat())

    def test_requires_vocab_size(self):
        with pytest.raises(ValueError):
            ModelParams(ModelConfig(embed_dim=4, hidden_dim=4))

    def test_check_finite(self, tiny_setup):
        _, _, _, cfg = tiny_setup
        params = ModelParams(cfg)
        params.tensors["embed"].data[0, 0] = np.nan
        with pytest.raises(TrainingError):
            params.check_finite()

    def test_tensors_are_views_of_the_buffers(self, tiny_setup):
        _, _, _, cfg = tiny_setup
        params = ModelParams(cfg)
        params["embed"].data[2, 1] = 7.5
        assert params.flat()[2 * cfg.embed_dim + 1] == 7.5
        for name, _ in params.layout:
            assert np.shares_memory(params[name].data, params.data)
            assert np.shares_memory(params[name].grad, params.grad)

    def test_flat_does_not_alias(self, tiny_setup):
        _, _, _, cfg = tiny_setup
        params = ModelParams(cfg)
        vec = params.flat()
        vec[:] = 0.0
        assert params["embed"].data.any()
        params.load_flat(vec)
        vec[:] = 1.0
        assert not params.flat().any()

    def test_zero_grads(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        forward_instance(params, vocab, instances[0]).total.backward()
        assert params.grad_flat().any()
        params.zero_grads()
        assert not params.grad_flat().any()
        assert all(not params[name].grad.any() for name, _ in params.layout)

    def test_check_finite_names_the_parameter(self, tiny_setup):
        _, _, _, cfg = tiny_setup
        params = ModelParams(cfg)
        params["dec.response.gate.b"].data[0, 0] = np.inf
        with pytest.raises(TrainingError, match="dec.response.gate.b"):
            params.check_finite()


class TestEncoder:
    def test_shapes(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        toks = list(instances[0].user_input)
        enc = encode(params, [[vocab.id(t) for t in toks]], [toks])
        assert enc.hiddens.shape == (len(toks), 2 * cfg.hidden_dim)
        assert enc.final.shape == (1, 2 * cfg.hidden_dim)
        assert enc.tokens == [toks]

    def test_empty_rejected(self, tiny_setup):
        _, _, vocab, cfg = tiny_setup
        with pytest.raises(ValueError):
            encode(ModelParams(cfg), [[]], [[]])

    def test_truncation_warns(self, tiny_setup, caplog):
        _, _, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        n = cfg.max_encode_len + 5
        with caplog.at_level("WARNING"):
            enc = encode(params, [[UNK_ID] * n], [["x"] * n])
        assert enc.hiddens.shape[0] == cfg.max_encode_len
        assert any("truncated" in r.message for r in caplog.records)

    def test_truncation_keeps_the_last_tokens(self, tiny_setup):
        _, _, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        n = cfg.max_encode_len + 5
        ids = [5 + i % (len(vocab) - 5) for i in range(n)]
        toks = [vocab.token(i) for i in ids]
        long = encode(params, [ids], [toks])
        tail = encode(params, [ids[-cfg.max_encode_len :]], [toks[-cfg.max_encode_len :]])
        assert long.tokens == [toks[-cfg.max_encode_len :]]
        np.testing.assert_array_equal(long.hiddens.data, tail.hiddens.data)
        np.testing.assert_array_equal(long.final.data, tail.final.data)


class TestForward:
    def test_loss_additivity(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        for inst in instances[:4]:
            r = forward_instance(params, vocab, inst)
            parts = (
                r.loss_action.item() + r.loss_paraphrase.item()
                + r.loss_belief.item() + r.loss_response.item()
            )
            assert abs(r.total.item() - parts) < 1e-12

    def test_mixture_rows_normalized_each_step(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        r = forward_instance(params, vocab, instances[0])
        for name, steps in r.steps.items():
            for step in steps:
                s = float(step.probs.data.sum())
                assert abs(s - 1.0) < 1e-9, (name, s)
                assert (step.probs.data >= 0).all()
                assert 0.0 < step.gate.item() < 1.0

    def test_forward_deterministic(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        a = forward_instance(params, vocab, instances[1]).total.item()
        b = forward_instance(params, vocab, instances[1]).total.item()
        assert a == b

    def test_loss_masking(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        r = forward_instance(params, vocab, instances[0], losses=frozenset({"b"}))
        assert r.loss_action.item() == 0.0
        assert r.loss_paraphrase.item() == 0.0
        assert r.loss_response.item() == 0.0
        assert r.total.item() == r.loss_belief.item() > 0.0

    def test_absent_paraphrase_target_contributes_zero(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        inst = instances[0]
        assert inst.paraphrase_target is not None
        bare = TrainingInstance.from_json({**inst.to_json(), "paraphrase_target": None})
        r = forward_instance(params, vocab, bare)
        assert r.loss_paraphrase.item() == 0.0
        assert r.total.item() > 0.0

    def test_nonfinite_raises_training_error(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        params.tensors["embed"].data[:] = np.nan
        with pytest.raises(TrainingError):
            forward_instance(params, vocab, instances[0])

    def test_oov_token_reachable_through_copy(self, tiny_setup):
        corpus, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        inst = instances[0]
        oov = TrainingInstance.from_json(
            {**inst.to_json(), "user_input": list(inst.user_input) + ["zanzibar"]}
        )
        assert "zanzibar" not in vocab
        r = forward_instance(params, vocab, oov)
        ext = r.exts[0]
        assert ext.width == len(vocab) + 1
        ext_id = ext.source_id("zanzibar")
        step = r.steps["response"][0]
        assert step.probs.shape == (1, ext.width)
        # only the copy component can place mass on the extended id
        assert step.copy_probs.data[0, ext_id] > 0.0

    def test_sequence_nll_length_mismatch(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        r = forward_instance(params, vocab, instances[0])
        with pytest.raises(ValueError):
            sequence_nll(r.steps["action"], [r.targets["action"][0][:-1]])


class TestDecoderWiring:
    def _enc(self, params, vocab, tokens):
        return encode(params, [[vocab.id(t) for t in tokens]], [tokens])

    def test_action_rejects_cross_keys(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        enc = self._enc(params, vocab, list(instances[0].user_input))
        ext = CopyExtension(vocab, enc.tokens[0])
        with pytest.raises(ValueError):
            Decoder(params, "action", enc, [ext], cross_keys=enc.hiddens, cross_lengths=enc.lengths)

    def test_others_require_cross_keys(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        enc = self._enc(params, vocab, list(instances[0].user_input))
        ext = CopyExtension(vocab, enc.tokens[0])
        with pytest.raises(ValueError):
            Decoder(params, "belief", enc, [ext])

    def test_db_bucket_only_for_response(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        enc = self._enc(params, vocab, list(instances[0].user_input))
        ext = CopyExtension(vocab, enc.tokens[0])
        with pytest.raises(ValueError):
            Decoder(params, "para", enc, [ext], cross_keys=enc.hiddens, cross_lengths=enc.lengths, db_buckets=[1])

    def test_teacher_steps_cover_targets_plus_eos(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        r = forward_instance(params, vocab, instances[0])
        inst = instances[0]
        assert len(r.steps["belief"]) == len(inst.belief_target) + 1
        assert r.targets["belief"][0][-1] == EOS_ID
        assert len(r.steps["action"]) == len(inst.act_target) + 1


class TestGenerateTurn:
    def test_full_rollout(self, tiny_setup):
        corpus, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        inst = instances[0]
        seen = {}

        def bucket_fn(belief_tokens):
            seen["belief"] = list(belief_tokens)
            return 2

        out = generate_turn(
            params, vocab,
            context=list(inst.context),
            prev_belief=list(inst.prev_belief),
            user_input=list(inst.user_input),
            db_bucket_fn=bucket_fn,
        )
        assert out.db_bucket == 2
        assert seen["belief"] == out.belief
        for field in (out.action, out.paraphrase, out.belief, out.response):
            assert isinstance(field, list)
            assert all(isinstance(t, str) for t in field)
        assert len(out.response) <= cfg.max_decode_response

    def test_default_bucket_zero(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        inst = instances[0]
        out = generate_turn(params, vocab, [], [], list(inst.user_input))
        assert out.db_bucket == 0

    def test_greedy_deterministic(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        inst = instances[0]
        a = generate_turn(params, vocab, list(inst.context), [], list(inst.user_input))
        b = generate_turn(params, vocab, list(inst.context), [], list(inst.user_input))
        assert (a.action, a.paraphrase, a.belief, a.response) == (
            b.action, b.paraphrase, b.belief, b.response
        )


class TestFullGradient:
    def test_joint_gradient_matches_finite_differences(self, tiny_setup):
        """Spot-check the end-to-end backward pass on random coordinates."""
        _, instances, vocab, cfg = tiny_setup
        params = ModelParams(cfg)
        inst = instances[0]

        res = forward_instance(params, vocab, inst)
        res.total.backward()
        analytic = params.grad_flat()
        base = params.flat()

        step = 1e-4
        rng = np.random.Generator(np.random.PCG64(11))
        coords = rng.choice(base.size, size=60, replace=False)
        worst = 0.0
        for c in coords:
            for sign, store in ((+1, "hi"), (-1, "lo")):
                vec = base.copy()
                vec[c] += sign * step
                params.load_flat(vec)
                val = forward_instance(params, vocab, inst).total.item()
                if sign > 0:
                    hi = val
                else:
                    lo = val
            fd = (hi - lo) / (2.0 * step)
            g = analytic[c]
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
            worst = max(worst, rel)
        params.load_flat(base)
        assert worst < 1e-4, f"worst relative error {worst:.3e}"


def _mixed_batch(instances):
    """Rows that differ in encoder and decoder lengths, copy-extension width,
    DB bucket, paraphrase target and supervised losses."""
    first = next(i for i in instances if i.turn == 1)
    later = [i for i in instances if i.turn > 1]

    def variant(inst, **fields):
        return TrainingInstance.from_json({**inst.to_json(), **fields})

    return [
        variant(first, user_input=list(first.user_input) + ["zanzibar", "quixotic"], db_bucket=2),
        variant(later[0], paraphrase_target=None, db_bucket=0),
        variant(later[1], losses=["a", "b"], db_bucket=1),
        variant(later[2], user_input=list(later[2].user_input) + ["zanzibar"], losses=["p", "r"]),
    ]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * abs(want)


class TestBatch:
    def test_batch_matches_instances(self, tiny_setup):
        _, instances, vocab, cfg = tiny_setup
        batch = _mixed_batch(instances)
        assert len({len(i.context) for i in batch}) > 1
        assert len({len(i.response_target) for i in batch}) > 1
        assert len({i.db_bucket for i in batch}) == 3
        params = ModelParams(cfg)

        res = forward_batch(params, vocab, batch)
        res.total.backward()
        batch_grad = params.grad_flat()
        assert len({ext.width for ext in res.exts}) == 3

        summed = np.zeros_like(batch_grad)
        for inst, row in zip(batch, res.row_components()):
            params.zero_grads()
            single = forward_instance(params, vocab, inst)
            single.total.backward()
            summed += params.grad_flat()
            for k, want in single.components().items():
                assert _close(row[k], want), (inst.dialog_id, k, row[k], want)
        assert res.row_components()[1]["p"] == 0.0
        assert res.row_components()[2]["r"] == 0.0
        assert np.abs(batch_grad - summed).max() <= 1e-9 * np.abs(summed).max()

    def test_batched_mean_loss_matches_instances(self, tiny_setup):
        from dataclasses import replace

        _, instances, vocab, cfg = tiny_setup
        batch = _mixed_batch(instances) + list(instances[:3])
        params = ModelParams(replace(cfg, batch_size=3))
        got = mean_loss(params, vocab, batch)
        singles = [forward_instance(params, vocab, inst).components() for inst in batch]
        for k, val in got.items():
            assert _close(val, sum(c[k] for c in singles) / len(batch)), k

