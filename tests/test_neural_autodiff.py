import numpy as np
import pytest

from dialaug.neural import autodiff as ad


def numeric_grad(build, x, eps=1e-6):
    """Central finite differences of the scalar `build(x)` w.r.t. array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = build(x)
        x[idx] = orig - eps
        fm = build(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * eps)
    return g


def check_op(make_scalar, *shapes, seed=0):
    """Compare analytic and numeric gradients of a scalar-valued graph.

    `make_scalar(*tensors)` builds the graph; gradients of every input are
    checked against central finite differences at 1e-7 absolute / relative.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    arrays = [rng.uniform(-0.9, 0.9, size=s) for s in shapes]
    tensors = [ad.param(a.copy()) for a in arrays]
    out = make_scalar(*tensors)
    assert out.data.size == 1
    out.backward()
    for i, a in enumerate(arrays):
        def scalar_at(x, i=i):
            ts = [ad.param(arr.copy()) for arr in arrays]
            ts[i] = ad.param(x.copy())
            return make_scalar(*ts).item()

        num = numeric_grad(scalar_at, a.copy())
        ana = tensors[i].grad
        assert ana is not None
        np.testing.assert_allclose(ana, num, rtol=1e-6, atol=1e-7)


class TestOpGradients:
    def test_add_broadcast_rows(self):
        check_op(lambda a, b: ad.tsum(ad.add(a, b)), (3, 4), (1, 4))

    def test_add_broadcast_cols(self):
        check_op(lambda a, b: ad.tsum(ad.mul(ad.add(a, b), a)), (3, 4), (3, 1))

    def test_sub(self):
        check_op(lambda a, b: ad.tsum(ad.mul(ad.sub(a, b), ad.sub(a, b))), (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_op(lambda a, b: ad.tsum(ad.mul(a, b)), (3, 4), (1, 4))

    def test_matmul(self):
        check_op(lambda a, b: ad.tsum(ad.matmul(a, b)), (2, 3), (3, 4))

    def test_matmul_chain(self):
        check_op(
            lambda a, b, c: ad.tsum(ad.matmul(ad.matmul(a, b), c)),
            (2, 3), (3, 3), (3, 2),
        )

    def test_tanh(self):
        check_op(lambda a: ad.tsum(ad.tanh(a)), (3, 3))

    def test_sigmoid(self):
        check_op(lambda a: ad.tsum(ad.sigmoid(a)), (3, 3))

    def test_log(self):
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.uniform(0.2, 2.0, size=(2, 3))
        t = ad.param(x.copy())
        ad.tsum(ad.log(t)).backward()
        num = numeric_grad(lambda v: ad.tsum(ad.log(ad.param(v.copy()))).item(), x.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-6, atol=1e-8)

    def test_softmax_axis1(self):
        check_op(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=1), a)), (2, 5))

    def test_softmax_axis0(self):
        check_op(lambda a: ad.tsum(ad.mul(ad.softmax(a, axis=0), a)), (5, 1))

    def test_concat_axis0(self):
        check_op(
            lambda a, b: ad.tsum(ad.mul(ad.concat([a, b], axis=0), ad.concat([a, b], axis=0))),
            (2, 3), (4, 3),
        )

    def test_concat_axis1(self):
        check_op(
            lambda a, b, c: ad.tsum(ad.tanh(ad.concat([a, b, c], axis=1))),
            (2, 2), (2, 3), (2, 1),
        )

    def test_narrow(self):
        check_op(lambda a: ad.tsum(ad.mul(ad.narrow(a, 1, 1, 2), ad.narrow(a, 1, 0, 2))), (3, 4))

    def test_transpose(self):
        check_op(lambda a, b: ad.tsum(ad.matmul(ad.transpose(a), b)), (3, 2), (3, 4))

    def test_gather_rows_with_duplicates(self):
        # row 1 appears twice: its gradient must be the scatter-added sum of both uses
        check_op(lambda a: ad.tsum(ad.tanh(ad.gather_rows(a, [1, 0, 1, 2]))), (4, 3))

    def test_pick(self):
        check_op(lambda a: ad.pick(a, 1, 2), (3, 4))

    def test_scatter_cols_with_duplicates(self):
        check_op(lambda w: ad.tsum(ad.mul(ad.scatter_cols(w, [0, 2, 2, 4], 6),
                                          ad.scatter_cols(w, [0, 2, 2, 4], 6))), (1, 4))

    def test_scale(self):
        check_op(lambda a: ad.scale(ad.tsum(a), -0.25), (2, 3))

    def test_reused_tensor_accumulates(self):
        x = ad.param(np.array([[2.0, 3.0]]))
        y = ad.tsum(ad.add(x, x))
        y.backward()
        np.testing.assert_allclose(x.grad, [[2.0, 2.0]])


class TestTensorMechanics:
    def test_backward_requires_scalar(self):
        t = ad.param(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.tanh(t).backward()

    def test_const_gets_no_grad(self):
        c = ad.const(np.ones((2, 2)))
        p = ad.param(np.ones((2, 2)))
        out = ad.tsum(ad.mul(c, p))
        out.backward()
        assert c.grad is None
        assert p.grad is not None

    def test_requires_grad_propagates(self):
        a = ad.param(np.ones((1, 2)))
        b = ad.const(np.ones((1, 2)))
        assert ad.add(a, b).requires_grad
        assert not ad.add(b, b).requires_grad

    def test_item_and_shape(self):
        t = ad.const(np.array([[7.0]]))
        assert t.item() == 7.0
        assert t.shape == (1, 1)

    def test_scatter_cols_shape_validation(self):
        with pytest.raises(ValueError):
            ad.scatter_cols(ad.const(np.ones((2, 3))), [0, 1, 2], 5)

    def test_softmax_rows_normalized(self):
        rng = np.random.Generator(np.random.PCG64(2))
        x = ad.const(rng.normal(size=(4, 7)) * 10)
        y = ad.softmax(x, axis=1)
        np.testing.assert_allclose(y.data.sum(axis=1), np.ones(4), atol=1e-12)
        assert (y.data > 0).all()

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = ad.softmax(ad.const(x), axis=1).data
        b = ad.softmax(ad.const(x + 500.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_scatter_cols_sums_duplicates(self):
        w = ad.const(np.array([[0.25, 0.25, 0.5]]))
        out = ad.scatter_cols(w, [1, 1, 3], 5)
        np.testing.assert_allclose(out.data, [[0.0, 0.5, 0.0, 0.5, 0.0]])


# ---- fused ops ----------------------------------------------------------------
#
# Each fused op is checked twice: against central finite differences, and
# against the same computation composed from the elementwise primitives (the
# network's wiring before the ops were fused), value and every input gradient.

H = 3  # hidden size of the GRU cases; gate projections are (·, 3H)
SRC_IDS = [0, 6, 2, 6]  # copy source columns: a duplicate and two extended ids
WIDTH = 7  # 5-token vocabulary plus 2 extended columns


def ref_gru_cell(x, h, wx, uh, b):
    nx = ad.add(ad.matmul(x, wx), b)
    nh = ad.matmul(h, uh)
    z = ad.sigmoid(ad.add(ad.narrow(nx, 1, 0, H), ad.narrow(nh, 1, 0, H)))
    r = ad.sigmoid(ad.add(ad.narrow(nx, 1, H, H), ad.narrow(nh, 1, H, H)))
    c = ad.tanh(ad.add(ad.narrow(nx, 1, 2 * H, H), ad.mul(r, ad.narrow(nh, 1, 2 * H, H))))
    return ad.add(ad.mul(z, h), ad.mul(ad.sub(ad.const(np.ones((1, H))), z), c))


def ref_gru_sequence(x, wx, uh, b, reverse=False):
    n = x.data.shape[0]
    states = [None] * n
    h = ad.const(np.zeros((1, H)))
    for t in (reversed(range(n)) if reverse else range(n)):
        h = ref_gru_cell(ad.narrow(x, 0, t, 1), h, wx, uh, b)
        states[t] = h
    return ad.concat(states, axis=0)


def ref_attention_weights(query, wq, proj_k, v):
    scores = ad.matmul(ad.tanh(ad.add(ad.matmul(query, wq), proj_k)), v)
    return ad.transpose(ad.softmax(scores, axis=0))


def ref_pointer_mixture(feat, w_out, b_out, w_gate, b_gate, weights):
    p_vocab = ad.softmax(ad.add(ad.matmul(feat, w_out), b_out), axis=1)
    p_vocab = ad.concat([p_vocab, ad.const(np.zeros((1, WIDTH - p_vocab.shape[1])))], axis=1)
    gate = ad.sigmoid(ad.add(ad.matmul(feat, w_gate), b_gate))
    p_copy = ad.scatter_cols(weights, SRC_IDS, WIDTH)
    return ad.add(ad.mul(gate, p_vocab), ad.mul(ad.sub(ad.const(np.ones((1, 1))), gate), p_copy))


def ref_mean_nll(rows, ids, eps):
    total = None
    for row, i in zip(rows, ids):
        nll = ad.scale(ad.log(ad.add(ad.pick(row, 0, i), ad.const(np.full((1, 1), eps)))), -1.0)
        total = nll if total is None else ad.add(total, nll)
    return ad.scale(total, 1.0 / len(ids))


def mixture(*ts):
    return ad.pointer_mixture(*ts, SRC_IDS, WIDTH)[0]


NLL_IDS = [1, 4, 0, 4]


def nll_of_softmax(op):
    """Mean NLL of four softmax rows of a (4, 5) input, picking NLL_IDS."""
    return lambda a: op([ad.softmax(ad.narrow(a, 0, i, 1), axis=1) for i in range(4)], NLL_IDS, 1e-12)


def weighted_sum(t: ad.Tensor) -> ad.Tensor:
    """A scalar that weighs every output entry differently, so no gradient cancels."""
    w = np.random.Generator(np.random.PCG64(99)).uniform(-1.0, 1.0, size=t.shape)
    return ad.tsum(ad.mul(t, ad.const(w)))


GRU_CELL = ((1, 4), (1, H), (4, 3 * H), (H, 3 * H), (1, 3 * H))
GRU_SEQ = ((5, 4), (4, 3 * H), (H, 3 * H), (1, 3 * H))
ATTENTION = ((1, 2), (2, 3), (4, 3), (3, 1))
MIXTURE = ((1, 4), (4, 5), (1, 5), (4, 1), (1, 1), (1, len(SRC_IDS)))

# name -> (fused, reference, input shapes)
FUSED = {
    "gru_cell": (ad.gru_cell, ref_gru_cell, GRU_CELL),
    "gru_sequence": (ad.gru_sequence, ref_gru_sequence, GRU_SEQ),
    "gru_sequence_reverse": (
        lambda *ts: ad.gru_sequence(*ts, reverse=True), lambda *ts: ref_gru_sequence(*ts, reverse=True), GRU_SEQ,
    ),
    "attention_weights": (ad.attention_weights, ref_attention_weights, ATTENTION),
    "pointer_mixture": (mixture, ref_pointer_mixture, MIXTURE),
    "mean_nll": (nll_of_softmax(ad.mean_nll), nll_of_softmax(ref_mean_nll), ((4, 5),)),
}


class TestFusedOps:
    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_finite_differences(self, name):
        fused, _, shapes = FUSED[name]
        check_op(lambda *ts: weighted_sum(fused(*ts)), *shapes)

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_matches_composed_primitives(self, name):
        fused, reference, shapes = FUSED[name]
        rng = np.random.Generator(np.random.PCG64(4))
        arrays = [rng.uniform(-0.9, 0.9, size=s) for s in shapes]
        runs = []
        for build in (fused, reference):
            tensors = [ad.param(a.copy()) for a in arrays]
            out = build(*tensors)
            weighted_sum(out).backward()
            runs.append((out.data, [t.grad for t in tensors]))
        (value, grads), (ref_value, ref_grads) = runs
        assert value.shape == ref_value.shape
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-12)
        for g, ref_g in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref_g, rtol=0, atol=1e-12)

    def test_fused_op_is_one_tape_node(self):
        tensors = [ad.param(np.full(s, 0.1)) for s in GRU_SEQ]
        out = ad.gru_sequence(*tensors)
        assert out.parents == tuple(tensors)

    def test_mixture_side_outputs(self):
        rng = np.random.Generator(np.random.PCG64(5))
        tensors = [ad.param(rng.uniform(-0.9, 0.9, size=s)) for s in MIXTURE]
        probs, gate, copy = ad.pointer_mixture(*tensors, SRC_IDS, WIDTH)
        ref_gate = ad.sigmoid(ad.add(ad.matmul(tensors[0], tensors[3]), tensors[4])).data
        np.testing.assert_array_equal(gate, ref_gate)
        np.testing.assert_array_equal(copy, ad.scatter_cols(tensors[5], SRC_IDS, WIDTH).data)
        assert probs.shape == (1, WIDTH)

    def test_mixture_is_a_distribution(self):
        rng = np.random.Generator(np.random.PCG64(6))
        tensors = [ad.const(rng.normal(size=s)) for s in MIXTURE[:5]]
        weights = ad.softmax(ad.const(rng.normal(size=(1, len(SRC_IDS)))), axis=1)
        probs, _, _ = ad.pointer_mixture(*tensors, weights, SRC_IDS, WIDTH)
        assert abs(float(probs.data.sum()) - 1.0) < 1e-12
        assert (probs.data >= 0).all()

    def test_mixture_shape_validation(self):
        tensors = [ad.const(np.ones(s)) for s in MIXTURE[:5]]
        with pytest.raises(ValueError):
            ad.pointer_mixture(*tensors, ad.const(np.ones((1, 2))), SRC_IDS, WIDTH)

    def test_mean_nll_length_validation(self):
        row = ad.const(np.full((1, 3), 1.0 / 3.0))
        with pytest.raises(ValueError):
            ad.mean_nll([row, row], [0], 1e-12)
        with pytest.raises(ValueError):
            ad.mean_nll([], [], 1e-12)


# ---- batched fused ops ---------------------------------------------------------
#
# A batch is time-major: row t*B + j of a (T*B, ·) input is position t of
# sequence j.  Three sequences of lengths 3, 5 and 1 share T = 5; every op must
# give each sequence what it gives that sequence alone, and padding must not
# reach any result or gradient.

LENGTHS = np.array([3, 5, 1])
NB, NT = len(LENGTHS), int(LENGTHS.max())
VALID = np.arange(NT)[:, None] < LENGTHS[None, :]  # (T, B)
BATCH_SRC = np.array([[0, 6, 2, 6, 1], [4, 4, 5, 6, 0], [3, 0, 0, 0, 0]])  # (B, T), padded past each length


def _rows_of(x: np.ndarray, j: int) -> np.ndarray:
    """Sequence j's own positions of a time-major (T*B, ·) array."""
    return x.reshape(NT, NB, -1)[: LENGTHS[j], j]


def _batched_mixture(feat, w_out, b_out, w_gate, b_gate, scores):
    weights = ad.softmax(scores, axis=1)  # padding columns of BATCH_SRC get real weight here
    return ad.pointer_mixture(feat, w_out, b_out, w_gate, b_gate, weights, BATCH_SRC, WIDTH)[0]


BATCHED = {
    "gru_cell": (ad.gru_cell, ((NB, 4), (NB, H), (4, 3 * H), (H, 3 * H), (1, 3 * H))),
    "gru_sequence": (
        lambda *ts: ad.gru_sequence(*ts, lengths=LENGTHS), ((NT * NB, 4), (4, 3 * H), (H, 3 * H), (1, 3 * H)),
    ),
    "gru_sequence_reverse": (
        lambda *ts: ad.gru_sequence(*ts, reverse=True, lengths=LENGTHS),
        ((NT * NB, 4), (4, 3 * H), (H, 3 * H), (1, 3 * H)),
    ),
    "attention_weights": (
        lambda *ts: ad.attention_weights(*ts, lengths=LENGTHS), ((NB, 2), (2, 3), (NT * NB, 3), (3, 1)),
    ),
    "attend": (ad.attend, ((NB, NT), (NT * NB, 3))),
    "pointer_mixture": (_batched_mixture, ((NB, 4), (4, 5), (1, 5), (4, 1), (1, 1), (NB, NT))),
    "mean_nll": (
        lambda a: ad.mean_nll(
            [ad.softmax(ad.narrow(a, 0, NB * t, NB), axis=1) for t in range(NT)], BATCH_SRC % 5, 1e-12, LENGTHS
        ),
        ((NT * NB, 5),),
    ),
}


class TestBatchedOps:
    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_finite_differences(self, name):
        op, shapes = BATCHED[name]
        check_op(lambda *ts: weighted_sum(op(*ts)), *shapes)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_sequence_rows_match_single_runs(self, reverse):
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.uniform(-0.9, 0.9, size=(NT * NB, 4))
        weights = [rng.uniform(-0.9, 0.9, size=s) for s in GRU_SEQ[1:]]
        g = rng.uniform(-1.0, 1.0, size=(NT * NB, H)) * VALID.reshape(-1, 1)
        ts = [ad.param(x)] + [ad.param(w.copy()) for w in weights]
        out = ad.gru_sequence(*ts, reverse=reverse, lengths=LENGTHS)
        ad.tsum(ad.mul(out, ad.const(g))).backward()
        states = out.data.reshape(NT, NB, H)
        summed = [np.zeros_like(w) for w in weights]
        for j, n in enumerate(LENGTHS):
            single = [ad.param(_rows_of(x, j).copy())] + [ad.param(w.copy()) for w in weights]
            ref = ad.gru_sequence(*single, reverse=reverse)
            ad.tsum(ad.mul(ref, ad.const(_rows_of(g, j)))).backward()
            np.testing.assert_allclose(states[:n, j], ref.data, rtol=0, atol=1e-12)
            pad = states[n:, j]
            np.testing.assert_array_equal(pad, 0.0 if reverse else np.broadcast_to(ref.data[-1], pad.shape))
            np.testing.assert_allclose(_rows_of(ts[0].grad, j), single[0].grad, rtol=0, atol=1e-12)
            assert not ts[0].grad.reshape(NT, NB, -1)[n:, j].any()
            for acc, t in zip(summed, single[1:]):
                acc += t.grad
        for t, want in zip(ts[1:], summed):
            np.testing.assert_allclose(t.grad, want, rtol=0, atol=1e-12)

    def test_attention_rows_match_single_rows(self):
        rng = np.random.Generator(np.random.PCG64(9))
        shapes = ((NB, 2), (2, 3), (NT * NB, 3), (3, 1), (NT * NB, 4))
        query, wq, proj, v, keys = (rng.uniform(-0.9, 0.9, size=s) for s in shapes)
        weights = ad.attention_weights(ad.const(query), ad.const(wq), ad.const(proj), ad.const(v), LENGTHS)
        ctx = ad.attend(weights, ad.const(keys))
        assert weights.shape == (NB, NT)
        np.testing.assert_array_equal(weights.data[~VALID.T], 0.0)
        for j, n in enumerate(LENGTHS):
            ref = ad.attention_weights(ad.const(query[j : j + 1]), ad.const(wq), ad.const(_rows_of(proj, j)), ad.const(v))
            np.testing.assert_allclose(weights.data[j, :n], ref.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(ctx.data[j], (ref.data @ _rows_of(keys, j))[0], rtol=0, atol=1e-12)

    def test_mixture_rows_match_single_rows(self):
        rng = np.random.Generator(np.random.PCG64(10))
        arrays = [rng.uniform(-0.9, 0.9, size=s) for s in ((NB, 4), (4, 5), (1, 5), (4, 1), (1, 1))]
        weights = np.where(VALID.T, rng.uniform(0.1, 1.0, size=(NB, NT)), 0.0)
        weights /= weights.sum(axis=1, keepdims=True)
        probs, _, _ = ad.pointer_mixture(*map(ad.const, arrays), ad.const(weights), BATCH_SRC, WIDTH)
        for j, n in enumerate(LENGTHS):
            width = max(5, int(BATCH_SRC[j, :n].max()) + 1)  # the row's own copy extension
            row = [ad.const(a[j : j + 1]) if a.shape[0] == NB else ad.const(a) for a in arrays]
            ref, _, _ = ad.pointer_mixture(*row, ad.const(weights[j : j + 1, :n]), BATCH_SRC[j, :n], width)
            np.testing.assert_allclose(probs.data[j, :width], ref.data[0], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(probs.data[j, width:], 0.0)

    def test_mean_nll_rows_are_own_means(self):
        rng = np.random.Generator(np.random.PCG64(11))
        rows = [ad.const(rng.uniform(0.05, 1.0, size=(NB, 5))) for _ in range(NT)]
        ids = BATCH_SRC % 5
        out = ad.mean_nll(rows, ids, 1e-12, LENGTHS)
        assert out.shape == (NB, 1)
        for j, n in enumerate(LENGTHS):
            want = ad.mean_nll([ad.const(r.data[j : j + 1]) for r in rows[:n]], list(ids[j, :n]), 1e-12)
            assert out.data[j, 0] == want.item()
