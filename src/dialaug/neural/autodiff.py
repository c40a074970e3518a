"""Reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor records its parents and a backward closure on a tape; backward() runs
the closures in reverse topological order.  Only the operations the dialog
network needs are provided.  Shapes follow numpy broadcasting; gradients of
broadcast operands are summed back to the operand's shape.

Besides the elementwise primitives there are fused ops for the network's
recurrent cells, attention, pointer-generator output and sequence loss.  Each
records one tape node and has one hand-written backward pass, so a decoder
step costs a handful of nodes instead of dozens (fused cells as in Appleyard
et al., arXiv:1604.01946; the mixture gradient as in See et al.,
arXiv:1704.04368).
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = backward
        if not requires_grad:
            # A plain loop: every op makes a tensor, and any() over a generator costs several times more.
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def _accumulate_at(self, idx, g) -> None:
        """Add g into grad[idx] only, without building a full-size gradient first."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[idx] += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def const(data) -> Tensor:
    return Tensor(data)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    out._backward = backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, (a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    out._backward = backward
    return out


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y, (a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    out._backward = backward
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data), (a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    out._backward = backward
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = _softmax(a.data, axis)
    out = Tensor(y, (a,))

    def backward(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate(y * (g - dot))

    out._backward = backward
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        start = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, start + size)
                t._accumulate(g[tuple(idx)])
            start += size

    out._backward = backward
    return out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = Tensor(a.data[idx], (a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate_at(idx, g)

    out._backward = backward
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, (a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    out._backward = backward
    return out


def gather_rows(a: Tensor, ids: list[int]) -> Tensor:
    """Rows a[ids] as a (len(ids), C) tensor; backward scatter-adds into the source rows."""
    idx = np.asarray(ids, dtype=np.intp)
    out = Tensor(a.data[idx], (a,))

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

    out._backward = backward
    return out


def pick(a: Tensor, row: int, col: int) -> Tensor:
    """Scalar tensor a[row, col] (kept as shape (1, 1))."""
    out = Tensor(a.data[row, col].reshape(1, 1), (a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate_at((row, col), g[0, 0])

    out._backward = backward
    return out


def scatter_cols(weights: Tensor, ids: list[int], width: int) -> Tensor:
    """Spread a (1, T) weight row into a (1, width) row, summing duplicate column ids."""
    idx = np.asarray(ids, dtype=np.intp)
    if weights.data.shape != (1, len(ids)):
        raise ValueError(f"weights shape {weights.data.shape} does not match {len(ids)} ids")
    dest = np.zeros((1, width), dtype=np.float64)
    np.add.at(dest[0], idx, weights.data[0])
    out = Tensor(dest, (weights,))

    def backward(g):
        if weights.requires_grad:
            weights._accumulate(g[0, idx].reshape(1, -1))

    out._backward = backward
    return out


def tsum(a: Tensor) -> Tensor:
    out = Tensor(np.array([[a.data.sum()]]), (a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, g[0, 0]))

    out._backward = backward
    return out


def scale(a: Tensor, k: float) -> Tensor:
    out = Tensor(a.data * k, (a,))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * k)

    out._backward = backward
    return out


# ---- fused ops --------------------------------------------------------------
#
# The fused ops take a batch of B rows.  A batch of sequences is stored
# time-major as a 2-D (T*B, ·) array: row t*B + j is position t of sequence j,
# and `lengths` (B,) gives each sequence's own length; later positions are
# padding that no result depends on.  Without `lengths` the batch is one
# sequence of T positions.


def _gru_forward(nx: np.ndarray, h: np.ndarray, uh: np.ndarray):
    """One GRU update of the (B, H) state h from its input projection nx = x @ Wx + b (B, 3H).

    Gate columns are z | r | c: z = sig(nx_z + nh_z), r = sig(nx_r + nh_r),
    c = tanh(nx_c + r * nh_c) with nh = h @ Uh, and h' = z * h + (1 - z) * c.
    Returns h' and what the backward pass needs.
    """
    hd = h.shape[1]
    nh = h @ uh
    z = _sigmoid(nx[:, :hd] + nh[:, :hd])
    r = _sigmoid(nx[:, hd : 2 * hd] + nh[:, hd : 2 * hd])
    nh_c = nh[:, 2 * hd :]
    c = np.tanh(nx[:, 2 * hd :] + r * nh_c)
    return z * h + (1.0 - z) * c, (h, z, r, c, nh_c)


def _gru_backward(g: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d nx, d nh, the direct part of d h) for the upstream gradient g of h'."""
    h, z, r, c, nh_c = cache
    d_z = g * (h - c) * z * (1.0 - z)
    d_c = g * (1.0 - z) * (1.0 - c * c)
    d_r = d_c * nh_c * r * (1.0 - r)
    return np.concatenate([d_z, d_r, d_c], axis=1), np.concatenate([d_z, d_r, d_c * r], axis=1), g * z


def _valid(n: int, lengths) -> np.ndarray | None:
    """(T, B) mask of the positions inside each sequence, or None when no position is padding."""
    if lengths is None:
        return None
    valid = np.arange(n)[:, None] < np.asarray(lengths)[None, :]
    return None if valid.all() else valid


def gru_cell(x: Tensor, h: Tensor, wx: Tensor, uh: Tensor, b: Tensor) -> Tensor:
    """One GRU step of a (B, H) state on a (B, In) input as one node; weights as in `_gru_forward`."""
    w, u = wx.data, uh.data
    h_new, cache = _gru_forward(x.data @ w + b.data, h.data, u)
    out = Tensor(h_new, (x, h, wx, uh, b))

    def backward(g):
        d_nx, d_nh, d_h = _gru_backward(g, cache)
        if x.requires_grad:
            x._accumulate(d_nx @ w.T)
        if h.requires_grad:
            h._accumulate(d_h + d_nh @ u.T)
        if wx.requires_grad:
            wx._accumulate(x.data.T @ d_nx)
        if uh.requires_grad:
            uh._accumulate(h.data.T @ d_nh)
        if b.requires_grad:
            b._accumulate(d_nx.sum(axis=0, keepdims=True))

    out._backward = backward
    return out


def gru_sequence(x: Tensor, wx: Tensor, uh: Tensor, b: Tensor, reverse: bool = False, lengths=None) -> Tensor:
    """A GRU run over a time-major batch x (T*B, E) from a zero state, as one node.

    The input projection of all rows is one (T*B, E) @ Wx product; backward
    runs BPTT over the stored gates.  Row t*B + j of the (T*B, H) result is
    sequence j's state after reading its position t; with `reverse` positions
    are read from last to first.  A padding position leaves the state as it
    is, so a reverse run starts from zero at each sequence's own last position
    and a forward run's padding rows repeat the sequence's final state.
    """
    w, u = wx.data, uh.data
    nb = 1 if lengths is None else len(lengths)
    n, hd = x.data.shape[0] // nb, u.shape[0]
    nx = (x.data @ w + b.data).reshape(n, nb, 3 * hd)
    valid = _valid(n, lengths)
    keep = None if valid is None else valid[:, :, None]
    order = range(n - 1, -1, -1) if reverse else range(n)
    states = np.empty((n, nb, hd))
    caches = [None] * n
    h = np.zeros((nb, hd))
    for t in order:
        h_new, caches[t] = _gru_forward(nx[t], h, u)
        h = h_new if keep is None else np.where(keep[t], h_new, h)
        states[t] = h
    out = Tensor(states.reshape(n * nb, hd), (x, wx, uh, b))

    def backward(g):
        g = g.reshape(n, nb, hd)
        d_nx = np.empty_like(nx)
        d_nh = np.empty_like(nx)
        carry = np.zeros((nb, hd))
        for t in reversed(order):
            g_t = g[t] + carry
            d_nx_t, d_nh_t, d_h = _gru_backward(g_t, caches[t])
            if keep is None:
                carry = d_h + d_nh_t @ u.T
            else:
                d_nx_t = np.where(keep[t], d_nx_t, 0.0)
                d_nh_t = np.where(keep[t], d_nh_t, 0.0)
                carry = np.where(keep[t], d_h + d_nh_t @ u.T, g_t)
            d_nx[t] = d_nx_t
            d_nh[t] = d_nh_t
        d_nx = d_nx.reshape(n * nb, 3 * hd)
        if x.requires_grad:
            x._accumulate(d_nx @ w.T)
        if wx.requires_grad:
            wx._accumulate(x.data.T @ d_nx)
        if uh.requires_grad:
            prev = np.concatenate([cache[0] for cache in caches], axis=0)
            uh._accumulate(prev.T @ d_nh.reshape(n * nb, 3 * hd))
        if b.requires_grad:
            b._accumulate(d_nx.sum(axis=0, keepdims=True))

    out._backward = backward
    return out


def attention_weights(query: Tensor, wq: Tensor, proj_k: Tensor, v: Tensor, lengths=None) -> Tensor:
    """Additive attention weights as one (B, T) node.

    Row j is softmax over t of tanh(query[j] @ Wq + proj_k[t*B + j]) @ v, taken
    over sequence j's own positions; padding positions get weight 0.  `query`
    is (B, H) and `proj_k` the time-major (T*B, A) key projection shared by
    all steps.
    """
    wq_, v_ = wq.data, v.data
    nb = query.data.shape[0]
    n = proj_k.data.shape[0] // nb
    u = np.tanh(query.data @ wq_ + proj_k.data.reshape(n, nb, -1))  # (T, B, A)
    u_rows = u.reshape(n * nb, -1)
    scores = (u_rows @ v_).reshape(n, nb)
    valid = _valid(n, lengths)
    if valid is not None:
        scores = np.where(valid, scores, -np.inf)
    y = _softmax(scores, axis=0)  # (T, B)
    out = Tensor(y.T, (query, wq, proj_k, v))

    def backward(g):
        g_col = g.T
        d_scores = (y * (g_col - (g_col * y).sum(axis=0, keepdims=True))).reshape(n * nb, 1)
        d_pre = (d_scores @ v_.T) * (1.0 - u_rows * u_rows)  # (T*B, A)
        if v.requires_grad:
            v._accumulate(u_rows.T @ d_scores)
        if proj_k.requires_grad:
            proj_k._accumulate(d_pre)
        d_q = d_pre.reshape(n, nb, -1).sum(axis=0)
        if wq.requires_grad:
            wq._accumulate(query.data.T @ d_q)
        if query.requires_grad:
            query._accumulate(d_q @ wq_.T)

    out._backward = backward
    return out


def attend(weights: Tensor, keys: Tensor) -> Tensor:
    """Attention contexts (B, K): row j is the sum over t of weights[j, t] * keys[t*B + j].

    The weights are spread into a (B, T*B) matrix that is zero off each row's
    own keys, so the contexts are one product with the time-major keys.
    """
    w = weights.data
    nb, n = w.shape
    rows = None
    if nb == 1:
        spread = w  # a single row is its own spread
    else:
        rows = np.arange(nb)
        spread = np.zeros((nb, n, nb))
        spread[rows, :, rows] = w
        spread = spread.reshape(nb, n * nb)
    out = Tensor(spread @ keys.data, (weights, keys))

    def backward(g):
        if weights.requires_grad:
            d_spread = g @ keys.data.T
            weights._accumulate(d_spread if rows is None else d_spread.reshape(nb, n, nb)[rows, :, rows])
        if keys.requires_grad:
            keys._accumulate(spread.T @ g)

    out._backward = backward
    return out


def pointer_mixture(
    feat: Tensor, w_out: Tensor, b_out: Tensor, w_gate: Tensor, b_gate: Tensor,
    weights: Tensor, src_ids, width: int,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Pointer-generator output distributions (B, width) as one node.

    probs = gate * [softmax(feat @ W_out + b_out), zero-padded to `width`]
          + (1 - gate) * copy,
    with gate = sigmoid(feat @ w_gate + b_gate) and copy row j the (B, T)
    attention weights of row j scatter-added onto its columns `src_ids[j]`
    (a list is one row).  Columns past a row's own copy extension get
    probability 0.  Returns the node, the gate (B, 1) and the copy
    distributions (B, width) as plain arrays.
    """
    idx = np.atleast_2d(np.asarray(src_ids, dtype=np.intp))
    if weights.data.shape != idx.shape:
        raise ValueError(f"weights shape {weights.data.shape} does not match ids of shape {idx.shape}")
    f, wo, wg = feat.data, w_out.data, w_gate.data
    p = _softmax(f @ wo + b_out.data, axis=1)
    nb, n_vocab = p.shape
    p_pad = p if width == n_vocab else np.concatenate([p, np.zeros((nb, width - n_vocab))], axis=1)
    gate = _sigmoid(f @ wg + b_gate.data)
    # Row j's columns are offset by j * width in the flattened (B, width) result.
    cells = idx.ravel() if nb == 1 else (idx + (np.arange(nb) * width)[:, None]).ravel()
    copy = np.bincount(cells, weights=weights.data.ravel(), minlength=nb * width).reshape(nb, width)
    out = Tensor(gate * p_pad + (1.0 - gate) * copy, (feat, w_out, b_out, w_gate, b_gate, weights))

    def backward(g):
        d_p = gate * g[:, :n_vocab]
        d_logits = p * (d_p - (d_p * p).sum(axis=1, keepdims=True))
        d_gate = ((g * p_pad).sum(axis=1, keepdims=True) - (g * copy).sum(axis=1, keepdims=True)) * gate * (1.0 - gate)
        if feat.requires_grad:
            feat._accumulate(d_logits @ wo.T + d_gate @ wg.T)
        if w_out.requires_grad:
            w_out._accumulate(f.T @ d_logits)
        if b_out.requires_grad:
            b_out._accumulate(d_logits.sum(axis=0, keepdims=True))
        if w_gate.requires_grad:
            w_gate._accumulate(f.T @ d_gate)
        if b_gate.requires_grad:
            b_gate._accumulate(d_gate.sum(axis=0, keepdims=True))
        if weights.requires_grad:
            weights._accumulate((1.0 - gate) * np.take_along_axis(g, idx, axis=1))

    out._backward = backward
    return out, gate, copy


def mean_nll(rows: list[Tensor], ids, eps: float, lengths=None) -> Tensor:
    """Each batch row's mean over its steps of -log(rows[t][j, ids[j][t]] + eps), as one (B, 1) node.

    `rows` holds one (B, W) distribution per step and `ids` is (B, T) (a flat
    list is one row); row j counts its first `lengths[j]` steps only (all T
    without `lengths`).  Backward writes into the picked entries only.
    """
    n = len(rows)
    idx = np.atleast_2d(np.asarray(ids, dtype=np.intp))
    if n == 0 or idx.shape[1] != n:
        raise ValueError(f"{n} rows vs {idx.shape[1]} ids")
    nb = idx.shape[0]
    counts = np.full(nb, n) if lengths is None else np.asarray(lengths)
    valid = np.arange(n)[None, :] < counts[:, None]  # (B, T)
    batch = np.arange(nb)
    shifted = np.stack([row.data[batch, idx[:, t]] for t, row in enumerate(rows)], axis=1) + eps
    nll = np.where(valid, -np.log(shifted), 0.0)
    total = np.zeros(nb)
    for t in range(n):  # left to right, as adding the per-token losses one by one
        total += nll[:, t]
    out = Tensor((total * (1.0 / counts))[:, None], tuple(rows))

    def backward(g):
        d = -(g * (1.0 / counts)[:, None]) / shifted
        for t, row in enumerate(rows):
            if row.requires_grad:
                live = valid[:, t]
                row._accumulate_at((batch[live], idx[live, t]), d[live, t])

    out._backward = backward
    return out
