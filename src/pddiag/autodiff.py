"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every value in the compute graph is a Tensor. Leaves created with
``requires_grad=True`` act as trainable parameters: repeated backward passes
accumulate into ``.grad``, which is how per-sample gradients sum over a batch.
A result that needs no gradient keeps no parents and no backward closure, so
a forward pass over constants builds no graph and frees each intermediate as
soon as it is dead. All arithmetic is float64 end to end. This module holds
the Tensor, the engine, leaf constructors and the conv; every other graph
node is a model layer with its own backward, in ``aggregator`` or ``diagnoser``.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Array = np.ndarray


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[Array], tuple] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def backward(root: Tensor, seed: float = 1.0) -> None:
    """Accumulate d(root)/d(leaf) into .grad of every reachable grad-requiring leaf."""
    if root.data.ndim != 0:
        raise ValueError("backward() expects a scalar root")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))

    grads: dict[int, Array] = {id(root): np.asarray(seed, dtype=np.float64)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            # leaf: accumulate so per-sample backward calls sum over a batch
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            held = grads.get(id(p))
            grads[id(p)] = pg if held is None else held + pg


def _relu_values(a: Array, out: Array | None = None) -> Array:
    # fmax maps NaN to 0 but may keep -0.0 for -0.0; adding +0.0 turns that
    # into +0.0, so the result is bitwise np.where(a > 0, a, 0.0)
    out = np.fmax(a, 0.0, out=out)
    out += 0.0
    return out


def conv_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(conv3d_down(x, w, b)), bit for bit, as one graph node.

    The ReLU runs in place in the conv's fresh output, which nothing else
    holds (the conv's backward reads its columns, not its output), so the
    pair allocates one activation array. With a gradient the mask of the
    positive pre-activations is kept and the conv's own backward is wrapped
    to take g * mask: the result keeps the conv's parents (x, w, b), and no
    separate relu node, copy or closure is made.
    """
    h = conv3d_down(x, w, b)
    if h.requires_grad:
        mask = h.data > 0.0
        back = h._backward
        h._backward = lambda g: back(g * mask)
    _relu_values(h.data, out=h.data)
    return h


_K = 3  # conv kernel edge
_S = 2  # conv stride
_P = 1  # conv zero padding
# im2col columns per block on the forward-only path: small enough for the
# GEMM to read them from cache, large enough to amortise the per-block calls
_BLOCK_BYTES = 256 * 1024


def _conv_out_dim(d: int) -> int:
    return (d + 2 * _P - _K) // _S + 1


def _tap_view(slab: Array, nb: int, ho: int, wo: int) -> Array:
    """The 27 taps of nb x ho x wo output positions, as a (cin, kd, kh, kw, nb, ho, wo) view of slab."""
    taps = sliding_window_view(slab, (_K, _K, _K), axis=(1, 2, 3))[:, ::_S, ::_S, ::_S]
    return taps[:, :nb, :ho, :wo].transpose(0, 4, 5, 6, 1, 2, 3)


@functools.lru_cache(maxsize=8)
def _tap_index(slab_shape: tuple, ho: int, wo: int) -> Array:
    """Flat slab index of every im2col column entry, in column order; read-only.

    The forward's own tap view applied to arange(slab size), so the backward
    scatter visits exactly the slab elements the forward gathered.
    """
    nb = (slab_shape[1] - 1) // _S
    idx = _tap_view(np.arange(np.prod(slab_shape)).reshape(slab_shape), nb, ho, wo).flatten()
    idx.flags.writeable = False
    return idx


def _new_scratch(cin: int, nb: int, h: int, wd: int, with_cols: bool) -> tuple[Array, Array, Array | None]:
    """A zero slab for nb output planes of a (cin, *, h, wd) input, its tap view and, if asked, a column buffer."""
    slab = np.zeros((cin, _S * nb + 1, h + 2 * _P, wd + 2 * _P))
    ho, wo = _conv_out_dim(h), _conv_out_dim(wd)
    cols = np.empty(cin * 27 * nb * ho * wo) if with_cols else None
    return slab, _tap_view(slab, nb, ho, wo), cols


_local = threading.local()


def _kept_scratch(cin: int, nb: int, h: int, wd: int, with_cols: bool) -> tuple[Array, Array, Array | None]:
    """_new_scratch, kept per thread for the 8 most recent shapes.

    A conv overwrites the slab's interior planes and zeroes the planes past
    the input, and never writes the padding rows and columns, so a kept
    slab stays zero-bordered from call to call. The slab is dead once the
    forward has gathered its columns, so one slab can serve every conv of
    its shape in a graph.
    """
    try:
        cached = _local.scratch
    except AttributeError:
        cached = _local.scratch = functools.lru_cache(maxsize=8)(_new_scratch)
    return cached(cin, nb, h, wd, with_cols)


def conv3d_down(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3-D convolution, kernel 3, stride 2, zero padding 1.

    x: (Cin, D, H, W); w: (Cout, Cin, 3, 3, 3); b: (Cout,).
    Output (Cout, ceil(D/2), ceil(H/2), ceil(W/2)).

    im2col one block of output planes at a time: the input planes a block
    reads are copied into a zero-padded slab, the 27 taps are gathered from
    the slab into the block's columns, and one GEMM per block writes the
    output. The slab and its tap view are kept per thread and shape
    (_kept_scratch) and reused from call to call. When x, w or b needs a
    gradient the whole output is one block and its columns are allocated
    per call, since backward reads them. Otherwise a block holds about
    _BLOCK_BYTES of columns, so the GEMM reads them while they are in cache,
    and the column buffer is kept with the slab and reused from block to
    block and call to call; only the output is fresh, so a forward-only pass
    keeps a steady working set.

    Backward scatters the column gradients onto a zeroed slab (col2im) with
    one np.add.at over a cached, read-only index of each column entry's slab
    position (_tap_index, built once per shape). add.at adds the entries in
    index order, so each slab element sums its contributions in tap order,
    as a loop over the 27 taps would. (np.bincount would copy a read-only
    index on every call.)
    """
    cin, d, h, wd = x.data.shape
    cout = w.data.shape[0]
    do, ho, wo = _conv_out_dim(d), _conv_out_dim(h), _conv_out_dim(wd)
    plane = ho * wo
    needs_grad = x.requires_grad or w.requires_grad or b.requires_grad
    if needs_grad:
        nb = do
        slab, taps, _ = _kept_scratch(cin, nb, h, wd, False)
        col_buf = np.empty(cin * 27 * nb * plane)
    else:
        nb = min(do, max(1, _BLOCK_BYTES // (cin * 27 * plane * 8)))
        slab, taps, col_buf = _kept_scratch(cin, nb, h, wd, True)
    slab_shape = slab.shape  # backward needs only the shape, not the slab itself
    wmat = w.data.reshape(cout, cin * 27)
    out = np.empty((cout, do, ho, wo))
    out2d = out.reshape(cout, do * plane)
    for o0 in range(0, do, nb):
        n = min(nb, do - o0)
        # slab plane j holds input plane z0 + j, or zeros outside the input
        z0 = _S * o0 - _P
        lo, hi = max(z0, 0), min(z0 + slab.shape[1], d)
        slab[:, : lo - z0] = 0.0
        slab[:, lo - z0 : hi - z0, _P : _P + h, _P : _P + wd] = x.data[:, lo:hi]
        slab[:, hi - z0 :] = 0.0
        cols = col_buf[: cin * 27 * n * plane].reshape(cin, _K, _K, _K, n, ho, wo)
        np.copyto(cols, taps[:, :, :, :, :n])
        cols2d = cols.reshape(cin * 27, n * plane)
        np.matmul(wmat, cols2d, out=out2d[:, o0 * plane : (o0 + n) * plane])
    # once over the whole output: on a strided block the broadcast add is
    # buffered through a temporary and costs about as much as on all of out
    out2d += b.data[:, None]

    def back(g):
        g2d = g.reshape(cout, do * plane)
        gw = (g2d @ cols2d.T).reshape(w.data.shape)
        gb = g2d.sum(axis=1)
        gx = None
        if x.requires_grad:
            gcols = wmat.T @ g2d
            gslab = np.zeros(slab_shape)
            np.add.at(gslab.reshape(-1), _tap_index(slab_shape, ho, wo), gcols.ravel())
            gx = gslab[:, _P : _P + d, _P : _P + h, _P : _P + wd]
        return gx, gw, gb

    return Tensor(out, parents=(x, w, b), backward=back)
