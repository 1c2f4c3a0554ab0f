"""Minimal deterministic float32 tensor library with reverse-mode autodiff.

Scope is intentionally small: exactly the operations needed to train compact
MLP/CNN classifiers. There is no broadcasting beyond bias addition, no views,
and no dtype other than float32. Reductions use numpy's fixed (pairwise)
summation order and BLAS matrix products, so forward results are bitwise
repeatable for identical inputs within one environment. Ops hand back
C-contiguous arrays for C-contiguous inputs, and ``conv2d`` always does, so the
reshape after a convolution runs on contiguous memory.

A network layer is one op: ``matmul`` and ``conv2d`` take an optional bias and
ReLU, and give bitwise the result of ``relu(add_bias(...))`` with one output
array and one record. ``add_bias`` and ``relu`` remain public building blocks.

A record keeps only the arrays its own backward reads: an operand only when a
gradient that reads it is wanted, and, for a ReLU, the op's output, whose
positive entries are the ReLU's mask. So nothing may write into an op output's
``data`` before the backward that reads it has run.

Gradients are recorded on an explicit :class:`Tape`: each operation executed
while a tape is active appends one record, and ``Tape.backward(loss)`` replays
the records once, in reverse order, accumulating gradients additively into
every ``requires_grad`` leaf reachable from the loss. Op outputs pass their
gradient on without keeping it. A tape replays only once, so a recorded
backward may drop what it has read as soon as it is done with it, as
``conv2d``'s does with its columns; gradients from separate tapes still add up
in each leaf's ``grad``.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "conv2d",
    "conv_output_size",
    "relu",
    "add_bias",
    "reshape",
    "flatten",
    "softmax_cross_entropy",
]

# backward_fn: gradient w.r.t. the record's output -> [(input, grad contribution)]
BackwardFn = Callable[[np.ndarray], list[tuple["Tensor", np.ndarray]]]


class Tensor:
    """Dense float32 array with an optional gradient slot.

    All axes must have positive extent; zero-sized tensors are rejected rather
    than silently flowing through as empty results. Scalars are rank-0.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float32)
        if any(dim <= 0 for dim in arr.shape):
            raise ValueError(f"zero-sized dimension in tensor shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(())[()])

    def accumulate_grad(self, g: np.ndarray, copy: bool = True) -> None:
        """Add ``g`` into ``grad``. With ``copy=False`` a float32 ``g`` may
        become ``grad`` itself; the caller vouches that nothing else holds it."""
        if g.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(np.float32, copy=copy)
        else:
            self.grad = self.grad + g.astype(np.float32, copy=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one reverse-mode sweep.

    Operations append records in execution order, so inputs always precede the
    records that consume them; ``backward`` walks the records exactly once in
    reverse, and may run only once per tape.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self._records: list[tuple[Tensor, BackwardFn]] = []
        self._outputs: set[int] = set()
        self._replayed = False

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = Tape._stack.pop()
        assert popped is self, "tape stack corrupted"

    @staticmethod
    def current() -> Optional["Tape"]:
        return Tape._stack[-1] if Tape._stack else None

    def record(self, output: Tensor, backward_fn: BackwardFn) -> None:
        self._records.append((output, backward_fn))
        self._outputs.add(id(output))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from loss.

        Leaves are tensors no record produced: parameters, and inputs created
        with ``requires_grad``. Op outputs pass their gradient on to their
        inputs without keeping it, so their ``grad`` stays None; a recorded
        backward that wants its output's gradient kept sets it itself, as
        ``feather_forward`` does. Gradients accumulate additively into any
        ``grad`` already set, so the backwards of separate tapes add up.

        A tape replays once: a recorded backward may drop the arrays it has
        read, so a second call raises ``ValueError`` before it touches any
        gradient.
        """
        if self._replayed:
            raise ValueError("this tape has already run its backward; record a new tape")
        if loss.data.ndim != 0:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        if id(loss) not in self._outputs:
            raise ValueError("loss was not produced under this tape")
        self._replayed = True

        flowing: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float32)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for output, backward_fn in reversed(self._records):
            # The gradient a record is handed is held by nothing else: a fresh
            # GEMM result or sum, or an array one op passed on whole or as a
            # view (no op passes one array to two inputs). So a recorded
            # backward may write into it, as feather_forward's does.
            g = flowing.pop(id(output), None)
            holders.pop(id(output), None)
            if g is None:
                continue
            for tensor, contribution in backward_fn(g):
                key = id(tensor)
                if key in flowing:
                    flowing[key] = flowing[key] + contribution
                else:
                    flowing[key] = contribution
                    holders[key] = tensor

        # Whatever remains are leaves (tensors never produced by a record).
        # Their gradients are fresh arrays except where an op passed the
        # incoming one on (add_bias) or a view of it (reshape). Each is
        # installed uncopied unless a grad installed earlier in this sweep has
        # the same memory owner, so no two leaves' grads share memory.
        claimed: set[int] = set()
        for key, tensor in holders.items():
            if not tensor.requires_grad:
                continue
            g = flowing[key]
            owner = g
            while isinstance(owner, np.ndarray) and owner.base is not None:
                owner = owner.base
            tensor.accumulate_grad(g, copy=id(owner) in claimed)
            claimed.add(id(owner))


def _check_finite(arr: np.ndarray, op_name: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op_name} produced non-finite values")


def _emit(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: BackwardFn, op_name: str,
          relu: bool = False) -> Tensor:
    """Wrap an op's output, recording it when a tape is active and an input
    requires a gradient. With ``relu`` the output, which must be the op's own
    array, is clamped at zero in place after the finite check, and the
    recorded backward is called with that clamped array as its ``out``
    argument. Its positive entries are exactly the pre-activation's, so the
    backward takes the ReLU mask as ``out > 0`` and no mask is stored. The
    output therefore must not be written to before the backward runs."""
    data = np.asarray(data, dtype=np.float32)
    _check_finite(data, op_name)
    tape = Tape.current()
    needs_grad = tape is not None and any(t.requires_grad for t in inputs)
    if relu:
        np.maximum(data, np.float32(0.0), out=data)
        if needs_grad:
            backward_fn = functools.partial(backward_fn, out=data)
    out = Tensor(data, requires_grad=needs_grad)
    if needs_grad:
        tape.record(out, backward_fn)
    return out


def _check_bias(b: Tensor, width: int, what: str) -> None:
    if b.data.ndim != 1:
        raise ValueError(f"bias must be 1-d, got shape {b.shape}")
    if b.shape[0] != width:
        raise ValueError(f"bias length {b.shape[0]} does not match {what} {width}")


# multiply-adds (m·k·n) below which a matmul op runs its GEMMs at one thread
_ONE_THREAD_MADDS = 1 << 21


def matmul(a: Tensor, b: Tensor, *, bias: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """Matrix product of 2-d tensors; inner dimensions must agree.

    ``bias`` (one value per output column) is added into the product and
    ``relu`` clamps the sum at zero, in this one op: the output and every
    gradient are bitwise those of ``relu(add_bias(matmul(a, b), bias))``.

    The forward GEMM and both backward GEMMs share one multiply-add count,
    m·k·n. Below ``_ONE_THREAD_MADDS`` (2^21) all three run at one OpenBLAS
    thread and then set the caller's count again (``_one_thread_matmul``), so
    their bits do not depend on that count; above it they run at the
    caller's count. Per GEMM at batch 128, one thread against two (µs, best
    of 7x200, 2-core AVX-512 box, scipy-openblas 0.3.31):

    ================================  ==============  ==============
    GEMM (multiply-adds)              one thread      two threads
    ================================  ==============  ==============
    CNN fc0 fwd / dX / dW (1.0M)      58 / 38 / 67    39 / 80 / 35
    MLP fc1 fwd / dW / dX (3.84M)     82 / 74 / 95    69 / 72 / 83
    MLP fc0 fwd / dW (30.1M)          578 / 526       484 / 289
    MLP fc2 (128k)                    5.7             5.7
    ================================  ==============  ==============

    One thread costs the CNN's fc0 about 9 µs a step, but a single two-thread
    GEMM wakes OpenBLAS's second thread, which then spins a core for the rest
    of a CNN run and holds about 0.5 MB of buffers. The MLP's fc0 and fc1 are
    slower at one thread, so they stay above the cutoff.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    if bias is not None:
        _check_bias(bias, b.shape[1], "features")
    small = a.shape[0] * a.shape[1] * b.shape[1] < _ONE_THREAD_MADDS
    gemm = _one_thread_matmul if small else np.matmul
    out = gemm(a.data, b.data)
    if bias is not None:
        out += bias.data
    inputs = (a, b) if bias is None else (a, b, bias)
    need_a, need_b = a.requires_grad, b.requires_grad
    need_bias = bias is not None and bias.requires_grad
    # The backward keeps each operand's array only for the other's gradient,
    # and a tensor only when it takes a gradient.
    targets = [t for t in inputs if t.requires_grad]
    a_data = a.data if need_b else None
    b_data = b.data if need_a else None

    def backward_fn(g: np.ndarray, out: Optional[np.ndarray] = None):
        if out is not None:
            g = g * (out > 0)
        grads = []
        if need_a:
            grads.append(gemm(g, b_data.T))
        if need_b:
            grads.append(gemm(a_data.T, g))
        if need_bias:
            grads.append(g.sum(axis=0))
        return list(zip(targets, grads))

    return _emit(out, inputs, backward_fn, "matmul", relu)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward_fn(g: np.ndarray):
        return [(x, g * mask)]

    return _emit(np.maximum(x.data, np.float32(0.0)), (x,), backward_fn, "relu")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-feature (2-d input) or per-channel (4-d input) bias vector."""
    if x.data.ndim == 2:
        _check_bias(b, x.shape[1], "features")
        out = x.data + b.data
        reduce_axes: tuple[int, ...] = (0,)
    elif x.data.ndim == 4:
        _check_bias(b, x.shape[1], "channels")
        out = x.data + b.data.reshape(1, -1, 1, 1)
        reduce_axes = (0, 2, 3)
    else:
        raise ValueError(f"add_bias expects 2-d or 4-d input, got shape {x.shape}")
    need_x, need_b = x.requires_grad, b.requires_grad
    targets = [t for t in (x, b) if t.requires_grad]

    def backward_fn(g: np.ndarray):
        grads = [g] if need_x else []
        if need_b:
            grads.append(g.sum(axis=reduce_axes))
        return list(zip(targets, grads))

    return _emit(out, (x, b), backward_fn, "add_bias")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.size:
        raise ValueError(f"cannot reshape {x.shape} into {shape}")
    in_shape = x.data.shape

    def backward_fn(g: np.ndarray):
        return [(x, g.reshape(in_shape))]

    return _emit(x.data.reshape(shape), (x,), backward_fn, "reshape")


def flatten(x: Tensor) -> Tensor:
    """Collapse all but the leading (batch) axis."""
    return reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output extent of a convolution along one spatial axis."""
    return (size + 2 * padding - kernel) // stride + 1


def _tap_slices(offset: int, size: int, out_size: int, stride: int, padding: int):
    """Output positions whose window tap ``offset`` lands inside the unpadded
    input, and the input positions it reads there: a pair of slices along one
    spatial axis, or None when every read falls in the zero padding."""
    lo = max(0, -((offset - padding) // stride))
    hi = min(out_size, (size - 1 + padding - offset) // stride + 1)
    if hi <= lo:
        return None
    start = lo * stride + offset - padding
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


@functools.lru_cache(maxsize=32)
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """``(source, padded)`` for one conv geometry, shared by every call.

    ``source`` holds, for every entry of one image's C-ordered (h_out, w_out,
    c, kh, kw) columns, the flat index into that image's (c, h, w) pixels it
    reads; a read that falls in the zero padding is clipped into the image.
    ``padded`` lists the entries whose read falls in the padding. Callers must
    not write to either array. They are left writeable because ``np.take``
    copies a read-only index on every call.
    """
    h_out = conv_output_size(h, kh, stride, padding)
    w_out = conv_output_size(w, kw, stride, padding)
    rows = np.arange(h_out)[:, None] * stride + np.arange(kh) - padding  # (h_out, kh)
    cols = np.arange(w_out)[:, None] * stride + np.arange(kw) - padding  # (w_out, kw)
    # broadcast against (h_out, w_out, c, kh, kw)
    rows, cols = rows[:, None, None, :, None], cols[:, None, None, :]
    channels = np.arange(c)[:, None, None]
    source = (channels * h + np.clip(rows, 0, h - 1)) * w + np.clip(cols, 0, w - 1)
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    padded = np.flatnonzero(~np.broadcast_to(inside, source.shape))
    return source.ravel(), padded


# OpenBLAS's (get, set) thread-count calls: numpy 2.x wheels, numpy 1.24
# wheels, system builds
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas():
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS numpy loaded, or
    None when no mapped file with ``openblas`` in its name exports a known
    pair (another BLAS, or no ``/proc``). Opening a library that is already
    loaded returns its existing handle, so the calls reach numpy's copy.
    Looked up on the first call, not at import."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            mapped = {line.split(None, 5)[-1].rstrip("\n") for line in maps}
    except OSError:
        return None
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _one_thread_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with OpenBLAS at one thread, then the caller's count again;
    plain ``a @ b`` when there is no OpenBLAS handle."""
    handle = _openblas()
    if handle is None:
        return a @ b
    get, set_ = handle
    caller = get()
    set_(1)
    try:
        return a @ b
    finally:
        set_(caller)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0, *,
           bias: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """2-d cross-correlation with zero padding.

    Input is NCHW, the kernel is (out_channels, in_channels, kh, kw), and each
    output spatial extent is ``conv_output_size``. The output and the input
    gradient are C-contiguous NCHW arrays. ``bias`` (one value per output
    channel) is added while the NCHW output is written and ``relu`` clamps the
    sum at zero, in this one op: the output and every gradient are bitwise
    those of ``relu(add_bias(conv2d(x, kernel, stride, padding), bias))``.

    The receptive fields are gathered into a C-ordered (n, h_out, w_out, c, kh,
    kw) column buffer by one ``np.take`` through an index cached per geometry
    (``_im2col_index``), and the entries that read the padding are then set to
    zero. The products are ``cols @ k_mat.T`` (forward),
    ``g_mat @ k_mat`` (input gradient) and ``g_mat.T @ cols`` (kernel
    gradient). Their bits depend on ``cols`` and ``g_mat`` being C-contiguous
    when the GEMMs run, so both must stay so. Each GEMM runs with OpenBLAS at
    one thread and then restores the caller's count (``_one_thread_matmul``):
    these tall, skinny products (n*h_out*w_out rows against at most c*kh*kw
    and f columns) gain no time from a second thread, whose own buffers cost
    about 2.9 MB of peak RSS, and whose split changes the kernel gradient's
    bits at some batch sizes. So the bits here do not depend on the caller's
    thread count. The count is process-wide: Python threads that run conv2d
    concurrently share it.

    Each input-gradient element sums its taps in row-major (kh, kw) order,
    starting from zero. The backward forms the kernel and bias gradients
    first and then drops the columns, which nothing reads after the kernel
    gradient (a tape replays once), so the column gradient of the same shape
    can take their memory and is the only large temporary alive while the
    input gradient is summed.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError(f"conv2d expects 4-d input and kernel, got {x.shape} and {kernel.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    n, c, h, w = x.shape
    f, kc, kh, kw = kernel.shape
    if kc != c:
        raise ValueError(f"kernel channels {kc} do not match input channels {c}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ValueError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    if bias is not None:
        _check_bias(bias, f, "channels")
    h_out = conv_output_size(h, kh, stride, padding)
    w_out = conv_output_size(w, kw, stride, padding)
    source, padded = _im2col_index(c, h, w, kh, kw, stride, padding)
    cols = np.take(x.data.reshape(n, c * h * w), source, axis=1)
    cols[:, padded] = 0
    cols = cols.reshape(n * h_out * w_out, c * kh * kw)
    k_mat = kernel.data.reshape(f, c * kh * kw)
    product = _one_thread_matmul(cols, k_mat.T).reshape(n, h_out, w_out, f).transpose(0, 3, 1, 2)
    if bias is None:
        out = np.ascontiguousarray(product)
    else:
        out = np.add(product, bias.data.reshape(1, -1, 1, 1),
                     out=np.empty((n, f, h_out, w_out), dtype=np.float32))
    del product  # the GEMM result goes before the finite check
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    need_x, need_k = x.requires_grad, kernel.requires_grad
    need_bias = bias is not None and bias.requires_grad
    # The backward keeps the columns only for the kernel gradient, the kernel
    # only for the input gradient, and a tensor only when it takes a gradient:
    # an input that needs none, such as a batch of images, is not held.
    targets = [t for t in inputs if t.requires_grad]
    if not need_k:
        cols = None
    if not need_x:
        k_mat = None

    def backward_fn(g: np.ndarray, out: Optional[np.ndarray] = None):
        nonlocal cols
        if out is not None:
            g = g * (out > 0)
        db = g.sum(axis=(0, 2, 3)) if need_bias else None
        g_mat = g.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, f)
        del g
        dk = _one_thread_matmul(g_mat.T, cols).reshape(f, c, kh, kw) if need_k else None
        cols = None
        dx = None
        if need_x:
            row_taps = [_tap_slices(u, h, h_out, stride, padding) for u in range(kh)]
            col_taps = [_tap_slices(v, w, w_out, stride, padding) for v in range(kw)]
            taps = [(u, v, row_taps[u], col_taps[v]) for u in range(kh) for v in range(kw)
                    if row_taps[u] and col_taps[v]]
            # (kh, kw, h_out, w_out, c, n) view of the column gradient, summed
            # into an (h, w, c, n)-ordered buffer: each tap's update then runs
            # over c*n contiguous elements. Every element still sums its taps
            # in (u, v) order starting from zero.
            dcols = _one_thread_matmul(g_mat, k_mat).reshape(n, h_out, w_out, c, kh, kw)
            dcols = dcols.transpose(4, 5, 1, 2, 3, 0)
            del g_mat
            dx_hwcn = np.zeros((h, w, c, n), dtype=np.float32)
            for u, v, (oi, ii), (oj, ij) in taps:
                dx_hwcn[ii, ij] += dcols[u, v, oi, oj]
            del dcols
            dx = np.ascontiguousarray(dx_hwcn.transpose(3, 2, 0, 1))
        return list(zip(targets, (grad for grad in (dx, dk, db) if grad is not None)))

    return _emit(out, inputs, backward_fn, "conv2d", relu)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy of logits against label-smoothed one-hot targets.

    The target for a sample with class y puts (1 - smoothing) + smoothing/K on
    y and smoothing/K on every other class. Returns a rank-0 tensor.
    """
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {logits.shape}")
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels shape {labels.shape} does not match logits batch {logits.shape[0]}"
        )
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"label out of range [0, {k}): {labels.min()}..{labels.max()}")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    exp_z = np.exp(z)
    sum_exp = exp_z.sum(axis=1, keepdims=True)
    log_probs = z - np.log(sum_exp)
    probs = exp_z / sum_exp

    target = np.full((n, k), np.float32(smoothing / k), dtype=np.float32)
    target[np.arange(n), labels] += np.float32(1.0 - smoothing)

    loss = np.float32(-(target * log_probs).sum() / n)

    def backward_fn(g: np.ndarray):
        return [(logits, (probs - target) * (g / np.float32(n)))]

    return _emit(loss, (logits,), backward_fn, "softmax_cross_entropy")
