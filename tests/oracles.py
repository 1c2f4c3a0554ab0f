"""Independent float64 reference implementations used to freeze expected values.

Nothing here imports the package under test, except ``two_phase_ste_step``,
which drives the package's tape and thresholding to replay a training step
the way the package once ran it, ``stability_curve_bool``, which
correlates through the package's ``mask_pearson``, ``sum_all``, which
records a test loss on the package's tape, and
``conv2d_im2col_reference``, which runs its GEMMs at the package's
conv2d thread count. The forward passes are written the long way
(explicit loops where that removes any shared structure with the library) so
agreement is evidence, not tautology.
"""

import math

import numpy as np


def power_threshold(w: float, t: float, p: float) -> float:
    """Scalar power-law shrinkage, direct formula in float64."""
    a = abs(w)
    if a <= t:
        return 0.0
    if math.isinf(p):
        return w
    return math.copysign((a ** p - t ** p) ** (1.0 / p), w)


def soft_threshold(w: float, t: float) -> float:
    a = abs(w)
    return math.copysign(a - t, w) if a > t else 0.0


def pearson(a, b) -> float:
    """Plain textbook Pearson r in float64."""
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    xm = x - x.mean()
    ym = y - y.mean()
    return float((xm * ym).sum() / math.sqrt((xm * xm).sum() * (ym * ym).sum()))


def mlp_loss(weights: list[np.ndarray], biases: list[np.ndarray],
             x: np.ndarray, labels: np.ndarray, smoothing: float = 0.0) -> float:
    """Forward pass of a ReLU MLP plus smoothed cross-entropy, all float64."""
    h = np.asarray(x, dtype=np.float64)
    n_layers = len(weights)
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ np.asarray(w, dtype=np.float64) + np.asarray(b, dtype=np.float64)
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    n, k = h.shape
    shifted = h - h.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    target = np.full((n, k), smoothing / k)
    target[np.arange(n), labels] += 1.0 - smoothing
    return float(-(target * logp).sum() / n)


def central_difference(f, x0: np.ndarray, eps: float) -> np.ndarray:
    """Gradient of scalar f at x0 by symmetric differences, one coordinate at a time."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = x0.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x0)
        flat[i] = orig - eps
        lo = f(x0)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def conv2d_naive(x: np.ndarray, k: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Quadruple-loop cross-correlation in float64. Slow and unambiguous."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for img in range(n):
        for filt in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[img, :, i * stride : i * stride + kh,
                               j * stride : j * stride + kw]
                    out[img, filt, i, j] = (patch * k[filt]).sum()
    return out


def sum_all(x):
    """Sum over every element of a tensor, recorded on the tape like a library
    op: a rank-0 float32 tensor whose backward hands every element the
    incoming gradient."""
    from featherprune.tensor import _emit

    shape = x.data.shape

    def backward_fn(g: np.ndarray):
        return [(x, np.full(shape, g, dtype=np.float32))]

    return _emit(np.sum(x.data, dtype=np.float32), (x,), backward_fn, "sum_all")


def splitmix64_reference(state: int):
    """Reference splitmix64 stepping, transcribed from the published algorithm."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, (z ^ (z >> 31)) & mask


def power_threshold_full_matrix(w: np.ndarray, t: float, p: float):
    """Power-p thresholding evaluated over the whole matrix, then masked.

    The float64 steps and their order are those of the operator's closed form
    T * r * (1 - r^-p)^(1/p), r = |w|/T, with a dummy ratio at pruned entries
    and |w| standing in wherever the result is not finite. An implementation
    that evaluates only the surviving entries must match this byte for byte.
    Requires t > 0 and p != 1.
    """
    w = np.asarray(w)
    magnitude = np.abs(w)
    mask = magnitude > t
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = magnitude.astype(np.float64) / t
        ratio = np.where(mask, ratio, 2.0)
        scaled = t * ratio * (1.0 - ratio ** -p) ** (1.0 / p)
    scaled = np.where(np.isfinite(scaled), scaled, magnitude.astype(np.float64))
    surviving = np.sign(w) * scaled.astype(w.dtype, copy=False)
    return np.where(mask, surviving, w.dtype.type(0.0)), mask


def power_threshold_blocks(w: np.ndarray, t: float, p: float, block: int):
    """The power-p branch of ``apply_threshold`` before it ran in preallocated
    buffers: per block of survivors, |w| gathered from a whole-matrix
    magnitude array, then one expression that makes a fresh float64 array per
    step. ``block`` is the survivor count per block. Requires t > 0 and
    p != 1; returns ``(pruned, mask)``.
    """
    w = np.asarray(w)
    magnitude = np.abs(w)
    mask = magnitude > t
    kept = np.flatnonzero(mask)
    flat_w = w.reshape(-1)
    flat_magnitude = magnitude.reshape(-1)
    pruned = np.zeros(w.shape, dtype=w.dtype)
    flat_pruned = pruned.reshape(-1)
    for start in range(0, kept.size, block):
        index = kept[start : start + block]
        kept_magnitude = flat_magnitude[index].astype(np.float64)
        with np.errstate(over="ignore"):
            ratio = kept_magnitude / t
            scaled = t * ratio * (1.0 - ratio ** -p) ** (1.0 / p)
        if not np.isfinite(scaled.max()):
            scaled = np.where(np.isfinite(scaled), scaled, kept_magnitude)
        flat_pruned[index] = np.copysign(scaled.astype(w.dtype, copy=False), flat_w[index])
    return pruned, mask


def conv2d_im2col_reference(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int):
    """The im2col/col2im conv2d that the library's ``conv2d`` replaced, on arrays.

    The body is the old operator's: a padded copy, a strided window gather
    reshaped into columns, and col2im into a padded buffer. Its three GEMMs
    run through the package's ``_one_thread_matmul``, as ``conv2d``'s do, so
    that both sides use one BLAS thread count; a GEMM's bits can depend on it.
    Returns ``(out, backward, cols_is_view)``: the output array, a function
    from the output gradient to ``(dx, dk)``, and whether the column reshape
    returned a view of the (padded) input rather than a copy, in which case
    BLAS was handed a strided operand.
    """
    from featherprune.tensor import _one_thread_matmul

    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1

    if padding:
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        padded = x
    # (n, c, h_out, w_out, kh, kw) view of all receptive fields
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * h_out * w_out, c * kh * kw)
    k_mat = kernel.reshape(f, c * kh * kw)
    out = _one_thread_matmul(cols, k_mat.T).reshape(n, h_out, w_out, f).transpose(0, 3, 1, 2)

    def backward(g: np.ndarray):
        g_mat = g.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, f)
        dcols = _one_thread_matmul(g_mat, k_mat).reshape(n, h_out, w_out, c, kh, kw)
        dcols = dcols.transpose(0, 3, 1, 2, 4, 5)
        dpadded = np.zeros_like(padded)
        for u in range(kh):
            for v in range(kw):
                dpadded[:, :, u : u + stride * (h_out - 1) + 1 : stride,
                        v : v + stride * (w_out - 1) + 1 : stride] += dcols[:, :, :, :, u, v]
        if padding:
            dx = dpadded[:, :, padding : padding + h, padding : padding + w]
        else:
            dx = dpadded
        return np.ascontiguousarray(dx), _one_thread_matmul(g_mat.T, cols).reshape(f, c, kh, kw)

    return out, backward, np.shares_memory(cols, padded)


def epoch_permutation_reference(state: int, n: int) -> np.ndarray:
    """The scalar Fisher-Yates loop the library's ``epoch_permutation`` replaced.

    ``state`` is the already-mixed stream state; each step advances it by the
    splitmix64 gamma, mixes it, and swaps position i with ``z % (i + 1)``.
    """
    mask = (1 << 64) - 1
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        j = (z ^ (z >> 31)) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def synth_blobs_one_shot(rng_seed: int, classes: int, dims: int, samples: int,
                         noise: float):
    """The blob generator body that ``synth_blobs`` replaced: all the noise in
    one draw, the float64 points in one array, then one float32 copy.

    ``rng_seed`` is the already-mixed generator seed. Returns the float32
    points and the int64 labels.
    """
    rng = np.random.default_rng(rng_seed)
    centers = rng.standard_normal((classes, dims))
    diffs = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diffs ** 2).sum(axis=2))
    centers /= dist[~np.eye(classes, dtype=bool)].min()
    labels = np.arange(samples, dtype=np.int64) % classes
    points = centers[labels] + noise * rng.standard_normal((samples, dims))
    return points.astype(np.float32), labels


def sgd_step_whole_array(weights: np.ndarray, grad: np.ndarray, momentum_buffer: np.ndarray,
                         lr: float, momentum: float, weight_decay: float) -> None:
    """``sgd_step`` before it ran in spans: each expression over the whole
    array, with ``grad + weight_decay * weights`` and ``lr * buffer`` as
    weight-sized temporaries. Updates ``weights`` and ``momentum_buffer``."""
    g = grad + weight_decay * weights if weight_decay != 0.0 else grad
    momentum_buffer *= np.float32(momentum)
    momentum_buffer += g
    weights -= np.float32(lr) * momentum_buffer


def two_phase_ste_step(model, thresholds: dict, op, theta: float, x: np.ndarray,
                       labels: np.ndarray):
    """The sparse training step before the straight-through scaling became a
    recorded op: every layer's weights thresholded into a gradient-tracking
    leaf, one tape sweep, then the leaf's gradient scaled by
    ``np.where(mask, 1, theta)`` and installed on the dense weights by hand.

    ``thresholds`` maps layer names to thresholds. Calls neither
    ``feather_forward`` nor ``feather_backward``. Fills ``grad`` on every
    parameter of ``model`` and returns the loss tensor.
    """
    from featherprune.tensor import Tape, Tensor, softmax_cross_entropy
    from featherprune.thresholding import apply_threshold

    leaves = {}
    for layer in model.layers:
        pruned, mask = apply_threshold(layer.weight.data, thresholds[layer.name], op)
        leaves[layer.name] = (Tensor(pruned, requires_grad=True), mask)
    overrides = {key: leaf for key, (leaf, _) in leaves.items()}
    with Tape() as tape:
        loss = softmax_cross_entropy(model.forward(Tensor(x), overrides), labels)
        tape.backward(loss)
    for layer in model.layers:
        leaf, mask = leaves[layer.name]
        layer.weight.grad = leaf.grad * np.where(mask, np.float32(1.0), np.float32(theta))
    return loss


def idx_pixels_whole_array(pixels: np.ndarray) -> np.ndarray:
    """IDX pixels decoded the way ``load_dataset`` once held them: the whole
    uint8 array cast to float32 at load time, then divided by 255 in place."""
    images = pixels.astype(np.float32)
    images /= 255.0
    return images


class BoolMaskSnapshot:
    """A per-epoch mask snapshot the way ``MaskSnapshot`` once held it: the
    layer masks themselves, one bool (or u8) byte per weight. ``layers`` and
    ``unpacked`` read them as ``MaskSnapshot``'s do."""

    def __init__(self, epoch: int, masks: dict):
        self.epoch = epoch
        self.masks = masks

    @property
    def layers(self) -> list:
        return list(self.masks)

    def unpacked(self, layer: str) -> np.ndarray:
        return np.asarray(self.masks[layer]).astype(np.uint8)


def stability_curve_bool(snapshots) -> list:
    """``stability_curve`` as it ran over snapshots holding bool masks: each
    snapshot's layers raveled, concatenated and cast to bool, then correlated
    with the final one by the package's ``mask_pearson``."""
    from featherprune.analysis import mask_pearson

    def concat(snapshot):
        if not snapshot.masks:
            raise ValueError(f"snapshot for epoch {snapshot.epoch} holds no masks")
        return np.concatenate([np.ravel(m) for m in snapshot.masks.values()]).astype(
            bool, copy=False)

    if not snapshots:
        raise ValueError("no mask snapshots to correlate")
    final = concat(snapshots[-1])
    curve = []
    for snap in snapshots:
        current = concat(snap)
        if current.size != final.size:
            raise ValueError(
                f"epoch {snap.epoch} mask vector has {current.size} entries, "
                f"final has {final.size}"
            )
        curve.append((snap.epoch, float(mask_pearson(current, final))))
    return curve


def snapshot_records_u8(snapshots) -> dict:
    """``masks.bin`` records the way ``snapshot_records`` once built them: a
    u8 copy of every epoch's every layer, all in one dict."""
    records = {}
    for snap in snapshots:
        for layer_name in snap.layers:
            records[f"epoch{snap.epoch:04d}/{layer_name}/mask"] = snap.unpacked(layer_name)
    return records
