"""Layer-by-layer functional reference for fixed-point conv / ReLU / maxpool.

Semantics of a conv output value: a sequential saturating sum, rows outer,
columns middle, depth inner, of truncating fixed-point products, then an
optional ReLU.

conv_values is the one product pass, shared with the simulator's conv
datapath; the two differ only in how they reduce the values that may clamp.
Every running partial is bounded by the sum of absolute products, so where
that bound is <= I32_MAX the plain sum is exact in any order and nothing
saturates. A layer whose magnitudes pass fixedpoint.sum_is_exact needs no
per-value bound at all. The values over the bound (saturating adds are not
associative once they clamp) have their products built once more, in int64
groups of (taps, values), every product clamped and counted there, and go
to each reduction order the caller gives. The oracle's, sequential_sum, is a
saturating scan over the taps in sequential order, run across all of them at
once, that clamps and counts every running sum. The plain pass runs in
int32 where the layer's largest input and weight magnitudes pass
fixedpoint.products_fit_int32, in int64 elsewhere; its values and flags are
the same in both widths. numpy runs a broadcast multiply whose inner loop
has at most np.getbufsize() // 3 elements through its buffered iterator,
about 3.5 times slower. A layer with fewer taps than filters (taps < k:
conv1_1 has 27 and 64) or with more output positions than that sums
tap-major, one tap at a time over blocks of whole output rows, each but the
last past that size; any other layer window-major, a window's taps at once.
Both loop orders give the same values and flags.

walk_layers is the one layer loop that computes values: the oracle runs it
with conv_layer, the simulator with the engine's adder tree. In `simulate`,
the simulator's value walk also reduces each conv layer in the oracle's
order, from the same build, while the oracle's stream is still its own
(every earlier conv layer gave both orders one array), and run_network takes
those layers by position, computing nothing for them. Pools are
deterministic, so the oracle's input to each such layer is the walk's. The
first layer whose orders give two arrays is still taken, as its input was
shared; the oracle computes every later one alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConvSpec, Dims, NetworkSpec, PoolSpec, ValidationError, output_dims
from .fixedpoint import I32_MAX, fx_clamp_count, products_fit_int32, sum_is_exact

# elements per plain-pass work buffer: a window-major block's products, a
# tap-major accumulator or window copy (256 KiB in int32, 512 in int64)
_BATCH = 1 << 16
_GROUP = 1 << 21  # int64 products per group handed to a reduction


@dataclass(eq=False)
class Tensor3D:
    """H x W x D volume of raw fixed-point values, depth innermost in memory."""
    dims: Dims
    data: np.ndarray  # int32, shape (h, w, d), C order

    def __post_init__(self):
        expect = (self.dims.height, self.dims.width, self.dims.depth)
        if self.data.shape != expect:
            raise ValidationError(f"tensor shape {self.data.shape} != dims {expect}")
        if self.data.dtype != np.int32:
            raise ValidationError(f"tensor dtype must be int32, got {self.data.dtype}")

    def equals(self, other: "Tensor3D") -> bool:
        return self.dims == other.dims and bool(np.array_equal(self.data, other.data))


@dataclass(eq=False)
class FilterBank:
    """k filters of shape w x w x d; layout (filter, row, column, depth)."""
    data: np.ndarray  # int32, shape (k, w, w, d)

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[1] != self.data.shape[2]:
            raise ValidationError(f"filter bank shape must be (k, w, w, d), got {self.data.shape}")
        if self.data.dtype != np.int32:
            raise ValidationError(f"filter bank dtype must be int32, got {self.data.dtype}")

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def kernel(self) -> int:
        return self.data.shape[1]

    @property
    def depth(self) -> int:
        return self.data.shape[3]


def sequential_sum(prod: np.ndarray):
    """The oracle's order: each column of a (taps, n) int64 array of clamped
    products becomes a saturating running sum over its taps, all columns at
    once, with every partial clamped and counted. Returns (values, events)."""
    acc = np.zeros(prod.shape[1], dtype=np.int64)
    events = 0
    for tap in prod:
        acc += tap
        events += fx_clamp_count(acc)
    return acc, events


def _window_major(filt: np.ndarray, frac_bits: int, exact: bool, n: int):
    """Each block of up to n positions summed window-major into `out`: each
    window's (k, taps) products at once, summed over the taps, the innermost
    axis. Returns its flags, or None."""
    k, taps = filt.shape
    buf = np.empty(n * k * taps, dtype=filt.dtype)

    def block(win, out):
        nr, nc = win.shape[:2]
        prod = buf[:nr * nc * k * taps].reshape(nr, nc, k, taps)
        np.multiply(win.reshape(nr, nc, 1, taps), filt, out=prod)
        prod >>= frac_bits
        prod.sum(axis=-1, dtype=filt.dtype, out=out)
        # a float64 sum cannot wrap, and is exact while it stays <= I32_MAX
        return None if exact else np.abs(prod).sum(axis=-1, dtype=np.float64) > I32_MAX
    return block


def _tap_major(filt: np.ndarray, frac_bits: int, exact: bool, n: int):
    """Each block of up to n positions summed tap-major into `out`, c =
    _BATCH // n (at least 1) filters at a time: one tap at a time into a (c,
    positions) accumulator, so that the inner loop runs over the block's
    positions, from copies of up to c taps of a kernel row. Returns its
    flags, or None."""
    k, taps = filt.shape
    c = max(1, _BATCH // n)  # rows of n elements in a _BATCH
    acc, tmp = np.empty((2, min(k, c) * n), dtype=filt.dtype)
    abs_sum = None if exact else np.empty(min(k, c) * n, dtype=np.float64)
    flags = None if exact else np.empty(n * k, dtype=bool)
    win_t = np.empty(min(taps, c) * n, dtype=np.int32)

    def block(win, out):
        nr, nc, w = win.shape[:3]
        m, wd = nr * nc, taps // w
        row_taps = win.reshape(nr, nc, w, wd)  # a view: a kernel row's taps are contiguous
        mask = None if exact else flags[:m * k].reshape(nr, nc, k)
        for f0 in range(0, k, c):
            f = filt[f0:f0 + c]
            a, prod = acc[:len(f) * m].reshape(-1, m), tmp[:len(f) * m].reshape(-1, m)
            a.fill(0)
            if not exact:
                s = abs_sum[:len(f) * m].reshape(-1, m)
                s.fill(0)
            for i in range(w):
                for q in range(0, wd, c):
                    wt = win_t[:min(wd - q, c) * m].reshape(-1, nr, nc)
                    np.copyto(wt, row_taps[:, :, i, q:q + len(wt)].transpose(2, 0, 1))
                    for t, row in enumerate(wt.reshape(-1, m), i * wd + q):
                        np.multiply(f[:, t, None], row, out=prod)
                        prod >>= frac_bits
                        a += prod
                        if not exact:
                            s += np.abs(prod, out=prod)
            out[..., f0:f0 + c] = a.reshape(-1, nr, nc).transpose(1, 2, 0)
            if not exact:
                np.greater(s.reshape(-1, nr, nc).transpose(1, 2, 0), I32_MAX,
                           out=mask[..., f0:f0 + c])
        return mask
    return block


def _plain_pass(windows: np.ndarray, filt: np.ndarray, x: np.ndarray,
                frac_bits: int):
    """Every value's plain sum, windows in raster order in blocks, and, unless
    the layer passes sum_is_exact, a list of per-block (rows, columns,
    filters) of the pairs whose float64 sum of absolute products passes
    I32_MAX. `filt` is the (k, taps) int32 filter array; the products, shifts
    and sums run in int32 where products_fit_int32 holds, in int64 elsewhere.

    A layer with fewer taps than filters (taps < k) or more positions than
    np.getbufsize() // 3 sums tap-major, in blocks of whole output rows, each
    but the last of more positions than that, so that each per-tap multiply
    runs numpy's unbuffered loop; any other layer window-major, in blocks of
    about _BATCH products. Neither order changes a value, a flag or the
    flags' order: an unflagged sum is exact in any order, and the float64
    sum of absolute products passes I32_MAX in either order exactly when the
    true sum does."""
    oh, ow = windows.shape[:2]
    k, taps = filt.shape
    max_x = max(int(x.max()), -int(x.min()))
    max_w = max(int(filt.max()), -int(filt.min()))
    exact = sum_is_exact(max_x, int(np.abs(filt, dtype=np.int64).sum(axis=1).max()),
                         taps, frac_bits)
    dtype = np.int32 if products_fit_int32(max_x, max_w) else np.int64
    filt = filt.astype(dtype, copy=False)  # the int32 pass multiplies by the view
    out = np.empty((oh, ow, k), dtype=np.int32)
    flagged = []
    cutoff = np.getbufsize() // 3
    if taps < k or oh * ow > cutoff:
        # the rows spread evenly over as many blocks past the cutoff as fit
        rows = -(-oh // max(1, oh // (cutoff // ow + 1)))
        cols, order = ow, _tap_major
    else:
        cols = min(ow, max(1, _BATCH // (k * taps)))
        rows, order = max(1, _BATCH // (ow * k * taps)), _window_major
    sums = order(filt, frac_bits, exact, min(rows, oh) * cols)
    for r0 in range(0, oh, rows):
        for c0 in range(0, ow, cols):
            # a flagged value may wrap: it is overwritten
            flags = sums(windows[r0:r0 + rows, c0:c0 + cols],
                         out[r0:r0 + rows, c0:c0 + cols])
            if flags is not None:
                r, c, f = np.nonzero(flags)
                if len(f):
                    flagged.append((r + r0, c + c0, f))
    return out, flagged


def conv_values(x: np.ndarray, filt: np.ndarray, spec: ConvSpec, frac_bits: int,
                orders):
    """One conv layer's values from an (h, w, d) int32 input and a (k, w, w, d)
    int32 filter array, once per order in `orders`. Returns one ((h_out,
    w_out, k) int32, saturation events) per order.

    Every value takes the plain sum of _plain_pass. The flagged (window,
    filter) pairs' products are then built once, in groups of at most _GROUP,
    as (taps, n) int64 in row, column, depth order, and clamped and counted;
    each order, reduce(prod) -> (values, events of its sums), replaces their
    values in its own copy of the layer. Where nothing is flagged, every
    order gets the one plain array."""
    k, w, _, d = filt.shape
    s, p = spec.stride, spec.pad
    taps = w * w * d
    padded = np.pad(x, ((p, p), (p, p), (0, 0)))
    # windows[r, c] is the w x w x d patch feeding output position (r, c)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (w, w, d))[::s, ::s, 0]
    flat = filt.reshape(k, taps)
    out, flagged = _plain_pass(windows, flat, x, frac_bits)
    if spec.relu:
        np.maximum(out, 0, out=out)
    if not flagged:
        return [(out, 0)] * len(orders)
    outs = [out] + [out.copy() for _ in orders[1:]]
    events = [0] * len(orders)
    # tap-major: windows_t[..., r, c] is window (r, c) as (w, w, d)
    windows_t = windows.transpose(2, 3, 4, 0, 1)
    filt_t = flat.T.astype(np.int64)
    r, c, f = (np.concatenate(a) for a in zip(*flagged))
    n = max(1, _GROUP // taps)
    for i in range(0, len(f), n):
        ri, ci, fi = r[i:i + n], c[i:i + n], f[i:i + n]
        prod = filt_t[:, fi]
        prod *= windows_t[..., ri, ci].reshape(taps, len(fi))
        prod >>= frac_bits
        clamped = fx_clamp_count(prod)
        for j, reduce in enumerate(orders):
            vals, ev = reduce(prod)
            outs[j][ri, ci, fi] = np.maximum(vals, 0) if spec.relu else vals
            events[j] += clamped + ev
    return list(zip(outs, events))


def conv_layer(input_t: Tensor3D, filters: FilterBank, spec: ConvSpec,
               frac_bits: int = 16, taken=None):
    """Fixed-point 3-D convolution. Returns (Tensor3D, saturation_events).
    Given `taken`, the layer's (values, events) already reduced, it wraps those."""
    if filters.kernel != spec.kernel or filters.k != spec.filters:
        raise ValidationError(
            f"filter bank ({filters.k}, {filters.kernel}) does not match "
            f"conv spec ({spec.filters}, {spec.kernel})")
    if filters.depth != input_t.dims.depth:
        raise ValidationError(
            f"filter depth {filters.depth} != input depth {input_t.dims.depth}")
    out, events = taken or conv_values(input_t.data, filters.data, spec, frac_bits,
                                       (sequential_sum,))[0]
    return Tensor3D(output_dims(input_t.dims, spec), out), events


def maxpool_layer(input_t: Tensor3D, spec: PoolSpec) -> Tensor3D:
    if input_t.dims.height < spec.window or input_t.dims.width < spec.window:
        raise ValidationError(
            f"pool window {spec.window} exceeds input {input_t.dims}")
    out_dims = output_dims(input_t.dims, spec)
    d = input_t.dims.depth
    wv = np.lib.stride_tricks.sliding_window_view(
        input_t.data, (spec.window, spec.window, d))[::spec.stride, ::spec.stride, 0]
    pooled = wv[:out_dims.height, :out_dims.width].max(axis=(2, 3))
    return Tensor3D(out_dims, np.ascontiguousarray(pooled, dtype=np.int32))


def check_inputs(net: NetworkSpec, input_t: Tensor3D, weights: list):
    """Raise ValidationError unless `input_t` and the filter bank count fit `net`."""
    if input_t.dims != net.input_dims:
        raise ValidationError(
            f"input tensor dims {input_t.dims} != network input {net.input_dims}")
    conv_idx = net.conv_indices()
    if len(weights) != len(conv_idx):
        raise ValidationError(
            f"{len(weights)} filter banks supplied for {len(conv_idx)} conv layers")


def walk_layers(net: NetworkSpec, input_t: Tensor3D, weights: list, conv):
    """Evaluate strictly layer by layer, from inputs that passed check_inputs.
    The i-th conv layer runs conv(input Tensor3D, weights[i], spec, i) ->
    (Tensor3D, saturation events). Returns (list of Tensor3D, saturation events)."""
    outputs = []
    events = 0
    cur = input_t
    wi = 0
    for layer in net.layers:
        if isinstance(layer, ConvSpec):
            cur, ev = conv(cur, weights[wi], layer, wi)
            events += ev
            wi += 1
        else:
            cur = maxpool_layer(cur, layer)
        outputs.append(cur)
    return outputs, events


def run_network(net: NetworkSpec, input_t: Tensor3D, weights: list, taken=()):
    """The oracle: walk_layers with conv_layer. Returns (list of Tensor3D,
    saturation_events). The i-th conv layer takes `taken[i]`, its (values,
    events), if the list has one, and is computed otherwise."""
    check_inputs(net, input_t, weights)
    return walk_layers(net, input_t, weights, lambda t, bank, spec, i: conv_layer(
        t, bank, spec, net.fmt.frac_bits, taken[i] if i < len(taken) else None))
