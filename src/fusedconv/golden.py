"""Layer-by-layer functional reference for fixed-point conv / ReLU / maxpool.

Semantics of a conv output value: a sequential saturating sum, rows outer,
columns middle, depth inner, of truncating fixed-point products, then an
optional ReLU. The vectorized implementation reproduces that sequence
bit-exactly with the rule the pipeline's conv engine also uses: every running
partial is bounded by the sum of absolute products, so where that bound is
<= I32_MAX the plain sum is exact and nothing saturates. A layer whose
magnitudes pass fixedpoint.sum_is_exact needs no per-position bound at all.
The positions over the bound (saturating adds are not associative once they
clamp) take a saturating scan over the taps in sequential order, run across
all of them at once, that clamps and counts every product and running sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConvSpec, Dims, NetworkSpec, PoolSpec, ValidationError, output_dims
from .fixedpoint import I32_MAX, fx_add_sat, fx_clamp_count, fx_mul, sum_is_exact

# keep the per-chunk product buffer around this many int64 values
_CHUNK_BUDGET = 1 << 21


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

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Tensor3D":
        arr = np.ascontiguousarray(arr, dtype=np.int32)
        return cls(Dims(*arr.shape), arr)

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


def zero_pad(t: Tensor3D, p: int) -> Tensor3D:
    if p < 0:
        raise ValidationError("pad must be >= 0")
    if p == 0:
        return t
    h, w, d = t.data.shape
    out = np.zeros((h + 2 * p, w + 2 * p, d), dtype=np.int32)
    out[p:p + h, p:p + w, :] = t.data
    return Tensor3D(Dims(h + 2 * p, w + 2 * p, d), out)


def _conv_position_sequential(win: np.ndarray, filt: np.ndarray, frac_bits: int):
    """Literal reference reduction for one output position, kept as the
    specification conv_layer is tested against. Returns (raw, events)."""
    acc = 0
    events = 0
    w = win.shape[0]
    d = win.shape[2]
    for r in range(w):
        for c in range(w):
            for ch in range(d):
                p, sat_m = fx_mul(int(win[r, c, ch]), int(filt[r, c, ch]), frac_bits)
                acc, sat_a = fx_add_sat(acc, p)
                events += sat_m + sat_a
    return acc, events


def conv_layer(input_t: Tensor3D, filters: FilterBank, spec: ConvSpec,
               frac_bits: int = 16):
    """Fixed-point 3-D convolution. Returns (Tensor3D, saturation_events)."""
    if filters.kernel != spec.kernel or filters.k != spec.filters:
        raise ValidationError(
            f"filter bank ({filters.k}, {filters.kernel}) does not match "
            f"conv spec ({spec.filters}, {spec.kernel})")
    if filters.depth != input_t.dims.depth:
        raise ValidationError(
            f"filter depth {filters.depth} != input depth {input_t.dims.depth}")

    out_dims = output_dims(input_t.dims, spec)
    oh, ow, k = out_dims.height, out_dims.width, out_dims.depth
    w, s, d = spec.kernel, spec.stride, input_t.dims.depth
    taps = w * w * d

    padded = zero_pad(input_t, spec.pad).data
    # windows[r, c] is the w x w x d patch feeding output position (r, c)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (w, w, d))[::s, ::s, 0]
    filt64 = filters.data.reshape(k, taps).astype(np.int64)
    exact = sum_is_exact(max(int(padded.max()), -int(padded.min())),
                         int(np.abs(filt64).sum(axis=1).max()), taps, frac_bits)

    out = np.empty((oh, ow, k), dtype=np.int32)
    events = 0
    rows_per_chunk = max(1, _CHUNK_BUDGET // max(1, ow * k * taps))
    for r0 in range(0, oh, rows_per_chunk):
        r1 = min(oh, r0 + rows_per_chunk)
        win = windows[r0:r1].reshape(r1 - r0, ow, taps).astype(np.int64)
        # (rows, ow, 1, taps) * (k, taps) -> (rows, ow, k, taps)
        prod = (win[:, :, None, :] * filt64[None, None, :, :]) >> frac_bits
        res = prod.sum(axis=-1)
        if not exact:
            # a float64 sum cannot wrap, and is exact while it stays <= I32_MAX
            over = np.abs(prod).sum(axis=-1, dtype=np.float64) > I32_MAX
            if over.any():
                # (flagged positions, taps); each step adds one tap to all of them
                seq = prod[over]
                events += fx_clamp_count(seq)
                acc = np.zeros(seq.shape[0], dtype=np.int64)
                for tap in seq.T:
                    acc += tap
                    events += fx_clamp_count(acc)
                res[over] = acc
        out[r0:r1] = res

    if spec.relu:
        np.maximum(out, 0, out=out)
    return Tensor3D(out_dims, out), events


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


def run_network(net: NetworkSpec, input_t: Tensor3D, weights: list):
    """Evaluate strictly layer by layer. Returns (list of Tensor3D, saturation_events)."""
    if input_t.dims != net.input_dims:
        raise ValidationError(
            f"input tensor dims {input_t.dims} != network input {net.input_dims}")
    conv_idx = net.conv_indices()
    if len(weights) != len(conv_idx):
        raise ValidationError(
            f"{len(weights)} filter banks supplied for {len(conv_idx)} conv layers")

    outputs = []
    events = 0
    cur = input_t
    wi = 0
    for layer in net.layers:
        if isinstance(layer, ConvSpec):
            cur, ev = conv_layer(cur, weights[wi], layer, net.fmt.frac_bits)
            events += ev
            wi += 1
        else:
            cur = maxpool_layer(cur, layer)
        outputs.append(cur)
    return outputs, events
