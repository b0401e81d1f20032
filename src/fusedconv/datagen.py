"""Deterministic test-data generation.

SplitMix64 drives everything: identical seeds give identical raw fixed-point
values on every platform. Activations land in [-1.0, +1.0) and weights are
additionally scaled by 1/(w*w*d), so a full accumulation is bounded by 1.0
and no generated workload can saturate the 32-bit datapath.
"""

from __future__ import annotations

import numpy as np

from .config import ConvSpec, Dims, NetworkSpec
from .golden import FilterBank, Tensor3D

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CHUNK = 1 << 12  # draws per vectorized step (32 KiB of uint64 state)


class SeededGenerator:
    """SplitMix64: state += 0x9E3779B97F4A7C15, output mixed by two
    xor-shift-multiply rounds."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_raw(self) -> int:
        """Top 17 bits as a signed fraction: a raw Q16.16 value in [-1.0, +1.0)."""
        v = self.next_u64() >> 47
        return v - (1 << 17) if v >= (1 << 16) else v

    def raw_array(self, n: int, divisor: int = 1) -> np.ndarray:
        """The next n next_raw() values as int32, each rounded to raw / divisor
        as _scale_raw does. The state after k draws is the seed plus k times
        the increment, so each chunk of draws is one np.uint64 computation,
        in place; its arithmetic wraps modulo 2**64 as the scalar code masks."""
        out = np.empty(n, dtype=np.int32)
        for i in range(0, n, _CHUNK):
            k = min(_CHUNK, n - i)
            z = np.arange(1, k + 1, dtype=np.uint64)
            z *= np.uint64(_GAMMA)
            z += np.uint64(self.state)
            z ^= z >> np.uint64(30)
            z *= np.uint64(0xBF58476D1CE4E5B9)
            z ^= z >> np.uint64(27)
            z *= np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
            z >>= np.uint64(47)
            raw = z.view(np.int64)  # 17 bits now
            raw -= (raw >> 16) << 17  # top bit set: negative
            out[i:i + k] = raw if divisor == 1 else _scale_raw(raw, divisor)
            self.state = (self.state + k * _GAMMA) & _MASK
        return out


def _scale_raw(raw: np.ndarray, divisor: int) -> np.ndarray:
    """round-half-away-from-zero(raw / divisor), exactly, in int64."""
    # -((-2 raw + divisor) // (2 divisor)) is (2 raw + divisor - 1) // (2 divisor)
    return (2 * raw + divisor - (raw < 0)) // (2 * divisor)


def generate_tensor(dims: Dims, seed: int) -> Tensor3D:
    arr = SeededGenerator(seed).raw_array(dims.volume)
    return Tensor3D(dims, arr.reshape(dims.height, dims.width, dims.depth))


def generate_weights(net: NetworkSpec, seed: int) -> list:
    """One FilterBank per conv layer, drawn from the same stream in network
    order, weight magnitudes scaled down by the layer's tap count."""
    gen = SeededGenerator(seed)
    banks = []
    in_dims = net.layer_input_dims()
    for li in net.conv_indices():
        layer: ConvSpec = net.layers[li]
        w, d, k = layer.kernel, in_dims[li].depth, layer.filters
        arr = gen.raw_array(k * w * w * d, divisor=w * w * d)
        banks.append(FilterBank(arr.reshape(k, w, w, d)))
    return banks
