"""Independently coded references the tests check the package against.

Each is a scalar loop over the public fixed-point primitives, written for
clarity, not speed: the oracle's sequential order (`brute_force_conv`,
`conv_position_sequential`) and the conv engine's adder-tree order
(`engine_reference`); and the test data drawn one SplitMix64 step at a time
(`generate_tensor_scalar`, `generate_weights_scalar`).
"""

import numpy as np

from fusedconv.config import Dims
from fusedconv.datagen import SeededGenerator
from fusedconv.fixedpoint import I32_MAX, I32_MIN, fx_add_sat, fx_mul
from fusedconv.golden import Tensor3D


def tensor_from_array(arr) -> Tensor3D:
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    return Tensor3D(Dims(*arr.shape), arr)


def brute_force_conv(input_t, bank, spec, frac_bits=16):
    """Explicit loop nest with inline truncating multiply and saturating
    accumulate, rows outer, columns middle, depth inner. Returns (int32
    outputs, clip count), one clip per product or running sum that leaves the
    32-bit range. Verified by hand at one position: a 1x1x1 input of 0.5
    against a single-tap filter of 0.5 gives (32768*32768)>>16 = 16384 = 0.25."""
    h, w_in, d = input_t.data.shape
    k, w = bank.data.shape[0], bank.data.shape[1]
    s, p = spec.stride, spec.pad
    oh = (h + 2 * p - w) // s + 1
    ow = (w_in + 2 * p - w) // s + 1
    out = np.zeros((oh, ow, k), dtype=np.int64)
    clips = 0
    src = input_t.data
    flt = bank.data
    for r in range(oh):
        for c in range(ow):
            for f in range(k):
                acc = 0
                for kr in range(w):
                    for kc in range(w):
                        rr = r * s - p + kr
                        cc = c * s - p + kc
                        if rr < 0 or rr >= h or cc < 0 or cc >= w_in:
                            continue
                        for ch in range(d):
                            prod = (int(src[rr, cc, ch]) * int(flt[f, kr, kc, ch])) >> frac_bits
                            clips += not I32_MIN <= prod <= I32_MAX
                            prod = min(max(prod, I32_MIN), I32_MAX)
                            acc += prod
                            clips += not I32_MIN <= acc <= I32_MAX
                            acc = min(max(acc, I32_MIN), I32_MAX)
                if spec.relu and acc < 0:
                    acc = 0
                out[r, c, f] = acc
    return out.astype(np.int32), clips


def conv_position_sequential(win, filt, frac_bits):
    """Literal sequential reduction of one (w, w, d) window against one
    (w, w, d) filter through fx_mul and fx_add_sat. Returns (raw, events)."""
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


def tree_sum(vals):
    """Pairwise saturating adder tree over vals zero padded to a power of
    two. Returns (value, clip events)."""
    level = vals + [0] * ((1 << (len(vals) - 1).bit_length()) - len(vals))
    events = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            v, sat = fx_add_sat(level[i], level[i + 1])
            events += sat
            nxt.append(v)
        level = nxt
    return level[0], events


def engine_reference(win, filt, d_par, relu, frac_bits=16):
    """Scalar tree-order reduction of one window, as the hardware sums it:
    per channel a tree over the w*w products, per serial depth group a tree
    over its d_par channels, then a saturating running sum over the groups.
    Returns (one value per filter, clip events)."""
    k, w, _, d = filt.shape
    out, events = [], 0
    for f in range(k):
        acc = 0
        for j in range(d // d_par):
            planes = []
            for ch in range(j * d_par, (j + 1) * d_par):
                prods = []
                for r in range(w):
                    for c in range(w):
                        p, sat = fx_mul(int(win[r, c, ch]), int(filt[f, r, c, ch]),
                                        frac_bits)
                        events += sat
                        prods.append(p)
                v, ev = tree_sum(prods)
                planes.append(v)
                events += ev
            v, ev = tree_sum(planes)
            events += ev
            if j == 0:
                acc = v
            else:
                acc, sat = fx_add_sat(acc, v)
                events += sat
        out.append(max(acc, 0) if relu else acc)
    return out, events


def scale_raw(raw: int, divisor: int) -> int:
    """round-half-away-from-zero(raw / divisor) in pure integers."""
    if raw >= 0:
        return (2 * raw + divisor) // (2 * divisor)
    return -((2 * -raw + divisor) // (2 * divisor))


def generate_tensor_scalar(dims, seed):
    """datagen.generate_tensor's values, one next_raw() at a time."""
    gen = SeededGenerator(seed)
    arr = np.array([gen.next_raw() for _ in range(dims.volume)], dtype=np.int32)
    return arr.reshape(dims.height, dims.width, dims.depth)


def generate_weights_scalar(net, seed):
    """datagen.generate_weights' banks as arrays, one next_raw() and one
    scale_raw() at a time, in network order from one stream."""
    gen = SeededGenerator(seed)
    banks = []
    in_dims = net.layer_input_dims()
    for li in net.conv_indices():
        layer = net.layers[li]
        w, d, k = layer.kernel, in_dims[li].depth, layer.filters
        arr = np.array([scale_raw(gen.next_raw(), w * w * d)
                        for _ in range(k * w * w * d)], dtype=np.int32)
        banks.append(arr.reshape(k, w, w, d))
    return banks
