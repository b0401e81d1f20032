"""32-bit two's-complement fixed-point arithmetic for the simulated datapath.

Raw values are plain Python ints, or numpy arrays for the vectorized
reductions: int32 products where products_fit_int32 proves every product
of a layer fits, int64 elsewhere and in every clamping reduction.
Multiplication truncates toward negative infinity (arithmetic right shift
of the exact product); addition saturates. The reference
model and the pipeline simulator both implement exactly these semantics, and
both clamp and count array values through fx_clamp_count, which is what
makes their comparison a bit-exact contract whenever nothing saturates.
"""

from __future__ import annotations

import numpy as np

I32_MIN = -(1 << 31)
I32_MAX = (1 << 31) - 1


def fx_mul(a: int, b: int, frac_bits: int = 16):
    """Exact product, arithmetic shift right by frac_bits, saturate to 32 bits."""
    p = (a * b) >> frac_bits
    if p > I32_MAX:
        return I32_MAX, True
    if p < I32_MIN:
        return I32_MIN, True
    return p, False


def fx_add_sat(a: int, b: int):
    s = a + b
    if s > I32_MAX:
        return I32_MAX, True
    if s < I32_MIN:
        return I32_MIN, True
    return s, False


def fx_clamp_count(a: np.ndarray) -> int:
    """Clamp a non-empty int64 array in place to the 32-bit range; return how
    many of its values were out of range (one saturation event each)."""
    if a.max() <= I32_MAX and a.min() >= I32_MIN:
        return 0
    n = int(np.count_nonzero(a > I32_MAX)) + int(np.count_nonzero(a < I32_MIN))
    # np.clip would look up the integer limits on every call
    np.minimum(a, I32_MAX, out=a)
    np.maximum(a, I32_MIN, out=a)
    return n


def sum_is_exact(max_abs_x: int, max_abs_w_sum: int, taps: int, frac_bits: int) -> bool:
    """True when no product or partial sum of `taps` truncating products x*w
    can clamp, given |x| <= max_abs_x and sum |w| <= max_abs_w_sum (Python
    ints: -2**31 has no int32 magnitude): |x*w >> f| <= (|x|*|w| >> f) + 1."""
    return (max_abs_x * max_abs_w_sum >> frac_bits) + taps <= I32_MAX


def products_fit_int32(max_abs_x: int, max_abs_w: int) -> bool:
    """True when a conv layer's product pass may run in int32, given |x| <=
    max_abs_x and |w| <= max_abs_w as Python ints (so an input of -2**31
    counts as 2**31). The pass then multiplies, shifts and sums in int32:
    - every product is exact, since |x*w| <= max_abs_x*max_abs_w <= I32_MAX,
      so none is -2**31 and the flag test's np.abs cannot wrap;
    - numpy's arithmetic shift floors alike in both widths, a shift by 32
      included (0 or -1), so the shifted products equal the int64 ones;
    - in a layer that passes sum_is_exact, every partial sum is bounded by
      that bound, <= I32_MAX;
    - in any other layer, an unflagged value's partial sums are bounded by
      its absolute sum, which the flag test found <= I32_MAX;
    - a flagged value's plain sum may wrap, and is always overwritten by
      the reduction of its products rebuilt in int64."""
    return max_abs_x * max_abs_w <= I32_MAX
