"""32-bit two's-complement fixed-point arithmetic for the simulated datapath.

Raw values are plain Python ints, or int64 numpy arrays for the vectorized
reductions. Multiplication truncates toward negative infinity (arithmetic
right shift of the exact 64-bit product); addition saturates. The reference
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

