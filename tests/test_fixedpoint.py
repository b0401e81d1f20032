import random

import numpy as np

from fusedconv.fixedpoint import I32_MAX, I32_MIN, fx_add_sat, fx_clamp_count, fx_mul, \
    products_fit_int32, sum_is_exact


def test_mul_exact_cases():
    a, b = 0x0001_8000, 0x0002_0000  # 1.5 and 2.0 in Q16.16
    assert fx_mul(a, b) == (0x0003_0000, False)
    assert fx_mul(a, 0) == (0, False)
    assert fx_mul(-a, 0) == (0, False)


def test_mul_truncates():
    # 0.1 * 0.1: (6554 * 6554) >> 16 = 655, not the 656 rounding would give
    assert (6554 * 6554) >> 16 == 655
    assert fx_mul(6554, 6554) == (655, False)


def test_add_cases():
    one = 0x0001_0000
    assert fx_add_sat(one, -one) == (0, False)
    assert fx_add_sat(I32_MAX, 1) == (I32_MAX, True)
    assert fx_add_sat(I32_MIN, -1) == (I32_MIN, True)
    # 2.25 + 3.5 = 5.75
    assert fx_add_sat(0x0002_4000, 0x0003_8000) == (0x0005_C000, False)


def test_commutativity_on_raw_patterns():
    rng = random.Random(7)
    samples = [I32_MIN, I32_MAX, 0, 1, -1] + \
        [rng.randint(I32_MIN, I32_MAX) for _ in range(200)]
    for i in range(0, len(samples) - 1, 2):
        a, b = samples[i], samples[i + 1]
        assert fx_mul(a, b) == fx_mul(b, a)
        assert fx_add_sat(a, b) == fx_add_sat(b, a)


def test_addition_associative_when_unsaturated():
    # the property that licenses comparing tree reduction against the
    # sequential reference: any summation order agrees if no partial clamps
    rng = random.Random(11)
    for _ in range(200):
        vals = [rng.randint(-(1 << 24), 1 << 24) for _ in range(8)]
        seq = 0
        clean = True
        for v in vals:
            seq, sat = fx_add_sat(seq, v)
            clean &= not sat
        # pairwise tree
        level = vals
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), 2):
                s, sat = fx_add_sat(level[i], level[i + 1])
                clean &= not sat
                nxt.append(s)
            level = nxt
        assert clean
        assert level[0] == seq


def test_clamp_count_in_range_is_untouched():
    a = np.array([I32_MIN, -1, 0, 1, I32_MAX], dtype=np.int64)
    before = a.copy()
    assert fx_clamp_count(a) == 0
    assert np.array_equal(a, before)


def test_clamp_count_both_signs_in_place():
    a = np.array([[I32_MAX + 1, 5, I32_MIN - 1],
                  [1 << 40, -(1 << 40), I32_MIN]], dtype=np.int64)
    view = a[:, ::2]  # a strided view is clamped in place too
    assert fx_clamp_count(view) == 3
    assert a.tolist() == [[I32_MAX, 5, I32_MIN], [I32_MAX, -(1 << 40), I32_MIN]]
    assert fx_clamp_count(a) == 1
    assert a[1, 1] == I32_MIN


def test_clamp_count_at_and_one_past_each_limit():
    a = np.array([I32_MIN - 1, I32_MIN, I32_MAX, I32_MAX + 1], dtype=np.int64)
    assert fx_clamp_count(a) == 2
    assert a.tolist() == [I32_MIN, I32_MIN, I32_MAX, I32_MAX]


def test_clamp_count_matches_scalar_saturation():
    rng = random.Random(5)
    vals = [rng.randint(-(1 << 33), 1 << 33) for _ in range(300)]
    a = np.array(vals, dtype=np.int64)
    expect = [fx_add_sat(v, 0) for v in vals]
    assert fx_clamp_count(a) == sum(sat for _, sat in expect)
    assert a.tolist() == [v for v, _ in expect]


def test_sum_is_exact_boundary():
    # nine taps of I32_MAX - 9 against a single weight of 1.0 land on I32_MAX
    assert sum_is_exact(I32_MAX - 9, 1 << 16, 9, 16)
    assert not sum_is_exact(I32_MAX - 8, 1 << 16, 9, 16)
    # the magnitude of -2**31 is 2**31: one product of it reaches the bound
    assert not sum_is_exact(-I32_MIN, 1 << 16, 1, 16)
    assert sum_is_exact(-I32_MIN, (1 << 16) - 1, 1, 16)


def test_sum_is_exact_bounds_every_product_and_partial():
    rng = random.Random(12)
    held = 0
    for _ in range(1000):
        taps, frac = rng.randint(1, 40), rng.choice([0, 8, 16])
        xs = [rng.randint(I32_MIN, I32_MAX) >> rng.randint(0, 31) for _ in range(taps)]
        ws = [rng.randint(I32_MIN, I32_MAX) >> rng.randint(0, 31) for _ in range(taps)]
        if not sum_is_exact(max(abs(x) for x in xs), sum(abs(w) for w in ws), taps, frac):
            continue
        held += 1
        acc = 0
        for x, w in zip(xs, ws):
            p, sat_m = fx_mul(x, w, frac)
            acc, sat_a = fx_add_sat(acc, p)
            assert not sat_m and not sat_a
    assert 50 < held < 1000


def test_products_fit_int32_boundary():
    # I32_MAX is prime, so 1 x I32_MAX is its only factorization
    fit = [(1, I32_MAX), (I32_MAX, 1), (2, I32_MAX // 2), (46340, 46340), (-I32_MIN, 0)]
    # 2**31 = I32_MAX + 1, from either side; 46341**2 passes I32_MAX by 4,634
    over = [(1, -I32_MIN), (-I32_MIN, 1), (2, 1 << 30), (1 << 16, 1 << 15),
            (46341, 46341), (I32_MAX, 2)]
    assert all(products_fit_int32(a, b) for a, b in fit)
    assert not any(products_fit_int32(a, b) for a, b in over)
    for a, b in fit:
        # the largest products of either sign are exact in int32
        xs = np.array([max(-a, I32_MIN), min(a, I32_MAX)], dtype=np.int32)
        ws = np.array([-b, b], dtype=np.int32)
        assert np.array_equal(np.multiply.outer(xs, ws),
                              np.multiply.outer(xs.astype(np.int64), ws))
