"""The vectorized SplitMix64 draws against the scalar loop they replace."""

import numpy as np
import pytest

from fusedconv.config import Dims
from fusedconv.datagen import SeededGenerator, _scale_raw, generate_tensor, \
    generate_weights
from fusedconv.networks import small_test_network

from conftest import reduced_vgg_prefix_7
from reference import generate_tensor_scalar, generate_weights_scalar, scale_raw

SEEDS = [0, 1, 2, 11, 0xDEADBEEF, (1 << 64) - 1, -5]


@pytest.mark.parametrize("seed", SEEDS)
def test_tensor_matches_the_scalar_loop(seed):
    for dims in (Dims(1, 1, 1), Dims(4, 5, 3), Dims(32, 32, 3)):
        t = generate_tensor(dims, seed)
        assert t.data.dtype == np.int32
        np.testing.assert_array_equal(t.data, generate_tensor_scalar(dims, seed))


def test_tensor_across_chunk_boundaries_matches_the_scalar_loop():
    # 36,864 draws: nine whole chunks of 2**12 and none left over
    dims = Dims(64, 64, 9)
    np.testing.assert_array_equal(generate_tensor(dims, 3).data,
                                  generate_tensor_scalar(dims, 3))


@pytest.mark.parametrize("seed", SEEDS)
def test_weights_match_the_scalar_loop(seed):
    # the banks of every layer come from one stream, so a miscounted state
    # between layers moves every later bank
    for net in (small_test_network(), reduced_vgg_prefix_7()):
        got = [b.data for b in generate_weights(net, seed)]
        want = generate_weights_scalar(net, seed)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int32
            np.testing.assert_array_equal(g, w)


def test_raw_array_continues_the_scalar_stream():
    gen, ref = SeededGenerator(7), SeededGenerator(7)
    a = gen.raw_array(5)
    assert list(a) == [ref.next_raw() for _ in range(5)]
    assert gen.state == ref.state
    assert gen.next_raw() == ref.next_raw()
    b = gen.raw_array(3, divisor=4)
    assert list(b) == [scale_raw(ref.next_raw(), 4) for _ in range(3)]
    assert gen.state == ref.state


@pytest.mark.parametrize("divisor", [1, 2, 9, 27, 576])
def test_scale_raw_rounds_half_away_from_zero_over_every_raw(divisor):
    raws = np.arange(-(1 << 16), 1 << 16, dtype=np.int64)
    want = [scale_raw(int(r), divisor) for r in raws]
    np.testing.assert_array_equal(_scale_raw(raws, divisor), want)


def test_scale_raw_ties():
    raws = np.array([1, -1, 3, -3, 5, -5, 288, -288, 864, -864], dtype=np.int64)
    np.testing.assert_array_equal(_scale_raw(raws[:6], 2), [1, -1, 2, -2, 3, -3])
    np.testing.assert_array_equal(_scale_raw(raws[6:], 576), [1, -1, 2, -2])
