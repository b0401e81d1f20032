"""Preset networks used by the demos and the verification suite."""

from __future__ import annotations

from .config import ConvSpec, Dims, NetworkSpec, PoolSpec, Q16_16


def small_test_network() -> NetworkSpec:
    """5x5x3 input, two fused 3x3 convolutions (stride 1, pad 1, 3 filters)
    and a 2x2/2 max pool: the smallest network exercising every stage kind."""
    return NetworkSpec(
        input_dims=Dims(5, 5, 3),
        layers=(ConvSpec(kernel=3, filters=3, stride=1, pad=1, relu=True),
                ConvSpec(kernel=3, filters=3, stride=1, pad=1, relu=True),
                PoolSpec(window=2, stride=2)),
        fmt=Q16_16)


def vgg_prefix_7(input_hw: int = 224, filters=(64, 64, 128, 128, 256)) -> NetworkSpec:
    """conv-conv-pool-conv-conv-pool-conv, the standard 3x3/s1/p1 stack."""
    f = filters
    return NetworkSpec(
        input_dims=Dims(input_hw, input_hw, 3),
        layers=(ConvSpec(3, f[0], 1, 1, relu=True),
                ConvSpec(3, f[1], 1, 1, relu=True),
                PoolSpec(2, 2),
                ConvSpec(3, f[2], 1, 1, relu=True),
                ConvSpec(3, f[3], 1, 1, relu=True),
                PoolSpec(2, 2),
                ConvSpec(3, f[4], 1, 1, relu=True)),
        fmt=Q16_16)


# depth-parallelism assignment that fits the 7-layer stack in 2907 multipliers
VGG7_DEFAULT_DPAR = (3, 64, 64, 128, 64)


def consecutive_convs(n: int, filters: int = 64, input_hw: int = 224,
                      input_depth: int = 3) -> NetworkSpec:
    """n back-to-back 3x3/s1/p1 convolutions with a fixed filter count."""
    return NetworkSpec(
        input_dims=Dims(input_hw, input_hw, input_depth),
        layers=tuple(ConvSpec(3, filters, 1, 1, relu=True) for _ in range(n)),
        fmt=Q16_16)
