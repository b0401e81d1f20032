import random

import numpy as np
import pytest
from hypothesis import settings

from fusedconv.config import ConvSpec, Dims, FusionPlan, NetworkSpec, PoolSpec, \
    output_dims, validate_plan
from fusedconv.datagen import generate_tensor, generate_weights
from fusedconv.fixedpoint import I32_MAX, I32_MIN
from fusedconv.golden import FilterBank, Tensor3D
from fusedconv.networks import small_test_network, vgg_prefix_7

# property tests run a fixed example sequence, so tier-1 stays deterministic
settings.register_profile("tier1", derandomize=True, database=None,
                          max_examples=60, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def small_net():
    return small_test_network()


@pytest.fixture
def small_data(small_net):
    return (generate_tensor(small_net.input_dims, 1),
            generate_weights(small_net, 2))


@pytest.fixture(scope="session")
def vgg7():
    return vgg_prefix_7()


def reduced_vgg_prefix_7() -> NetworkSpec:
    """The 7-layer stack at 32x32 with filter counts 8/8/16/16/32, small
    enough to sweep all 64 fusion partitions quickly."""
    return vgg_prefix_7(input_hw=32, filters=(8, 8, 16, 16, 32))


def vgg16_stack(n_layers: int = 18) -> NetworkSpec:
    """The first n_layers of VGG-16's 18-layer conv/pool stack at 224x224."""
    layers = []
    for filters, n_conv in ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3)):
        layers += [ConvSpec(3, filters, 1, 1, relu=True)] * n_conv
        layers.append(PoolSpec(2, 2))
    return NetworkSpec(Dims(224, 224, 3), tuple(layers[:n_layers]))


@pytest.fixture(scope="session")
def reduced7():
    return reduced_vgg_prefix_7()


def random_network(seed: int) -> NetworkSpec:
    """Small random conv/pool stack in the oracle-equivalence geometry range."""
    rng = random.Random(seed)
    dims = Dims(rng.randint(3, 12), rng.randint(3, 12), rng.choice([1, 2, 3, 4]))
    input_dims = dims
    layers = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.75 or dims.height < 2 or dims.width < 2:
            kern = rng.choice([1, 3])
            if kern > min(dims.height, dims.width):
                kern = 1
            spec = ConvSpec(kernel=kern, filters=rng.randint(1, 4),
                            stride=rng.choice([1, 1, 2]),
                            pad=rng.randint(0, kern - 1),
                            relu=rng.random() < 0.5)
        else:
            wnd = rng.choice([2, 2, 3])
            if dims.height < wnd or dims.width < wnd:
                continue
            spec = PoolSpec(window=wnd, stride=wnd)
        try:
            dims = output_dims(dims, spec)
        except Exception:
            continue
        layers.append(spec)
    if not layers:
        layers = [ConvSpec(1, 2)]
    return NetworkSpec(input_dims, tuple(layers))


def random_plan(net: NetworkSpec, seed: int) -> FusionPlan:
    rng = random.Random(seed ^ 0x5F5F)
    n = len(net.layers)
    cuts = rng.randint(0, (1 << (n - 1)) - 1) if n > 1 else 0
    groups, start = [], 0
    for i in range(n - 1):
        if cuts >> i & 1:
            groups.append((start, i))
            start = i + 1
    groups.append((start, n - 1))
    dpar = []
    din = net.layer_input_dims()
    for li in net.conv_indices():
        depth = din[li].depth
        dpar.append(rng.choice([x for x in range(1, depth + 1) if depth % x == 0]))
    return validate_plan(FusionPlan(tuple(groups), tuple(dpar)), net)


def identity_bank(depth: int, kernel: int = 3, frac_bits: int = 16) -> FilterBank:
    """One filter per input channel passing that channel's center tap through."""
    arr = np.zeros((depth, kernel, kernel, depth), dtype=np.int32)
    mid = kernel // 2
    for f in range(depth):
        arr[f, mid, mid, f] = 1 << frac_bits
    return FilterBank(arr)


def diverging_chain():
    """A 9x8x4 input to two convs on full-range int32 data, whose saturating
    first layer the adder tree (at d_par 4 or 1) and the sequential scan
    reduce to different values. Returns (net, tensor, banks)."""
    net = NetworkSpec(Dims(9, 8, 4), (ConvSpec(3, 8, 2, 1, relu=True),
                                      ConvSpec(1, 4, 1, 0, relu=False)))
    rng = np.random.default_rng(9)
    full = np.iinfo(np.int32)
    tensor = Tensor3D(net.input_dims, rng.integers(full.min, full.max, (9, 8, 4),
                                                   dtype=np.int32))
    banks = [FilterBank(rng.integers(full.min, full.max, shape, dtype=np.int32))
             for shape in ((8, 3, 3, 4), (4, 1, 1, 8))]
    return net, tensor, banks


def tensor_from_reals(values, frac_bits: int = 16) -> Tensor3D:
    arr = np.asarray(values, dtype=np.float64)
    raw = np.round(arr * (1 << frac_bits)).astype(np.int64)
    return Tensor3D(Dims(*arr.shape), raw.astype(np.int32))


def _exactness_edge(fill, center_only, weight=1 << 16):
    """4x4x1 input of one value against a 3x3 filter of one weight, at every
    tap or at the center tap only."""
    data = np.full((4, 4, 1), fill, dtype=np.int32)
    weights = np.zeros((1, 3, 3, 1), dtype=np.int32)
    if center_only:
        weights[0, 1, 1, 0] = weight
    else:
        weights[:] = weight
    return data, weights


EXACTNESS_EDGES = {
    # |-2**31| needs more than int32: every running sum clips
    "min-input": (_exactness_edge(I32_MIN, center_only=False), 8 * 4),
    "min-weight": (_exactness_edge(1 << 16, center_only=False, weight=I32_MIN),
                   8 * 4),
    # (|x| * sum|w| >> 16) + 9 taps is I32_MAX exactly
    "at-bound": (_exactness_edge(I32_MAX - 9, center_only=True), 0),
    # one over the bound, and still nothing clips
    "over-bound": (_exactness_edge(I32_MAX - 8, center_only=True), 0),
}
