import contextlib
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fusedconv import dataflow, golden
from fusedconv.config import ConvSpec, Dims, PoolSpec, ValidationError, parse_plan
from fusedconv.dataflow import conv_datapath, simulate_plan
from fusedconv.datagen import generate_tensor, generate_weights
from fusedconv.golden import FilterBank, Tensor3D, conv_layer, conv_values, maxpool_layer, \
    run_network
from fusedconv.networks import vgg_prefix_7

from conftest import EXACTNESS_EDGES, diverging_chain, identity_bank, tensor_from_reals
from reference import brute_force_conv, conv_position_sequential, engine_reference, \
    tensor_from_array

I32_MAX = (1 << 31) - 1
I32_MIN = -(1 << 31)


def test_zero_pad_examples():
    # one filter per tap (weight 1.0 there) reads every window back: the pad
    # ring is zeros, the interior the input
    t = tensor_from_reals(np.ones((5, 5, 3)))
    bank = FilterBank(np.eye(27, dtype=np.int32).reshape(27, 3, 3, 3) << 16)
    out, events = conv_layer(t, bank, ConvSpec(3, 27, 1, 1, relu=False))
    windows = out.data.reshape(5, 5, 3, 3, 3)
    assert events == 0
    assert np.count_nonzero(windows[0, 0] == 0) == 5 * 3
    assert np.count_nonzero(windows[2, 2] == 0) == 0
    padded = np.zeros((7, 7, 3), dtype=np.int32)
    padded[1:6, 1:6] = t.data
    for r in range(5):
        for c in range(5):
            assert np.array_equal(windows[r, c], padded[r:r + 3, c:c + 3])


def test_identity_kernel_preserves_input():
    t = generate_tensor(Dims(6, 7, 2), seed=5)
    bank = identity_bank(depth=2, kernel=3)
    out, sat = conv_layer(t, bank, ConvSpec(3, 2, 1, 1))
    assert sat == 0
    assert out.equals(t)


def test_zero_filters_zero_output():
    t = generate_tensor(Dims(5, 5, 3), seed=9)
    bank = FilterBank(np.zeros((4, 3, 3, 3), dtype=np.int32))
    out, sat = conv_layer(t, bank, ConvSpec(3, 4, 1, 1))
    assert sat == 0
    assert not out.data.any()


@pytest.mark.parametrize("seed", range(8))
def test_conv_matches_independent_loop_nest(seed):
    rng = random.Random(seed)
    dims = Dims(rng.randint(4, 7), rng.randint(4, 7), rng.choice([1, 2, 3]))
    spec = ConvSpec(kernel=3, filters=rng.randint(1, 3),
                    stride=rng.choice([1, 2]), pad=rng.randint(0, 2),
                    relu=rng.random() < 0.5)
    t = generate_tensor(dims, seed * 3 + 1)
    bank = FilterBank(generate_tensor(
        Dims(spec.filters, 9, dims.depth), seed * 3 + 2)
        .data.reshape(spec.filters, 3, 3, dims.depth))
    out, events = conv_layer(t, bank, spec)
    ref, clips = brute_force_conv(t, bank, spec)
    assert np.array_equal(out.data, ref)
    assert events == clips


def test_conv_saturating_partials_match_loop_nest():
    # drive partials through the clamp: large constant activations x weights
    dims = Dims(4, 4, 2)
    t = Tensor3D(dims, np.full((4, 4, 2), 0x4000_0000, dtype=np.int32))
    flt = np.full((1, 3, 3, 2), 0x0004_0000, dtype=np.int32)  # weight 4.0
    bank = FilterBank(flt)
    spec = ConvSpec(3, 1, 1, 1)
    out, sat = conv_layer(t, bank, spec)
    ref, clips = brute_force_conv(t, bank, spec)
    assert sat > 0
    assert np.array_equal(out.data, ref)
    assert sat == clips


def _full_range(shape, seed):
    """Raw values spread over the whole int32 range."""
    rng = np.random.default_rng(seed)
    return rng.integers(I32_MIN, I32_MAX, size=shape, endpoint=True).astype(np.int32)


def _region_saturating_input():
    # only windows touching the top-left corner see 1.5 * 2^30 products,
    # whose running sums clip after two taps; elsewhere nothing saturates
    data = generate_tensor(Dims(6, 6, 2), 41).data.copy()
    data[:2, :2, :] = 0x4000_0000
    weights = np.full((2, 3, 3, 2), 0x0001_8000, dtype=np.int32)  # 1.5
    weights[1] = -weights[1]
    return data, weights


def _product_clip_input(sign):
    # 0x7000_0000 x 8.0 leaves the 32-bit range in the product itself
    data = np.full((4, 5, 2), sign * 0x7000_0000, dtype=np.int32)
    weights = np.full((2, 3, 3, 2), 0x0008_0000, dtype=np.int32)
    weights[1, 1] = 0  # a filter with some exact zero taps
    return data, weights


def _alternating_clip_input():
    # products clip at both ends and cancel: I32_MAX + I32_MIN = -1 is exact,
    # so the result depends on the sequential order of the clamps
    data = np.full((5, 5, 2), 0x7000_0000, dtype=np.int32)
    data[..., 1] = -0x7000_0000
    weights = np.full((1, 3, 3, 2), 0x0008_0000, dtype=np.int32)
    return data, weights


@pytest.mark.parametrize("make, spec", [
    (_region_saturating_input, ConvSpec(3, 2, 1, 1)),
    (_region_saturating_input, ConvSpec(3, 2, 2, 0, relu=False)),
    (lambda: _product_clip_input(+1), ConvSpec(3, 2, 1, 1, relu=False)),
    (lambda: _product_clip_input(-1), ConvSpec(3, 2, 1, 1, relu=False)),
    (lambda: _product_clip_input(-1), ConvSpec(3, 2, 2, 2)),
    (_alternating_clip_input, ConvSpec(3, 1, 1, 1, relu=False)),
    (lambda: (_full_range((5, 4, 3), 5), _full_range((2, 3, 3, 3), 6)),
     ConvSpec(3, 2, 1, 1, relu=False)),
    (lambda: (_full_range((6, 6, 4), 7), _full_range((3, 1, 1, 4), 8) >> 14),
     ConvSpec(1, 3, 2, 0, relu=False)),
], ids=["region", "region-stride2", "product-clip-pos", "product-clip-neg",
        "product-clip-neg-pad2", "alternating", "full-range", "full-range-1x1"])
def test_conv_clipping_inputs_match_loop_nest(make, spec):
    data, weights = make()
    t, bank = tensor_from_array(data), FilterBank(weights)
    out, events = conv_layer(t, bank, spec)
    ref, clips = brute_force_conv(t, bank, spec)
    assert clips > 0
    assert np.array_equal(out.data, ref)
    assert events == clips
    # the oracle's own literal specification agrees position by position
    p = spec.pad
    padded = np.pad(data, ((p, p), (p, p), (0, 0)))
    w, s = spec.kernel, spec.stride
    literal_events = 0
    for (r, c, f), value in np.ndenumerate(out.data):
        raw, ev = conv_position_sequential(
            padded[r * s:r * s + w, c * s:c * s + w], weights[f], 16)
        assert value == (max(raw, 0) if spec.relu else raw)
        literal_events += ev
    assert literal_events == events


@pytest.mark.parametrize("edge", EXACTNESS_EDGES)
def test_conv_exactness_bound_edges_match_loop_nest(edge):
    (data, weights), clips = EXACTNESS_EDGES[edge]
    t, bank = tensor_from_array(data), FilterBank(weights)
    spec = ConvSpec(3, 1, 1, 0, relu=False)
    out, events = conv_layer(t, bank, spec)
    ref, ref_clips = brute_force_conv(t, bank, spec)
    assert np.array_equal(out.data, ref)
    assert events == ref_clips == clips


@pytest.mark.parametrize("frac_bits", [0, 1, 4])
def test_conv_bound_does_not_wrap_at_small_frac_bits(frac_bits):
    # 18 products of (-2**31)**2 >> frac_bits: their absolute sum passes the
    # int64 range, and every one of them clips
    t = tensor_from_array(np.full((3, 3, 2), I32_MIN, dtype=np.int32))
    bank = FilterBank(np.full((1, 3, 3, 2), I32_MIN, dtype=np.int32))
    spec = ConvSpec(3, 1, 1, 0)
    out, events = conv_layer(t, bank, spec, frac_bits)
    ref, clips = brute_force_conv(t, bank, spec, frac_bits)
    assert out.data.item() == ref.item() == I32_MAX
    assert events == clips >= 18


def test_saturating_layer_needs_no_per_position_reference():
    # full-magnitude activations against unscaled weights in [-1, 1): nearly
    # every output position of this 3x3, 16-deep layer clips
    t = Tensor3D(Dims(16, 16, 16),
                 generate_tensor(Dims(16, 16, 16), 3).data << 15)
    bank = FilterBank(generate_tensor(Dims(16, 9, 16), 4).data.reshape(16, 3, 3, 16))
    spec = ConvSpec(3, 16, 1, 1)
    ref, clips = brute_force_conv(t, bank, spec)
    out, events = conv_layer(t, bank, spec)
    assert clips > 16 * 16 * 16
    assert np.array_equal(out.data, ref)
    assert events == clips


def _scattered_saturating_input():
    # three hot spots of 2^30 against weights of +-1.5: the windows covering
    # one of them are over the exactness bound, the windows between them not
    data = generate_tensor(Dims(7, 8, 2), 43).data.copy()
    for r, c in ((0, 0), (3, 5), (6, 1)):
        data[r, c] = 0x4000_0000
    weights = np.full((2, 3, 3, 2), 0x0001_8000, dtype=np.int32)
    weights[1] = -weights[1]
    weights[1, 0, 0, 1] = 0x0000_8000
    return tensor_from_array(data), FilterBank(weights)


@pytest.mark.parametrize("spec", [ConvSpec(3, 2, 1, 1, relu=False),
                                  ConvSpec(3, 2, 2, 0, relu=False)], ids=["pad1", "stride2"])
@pytest.mark.parametrize("d_par", [1, 2])
def test_conv_values_groups_span_batches(monkeypatch, spec, d_par):
    # one window per plain-sum batch, two values (columns) per reduction
    # group and per adder-tree chunk: the flagged values cross every boundary
    taps = 18
    monkeypatch.setattr(golden, "_BATCH", 2 * taps)
    monkeypatch.setattr(golden, "_GROUP", 2 * taps)
    monkeypatch.setattr(dataflow, "_TREE_NODES", 64)
    groups = []

    def spy(reduce):
        def wrapped(prod):
            assert prod.shape[0] == taps
            groups.append(prod.shape[1])
            return reduce(prod)
        return wrapped
    monkeypatch.setattr(golden, "sequential_sum", spy(golden.sequential_sum))
    t, bank = _scattered_saturating_input()

    out, events = conv_layer(t, bank, spec)
    ref, clips = brute_force_conv(t, bank, spec)
    assert clips > 0
    assert np.array_equal(out.data, ref)
    assert events == clips
    assert len(groups) > 2 and max(groups) == 2
    flagged = sum(groups)
    assert flagged < out.data.size

    vals, events = conv_datapath(t.data, bank, spec, d_par, 16)
    ref, ref_events = _engine_reference_layer(t, bank, spec, d_par, 16)
    assert vals.tolist() == ref
    assert events == ref_events > 0


def _engine_reference_layer(t, bank, spec, d_par, frac_bits):
    """engine_reference at every window: (nested lists of values, events)."""
    w, s, p = spec.kernel, spec.stride, spec.pad
    padded = np.pad(t.data, ((p, p), (p, p), (0, 0)))
    oh = (padded.shape[0] - w) // s + 1
    ow = (padded.shape[1] - w) // s + 1
    rows, events = [], 0
    for r in range(oh):
        row = []
        for c in range(ow):
            vals, ev = engine_reference(padded[r * s:r * s + w, c * s:c * s + w],
                                        bank.data, d_par, spec.relu, frac_bits)
            row.append(vals)
            events += ev
        rows.append(row)
    return rows, events


def _int32_arrays(shape):
    return hnp.arrays(np.int32, shape, elements=st.integers(I32_MIN, I32_MAX),
                      fill=st.nothing())


@st.composite
def conv_cases(draw):
    kernel = draw(st.sampled_from([1, 3]))
    pad = draw(st.integers(0, kernel - 1))
    h = draw(st.integers(max(1, kernel - 2 * pad), 6))
    w = draw(st.integers(max(1, kernel - 2 * pad), 6))
    d = draw(st.integers(1, 16))
    spec = ConvSpec(kernel, draw(st.integers(1, 3)), draw(st.sampled_from([1, 2])),
                    pad, draw(st.booleans()))
    # a per-case shift mixes exact, partly and fully saturating layers
    shift = draw(st.integers(0, 12))
    data = draw(_int32_arrays((h, w, d))) >> shift
    weights = draw(_int32_arrays((spec.filters, kernel, kernel, d)))
    return tensor_from_array(data), FilterBank(weights >> shift), spec


@given(conv_cases())
def test_conv_property_matches_loop_nest(case):
    t, bank, spec = case
    out, events = conv_layer(t, bank, spec)
    ref, clips = brute_force_conv(t, bank, spec)
    assert np.array_equal(out.data, ref)
    assert events == clips


def _bounded_array(draw, shape, m):
    """An int32 array of `shape` with every |value| <= m and one of them
    exactly m (as -2**31 where m is 2**31), mostly at the extremes."""
    lo, hi = max(-m, I32_MIN), min(m, I32_MAX)
    arr = draw(hnp.arrays(np.int64, shape, fill=st.nothing(),
                          elements=st.sampled_from([lo, hi, 0]) | st.integers(lo, hi)))
    at = draw(st.tuples(*(st.integers(0, n - 1) for n in shape)))
    arr[at] = lo if hi < m or draw(st.booleans()) else hi
    return arr.astype(np.int32)


def _boundary_magnitudes(draw):
    """(largest input, largest weight magnitude) whose product is I32_MAX,
    I32_MAX + 1 or just either side of I32_MAX."""
    a = draw(st.sampled_from([1, 2, 1 << 15, 1 << 16, 46340, I32_MAX, 1 << 31])
             | st.integers(1, 1 << 31))
    b = I32_MAX // a + draw(st.integers(0, 1))
    return (b, a) if draw(st.booleans()) else (a, b)


@st.composite
def int32_boundary_cases(draw):
    """A conv layer whose largest input magnitude times its largest weight
    magnitude is I32_MAX, I32_MAX + 1 or just either side of I32_MAX: for a
    drawn a, b is I32_MAX // a (the largest product that fits) or one more
    (the smallest that does not). a = 1, 2**k and 2**31 land on I32_MAX or
    on I32_MAX + 1 exactly; either side may be the input."""
    mx, mw = _boundary_magnitudes(draw)
    kernel = draw(st.sampled_from([1, 3]))
    pad = draw(st.integers(0, kernel - 1))
    h = draw(st.integers(max(1, kernel - 2 * pad), 5))
    w = draw(st.integers(max(1, kernel - 2 * pad), 5))
    d = draw(st.sampled_from([2, 3, 4]))
    spec = ConvSpec(kernel, draw(st.integers(1, 2)), draw(st.sampled_from([1, 2])),
                    pad, draw(st.booleans()))
    x = _bounded_array(draw, (h, w, d), mx)
    weights = _bounded_array(draw, (spec.filters, kernel, kernel, d), mw)
    frac_bits = draw(st.sampled_from([0, 1, 16, 31, 32]))
    return tensor_from_array(x), FilterBank(weights), spec, frac_bits, (mx, mw)


@given(int32_boundary_cases())
def test_conv_at_the_int32_product_bound_matches_references(case):
    t, bank, spec, frac_bits, magnitudes = case
    with mock.patch.object(golden, "products_fit_int32",
                           wraps=golden.products_fit_int32) as spy:
        out, events = conv_layer(t, bank, spec, frac_bits)
        ref, clips = brute_force_conv(t, bank, spec, frac_bits)
        assert np.array_equal(out.data, ref)
        assert events == clips
        d = t.dims.depth
        for d_par in (1, d):
            vals, events = conv_datapath(t.data, bank, spec, d_par, frac_bits)
            ref, ref_events = _engine_reference_layer(t, bank, spec, d_par, frac_bits)
            assert vals.tolist() == ref
            assert events == ref_events
    # each pass asked with the layer's magnitudes as Python ints
    assert spy.call_args_list == [mock.call(*magnitudes)] * 3


@st.composite
def loop_order_cases(draw, tap_major):
    """A conv layer on the given side of the tap-major rule (taps < k): a
    1x1 conv on 1-24 channels or a 3x3 conv on 1-3, with 16-64 filters. Its
    largest input and weight magnitudes are at the int32 product bound or
    both full (2**31), which flags values in layers of either order."""
    frac_bits = draw(st.sampled_from([0, 16, 31, 32]))
    kernel = draw(st.sampled_from([1, 3]))
    if kernel == 1:
        d = draw(st.integers(1, 15) if tap_major else st.integers(16, 24))
    else:
        d = draw(st.integers(1, 3) if tap_major else st.integers(2, 3))
    taps = kernel * kernel * d
    filters = draw(st.integers(max(16, taps + 1), 64) if tap_major else st.integers(16, taps))
    pad = draw(st.integers(0, kernel - 1))
    spec = ConvSpec(kernel, filters, draw(st.sampled_from([1, 2])), pad, draw(st.booleans()))
    h = draw(st.integers(max(1, kernel - 2 * pad), 3))
    w = draw(st.integers(max(1, kernel - 2 * pad), 3))
    mx, mw = (1 << 31, 1 << 31) if draw(st.booleans()) else _boundary_magnitudes(draw)
    x = _bounded_array(draw, (h, w, d), mx)
    weights = _bounded_array(draw, (spec.filters, kernel, kernel, d), mw)
    return tensor_from_array(x), FilterBank(weights), spec, frac_bits


def _assert_matches_references(t, bank, spec, frac_bits):
    """conv_layer against the loop nest, and conv_values in the engine's
    order at d_par 1 and d against the engine reference, with the oracle's
    layer reduced from the same build and taken with no product pass."""
    d = t.dims.depth
    out, events = conv_layer(t, bank, spec, frac_bits)
    ref, clips = brute_force_conv(t, bank, spec, frac_bits)
    assert np.array_equal(out.data, ref)
    assert events == clips
    for d_par in (1, d):
        (vals, events), oracle = conv_values(
            t.data, bank.data, spec, frac_bits,
            (dataflow.adder_tree(bank.kernel, d // d_par, d_par), golden.sequential_sum))
        ref, ref_events = _engine_reference_layer(t, bank, spec, d_par, frac_bits)
        assert vals.tolist() == ref
        assert events == ref_events
        kept, kept_events = conv_layer(t, bank, spec, frac_bits, taken=oracle)
        assert kept.data is oracle[0]
        assert kept.equals(out)
        assert kept_events == clips


@pytest.mark.parametrize("tap_major", [True, False], ids=["tap-major", "window-major"])
@settings(max_examples=20)
@given(data=st.data())
def test_both_loop_orders_match_references(tap_major, data):
    t, bank, spec, frac_bits = data.draw(loop_order_cases(tap_major))
    taps = bank.kernel ** 2 * t.dims.depth
    with mock.patch.object(golden, "_tap_major", wraps=golden._tap_major) as spy:
        _assert_matches_references(t, bank, spec, frac_bits)
    # at most 9 positions, under np.getbufsize() // 3: the order follows taps < k
    assert (taps < bank.k) == tap_major
    assert spy.call_count == 3 * tap_major

    # either order on the same layer and blocks: the same plain sums, wrapped
    # ones included, and the same flagged (r, c, f) in the same order
    p, s = spec.pad, spec.stride
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(t.data, ((p, p), (p, p), (0, 0))), bank.data.shape[1:])[::s, ::s, 0]
    passes = []
    for order in (golden._window_major, golden._tap_major):
        with mock.patch.object(golden, "_window_major", order), \
                mock.patch.object(golden, "_tap_major", order):
            plain, flagged = golden._plain_pass(
                windows, bank.data.reshape(bank.k, taps), t.data, frac_bits)
        passes.append((plain.tolist(), [np.concatenate(a).tolist() for a in zip(*flagged)]))
    assert passes[0] == passes[1]


@contextlib.contextmanager
def _bufsize(size):
    """numpy's ufunc buffer size, which sets the tap-major cutoff, for the
    block only."""
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


# (largest input, largest weight magnitude, frac_bits) of the four kinds of
# layer: int32 and exact, int32 with flagged values (exact where taps is 1),
# int64 and exact, int64 with flagged and clamping values
_WIDTH_CASES = [(1 << 15, 1 << 15, 16), (46340, 46340, 0),
                (1 << 20, 1 << 12, 16), (1 << 31, 1 << 31, 16)]


@st.composite
def chunked_cases(draw):
    """A conv layer of at most 6x6 outputs, 1-8 filters and 1-4 channels of
    one of the _WIDTH_CASES, with a numpy buffer size of 16, 32 or 48 (a
    tap-major cutoff of 5, 10 or 16 positions) and a _BATCH of 1-64."""
    kernel = draw(st.sampled_from([1, 3]))
    pad = draw(st.integers(0, kernel - 1))
    h = draw(st.integers(max(1, kernel - 2 * pad), 6))
    w = draw(st.integers(max(1, kernel - 2 * pad), 6))
    d = draw(st.integers(1, 4))
    spec = ConvSpec(kernel, draw(st.integers(1, 8)), draw(st.sampled_from([1, 2])), pad,
                    draw(st.booleans()))
    mx, mw, frac_bits = draw(st.sampled_from(_WIDTH_CASES))
    x = _bounded_array(draw, (h, w, d), mx)
    weights = _bounded_array(draw, (spec.filters, kernel, kernel, d), mw)
    return (tensor_from_array(x), FilterBank(weights), spec, frac_bits,
            draw(st.sampled_from([16, 32, 48])), draw(st.integers(1, 64)))


def test_tap_major_chunks_match_references():
    # a small buffer size and _BATCH split tiny layers into several row
    # blocks, filter chunks that need not divide k and window copies of part
    # of a kernel row; the examples as a whole must reach each of them in
    # both widths, on exact and on flagged layers
    seen = set()
    tap_major = golden._tap_major

    def spy(filt, frac_bits, exact, n):
        block = tap_major(filt, frac_bits, exact, n)
        k, taps = filt.shape
        c = max(1, golden._BATCH // n)
        seen.add(filt.dtype.name)
        if exact:
            seen.add("exact")
        if k % c:
            seen.add("filter chunks")
        calls = itertools.count()

        def wrapped(win, out):
            if next(calls):
                seen.add("row blocks")
            if c < taps // win.shape[2]:
                seen.add("window copies")
            flags = block(win, out)
            if flags is not None and flags.any():
                seen.add("flagged")
            return flags
        return wrapped

    @settings(max_examples=80)
    @given(chunked_cases())
    def check(case):
        t, bank, spec, frac_bits, bufsize, batch = case
        with _bufsize(bufsize), mock.patch.object(golden, "_BATCH", batch), \
                mock.patch.object(golden, "_tap_major", spy):
            _assert_matches_references(t, bank, spec, frac_bits)
    check()
    assert seen == {"int32", "int64", "exact", "flagged", "row blocks", "filter chunks",
                    "window copies"}


def _work_buffers(block):
    """The arrays a block function keeps between its calls, by name, but the
    filters."""
    cells = zip(block.__code__.co_freevars, block.__closure__)
    return {name: cell.cell_contents for name, cell in cells
            if name != "filt" and isinstance(cell.cell_contents, np.ndarray)}


_VGG7 = vgg_prefix_7()
_VGG7_IN = _VGG7.layer_input_dims()


@pytest.mark.parametrize("in_dims, spec", [
    (Dims(56, 56, 3), ConvSpec(3, 64, 1, 1, relu=True)),
    (Dims(224, 224, 3), ConvSpec(3, 64, 1, 1, relu=True)),
    *((_VGG7_IN[i], _VGG7.layers[i]) for i in (1, 3, 4, 6))],
    ids=["conv1_1-56", "conv1_1-224", "vgg7-l1", "vgg7-l3", "vgg7-l4", "vgg7-l6"])
def test_full_size_layers_sum_tap_major_past_the_cutoff(monkeypatch, in_dims, spec):
    # each block is whole output rows and every block but the last has more
    # positions than np.getbufsize() // 3, so that each per-tap multiply runs
    # numpy's unbuffered loop; the accumulators, their float64 twin and the
    # window copy keep to _BATCH elements, the flags to one per block value.
    # The blocks only record their shapes: nothing is summed.
    x = np.zeros((in_dims.height, in_dims.width, in_dims.depth), dtype=np.int32)
    x[0, 0, 0] = I32_MAX  # past the layer bound: every work buffer is made
    taps = spec.kernel ** 2 * in_dims.depth
    filt = np.full((spec.filters, taps), 1 << 16, dtype=np.int32)
    made, blocks = [], []
    tap_major = golden._tap_major

    def spy(*args):
        made.append(_work_buffers(tap_major(*args)))
        return lambda win, out: blocks.append(win.shape[:2])
    monkeypatch.setattr(golden, "_tap_major", spy)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(x, ((1, 1), (1, 1), (0, 0))), (3, 3, in_dims.depth))[:, :, 0]
    golden._plain_pass(windows, filt, x, 16)

    oh, ow = windows.shape[:2]
    rows = [r for r, c in blocks if c == ow]
    assert len(made) == 1 and len(rows) == len(blocks) and sum(rows) == oh
    assert all(r * ow > np.getbufsize() // 3 for r in rows[:-1])
    buffers = made[0]
    assert buffers.keys() == {"acc", "tmp", "abs_sum", "flags", "win_t"}
    assert buffers.pop("flags").size == max(rows) * ow * spec.filters
    assert all(b.size <= golden._BATCH for b in buffers.values())


def test_maxpool_examples():
    const = tensor_from_reals(np.full((4, 6, 2), 0.5))
    pooled = maxpool_layer(const, PoolSpec(2, 2))
    assert pooled.dims == Dims(2, 3, 2)
    assert np.all(pooled.data == const.data[0, 0, 0])

    quad = tensor_from_reals([[[1.0], [2.0]], [[3.0], [4.0]]])
    out = maxpool_layer(quad, PoolSpec(2, 2))
    assert out.dims == Dims(1, 1, 1)
    assert out.data[0, 0, 0] == 4 << 16


def test_maxpool_matches_brute_force():
    t = generate_tensor(Dims(6, 6, 4), seed=77)
    out = maxpool_layer(t, PoolSpec(2, 2))
    for r in range(3):
        for c in range(3):
            for ch in range(4):
                window = t.data[2 * r:2 * r + 2, 2 * c:2 * c + 2, ch]
                assert out.data[r, c, ch] == window.max()


def test_maxpool_floor_semantics_drops_partial_windows():
    t = generate_tensor(Dims(5, 5, 1), seed=3)
    out = maxpool_layer(t, PoolSpec(2, 2))
    assert out.dims == Dims(2, 2, 1)


def test_run_network_geometry(small_net, small_data):
    tensor, banks = small_data
    outs, sat = run_network(small_net, tensor, banks)
    assert [o.dims for o in outs] == \
        [Dims(5, 5, 3), Dims(5, 5, 3), Dims(2, 2, 3)]
    assert sat == 0


def test_run_network_zero_everything(small_net):
    zeros = Tensor3D(Dims(5, 5, 3), np.zeros((5, 5, 3), dtype=np.int32))
    banks = [FilterBank(np.zeros((3, 3, 3, 3), dtype=np.int32)) for _ in range(2)]
    outs, _ = run_network(small_net, zeros, banks)
    assert all(not o.data.any() for o in outs)


def test_run_network_identity_single_conv():
    from fusedconv.config import NetworkSpec
    net = NetworkSpec(Dims(5, 5, 2), (ConvSpec(3, 2, 1, 1),))
    t = generate_tensor(net.input_dims, 13)
    outs, _ = run_network(net, t, [identity_bank(2)])
    assert outs[0].equals(t)


def test_run_network_validates_bank_count(small_net, small_data):
    tensor, banks = small_data
    with pytest.raises(ValidationError):
        run_network(small_net, tensor, banks[:1])


def test_oracle_takes_conv_layers_by_position(small_net, small_data, monkeypatch):
    # run_network takes the i-th conv layer from the value walk's list and
    # computes only the layers past it
    computed = []
    values = golden.conv_values
    monkeypatch.setattr(golden, "conv_values",
                        lambda *args: computed.append(args[2]) or values(*args))
    tensor, banks = small_data
    # nothing flagged: every conv layer is taken, the walk's own array
    oracle = []
    sim = simulate_plan(small_net, tensor, banks, parse_plan("0-2", small_net, None),
                        oracle=oracle)
    outs, _ = run_network(small_net, tensor, banks, oracle)
    assert len(oracle) == 2 and computed == []
    for i in small_net.conv_indices():
        assert np.shares_memory(outs[i].data, sim.layer_outputs[i].data)
    # a shorter list: the oracle computes the rest
    outs, _ = run_network(small_net, tensor, banks, oracle[:1])
    assert computed == [small_net.layers[1]]
    assert outs[0].data is oracle[0][0] and outs[1].data is not oracle[1][0]
    assert outs[1].equals(sim.layer_outputs[1])
    # the first layer whose orders give two arrays is the last one taken
    computed.clear()
    net, tensor, banks = diverging_chain()
    oracle = []
    sim = simulate_plan(net, tensor, banks, parse_plan("0-1", net, "4,8"), oracle=oracle)
    outs, _ = run_network(net, tensor, banks, oracle)
    assert len(oracle) == 1 and computed == [net.layers[1]]
    assert outs[0].data is oracle[0][0] and not outs[0].equals(sim.layer_outputs[0])


def test_conv_linear_over_unsaturating_inputs():
    # relu off: golden(a+b) == golden(a)+golden(b) value-wise. The safe range
    # here is integer-valued activations: every product is then exact, so the
    # truncating multiply introduces no per-operand rounding that addition
    # could redistribute.
    dims = Dims(5, 6, 2)
    spec = ConvSpec(3, 2, 1, 1, relu=False)
    rng = random.Random(4)
    from fusedconv.config import NetworkSpec
    net = NetworkSpec(dims, (spec,))
    for seed in range(6):
        def int_tensor():
            vals = np.array([[[rng.randint(-4, 4) << 16 for _ in range(2)]
                              for _ in range(6)] for _ in range(5)], dtype=np.int32)
            return Tensor3D(dims, vals)
        a, b = int_tensor(), int_tensor()
        bank = generate_weights(net, seed * 11 + 3)[0]
        ab = Tensor3D(dims, (a.data + b.data).astype(np.int32))
        oa, sa = conv_layer(a, bank, spec)
        ob, sb = conv_layer(b, bank, spec)
        oab, sab = conv_layer(ab, bank, spec)
        assert sa == sb == sab == 0
        assert np.array_equal(oab.data, oa.data + ob.data)


def test_pool_monotone():
    t = generate_tensor(Dims(6, 6, 2), seed=21)
    base = maxpool_layer(t, PoolSpec(2, 2))
    bumped = t.data.copy()
    bumped[3, 4, 1] = I32_MAX // 2
    out = maxpool_layer(Tensor3D(t.dims, bumped), PoolSpec(2, 2))
    assert np.all(out.data >= base.data)
