import pytest

from fusedconv.config import ConvSpec, Dims, FusionPlan, NetworkSpec, parse_plan, \
    plan_to_text, validate_plan
from fusedconv.costmodel import (BRAM_BLOCK_BITS, analyze, conv3d_latency,
                                 steady_cycles, time_ms, traffic_bytes, group_costs)
from fusedconv.dataflow import simulate_group
from fusedconv.networks import VGG7_DEFAULT_DPAR, vgg_prefix_7

from reference import bitmask_plans

DPAR = ",".join(str(x) for x in VGG7_DEFAULT_DPAR)


@pytest.fixture(scope="module")
def net():
    return vgg_prefix_7()


@pytest.fixture(scope="module")
def full_plan(net):
    return parse_plan("0-6", net, DPAR)


@pytest.fixture(scope="module")
def split_plan(net):
    return parse_plan("0|1|2|3|4|5|6", net, DPAR)


def test_latency_formula_reference_points():
    assert conv3d_latency(3, 3) == 63
    assert conv3d_latency(3, 1) == 45
    assert conv3d_latency(1, 1) == 9


def test_latency_monotone():
    prev_w = None
    for w in (1, 3, 5, 7):
        prev_d = None
        for d in (1, 2, 3, 4, 8, 64, 128):
            v = conv3d_latency(w, d)
            if prev_d is not None:
                assert v >= prev_d
            prev_d = v
        if prev_w is not None:
            assert conv3d_latency(w, 1) >= prev_w
        prev_w = conv3d_latency(w, 1)


def test_steady_cycles_examples():
    conv = ConvSpec(3, 64, 1, 1)
    assert steady_cycles(conv, Dims(224, 224, 64), 1) == 3_211_264
    conv3_1 = ConvSpec(3, 256, 1, 1)
    assert steady_cycles(conv3_1, Dims(56, 56, 256), 2) == 1_605_632
    assert steady_cycles(ConvSpec(1, 1), Dims(1, 1, 1), 1) == 1


def test_dsp_examples(net, full_plan):
    assert analyze(full_plan, net).dsp == 2907
    first_group = parse_plan("0-2|3|4|5|6", net, DPAR)
    assert group_costs(first_group, net)[0].dsp == 603
    one = NetworkSpec(Dims(4, 4, 1), (ConvSpec(1, 1),))
    assert analyze(parse_plan("0", one), one).dsp == 1


def test_buffer_bits_components(net, full_plan):
    # conv1_1 line buffer: 3 rows x 226 padded columns x 3 channels x 32 bits
    report = analyze(full_plan, net)
    conv1_1 = report.per_layer[0]
    line_bits = 3 * 226 * 3 * 32
    assert line_bits == 65_088
    bank_bits = 64 * 3 * 32
    assert bank_bits == 6_144
    assembly_bits = 224 * 64 * 32
    assert conv1_1["buffer_bits"] == line_bits + 9 * bank_bits + assembly_bits
    # 9 filter banks of 6144 bits round up to one block each
    assert conv1_1["buffer_blocks"] == \
        -(-line_bits // BRAM_BLOCK_BITS) + 9 + -(-assembly_bits // BRAM_BLOCK_BITS)
    assert report.buffer_bits == sum(l["buffer_bits"] for l in report.per_layer)


def test_buffer_bits_max_over_groups(net, full_plan, split_plan):
    assert analyze(split_plan, net).buffer_bits < analyze(full_plan, net).buffer_bits


def test_traffic_reference_figures(net, full_plan, split_plan):
    full = traffic_bytes(full_plan, net, 4)
    assert full["total"] == 6_032_128
    assert full["inputs"] == 150_528 * 4
    assert full["outputs"] == 802_816 * 4
    assert full["weights"] == 554_688 * 4
    none = traffic_bytes(split_plan, net, 1)
    assert none["total"] == 23_184_064
    reread = traffic_bytes(full_plan, net, 4, reread_weights_per_depth_group=True)
    assert reread["total"] == 7_211_776  # conv3_1 weights fetched twice (g=2)


def test_traffic_itemization_sums(net, full_plan, split_plan):
    for plan in (full_plan, split_plan):
        t = traffic_bytes(plan, net, 4)
        assert t["inputs"] + t["outputs"] + t["weights"] == t["total"]
        floor = (net.input_dims.volume + net.layer_dims()[-1].volume) * 4 \
            + t["weights"]
        assert t["total"] >= floor


def test_traffic_single_layer_plan_invariant():
    one = NetworkSpec(Dims(8, 8, 2), (ConvSpec(3, 4, 1, 1),))
    t = traffic_bytes(parse_plan("0", one), one, 4)
    assert t["total"] == (8 * 8 * 2 + 8 * 8 * 4 + 4 * 9 * 2) * 4


def test_merge_direction_monotonicity(net):
    # merging two adjacent groups never lowers DSP and never raises traffic
    cost = {}
    for groups in bitmask_plans(7):
        plan = parse_plan("|".join(f"{a}-{b}" for a, b in groups), net, DPAR)
        cost[groups] = (analyze(plan, net).dsp, traffic_bytes(plan, net, 4)["total"])
    for groups, (dsp, traffic) in cost.items():
        for i in range(len(groups) - 1):
            merged = (groups[:i] + ((groups[i][0], groups[i + 1][1]),)
                      + groups[i + 2:])
            mdsp, mtraffic = cost[merged]
            assert mdsp >= dsp
            assert mtraffic <= traffic


def test_time_ms_reference_conversions():
    assert time_ms(5_034_000, 120.0) == 41.95
    assert abs(time_ms(3_211_264, 120.0) - 26.76) < 0.01


def test_estimate_single_conv():
    net = NetworkSpec(Dims(224, 224, 3), (ConvSpec(3, 64, 1, 1, relu=True),))
    est = analyze(parse_plan("0", net, "3"), net).total_estimated_cycles
    # steady 3,211,264 + fill (2 * 226 * 1 + 3 + 63)
    assert est == 3_211_264 + 518
    assert abs(time_ms(est) - 26.76) < 0.01


def test_estimate_added_fused_layer_costs_one_fill():
    from fusedconv.networks import consecutive_convs
    one = consecutive_convs(1)
    two = consecutive_convs(2)
    est1 = analyze(parse_plan("0", one, "3"), one).total_estimated_cycles
    est2 = analyze(parse_plan("0-1", two, "3,64"), two).total_estimated_cycles
    extra = est2 - est1
    # second conv's fill at the 64-cycle upstream element period, plus its
    # own pipeline depth (64 parallel channels: 9 * (1 + 4 + 6) = 99)
    assert extra == 2 * 226 * 64 + 3 + conv3d_latency(3, 64)
    # reference-style step: about a quarter millisecond at 120 MHz
    assert abs(time_ms(extra) - 0.25) < 0.05


def test_analyze_report_structure(net, full_plan):
    report = analyze(full_plan, net, bytes_per_value=4, frequency_mhz=120.0)
    d = report.to_dict()
    assert d["dsp"] == 2907
    assert d["traffic_bytes"]["total"] == 6_032_128
    assert len(d["per_layer"]) == 7
    assert d["milliseconds"] == time_ms(d["total_estimated_cycles"])
    assert [l["type"] for l in d["per_layer"]] == \
        ["conv", "conv", "maxpool", "conv", "conv", "maxpool", "conv"]


# partitions whose simulated cycles pass analyze's estimate, at 28x28 and at
# 224x224; in both, the 4-6 group (conv, pool, conv) takes longer than its
# bottleneck plus the fills the model charges, with no stall
ESTIMATE_EXCEEDED = {"0|1|2-3|4-6": (158_369, 157_139),
                     "0|1|2|3|4-6": (159_081, 157_923)}
ESTIMATE_EXCEEDED_224 = {"0|1|2-3|4-6": (9_693_083, 9_679_603),
                         "0|1|2|3|4-6": (9_742_697, 9_729_779)}


def _plans_over_estimate(input_hw):
    """Every partition of the VGG-7 prefix at VGG7_DEFAULT_DPAR, through the
    schedule alone: asserts each plan's cycles reach the sum of its groups'
    bottlenecks, and returns the plans whose cycles pass analyze's estimate.
    A plan's cycles are the sum of its groups', and a group's do not depend
    on the rest of the plan, so each group runs once."""
    net = vgg_prefix_7(input_hw=input_hw)
    din = net.layer_input_dims()
    dpar_of = dict(zip(net.conv_indices(), VGG7_DEFAULT_DPAR))
    cycles = {}
    exceeded = {}
    plans = bitmask_plans(len(net.layers))
    assert len(plans) == 64
    for groups in plans:
        for a, b in groups:
            if (a, b) not in cycles:
                d_pars = [dpar_of[i] for i in range(a, b + 1) if i in dpar_of]
                cycles[a, b] = simulate_group(net.layers[a:b + 1], din[a], d_pars).cycles
        plan = validate_plan(FusionPlan(groups, VGG7_DEFAULT_DPAR), net)
        simulated = sum(cycles[g] for g in groups)
        assert sum(c.bottleneck for c in group_costs(plan, net)) <= simulated
        estimate = analyze(plan, net).total_estimated_cycles
        if simulated > estimate:
            exceeded[plan_to_text(plan)] = (simulated, estimate)
    return exceeded


def test_schedule_cycles_between_floor_and_estimate_on_vgg7_28():
    assert _plans_over_estimate(28) == ESTIMATE_EXCEEDED


def test_schedule_cycles_between_floor_and_estimate_on_vgg7_224():
    # full scale: the row-periodic fast-forward makes all 28 groups' schedules
    # take seconds, not a minute
    assert _plans_over_estimate(224) == ESTIMATE_EXCEEDED_224
