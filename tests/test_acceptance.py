"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Full-scale simulations (224x224 input) run once per network via module-scoped
fixtures and are shared across criteria; the whole module runs in about
20 s. Run with `pytest tests/test_acceptance.py -v -s` to see the
criterion lines as they complete.
"""

from contextlib import contextmanager

import pytest

from fusedconv.cli import main
from fusedconv.config import FusionPlan, full_depth_parallel, parse_plan, \
    serialize_network, validate_plan
from fusedconv.costmodel import (ResourceBudget, analyze, conv3d_latency, time_ms,
                                 traffic_bytes, group_costs)
from fusedconv.dataflow import simulate_plan
from fusedconv.datagen import generate_tensor, generate_weights
from fusedconv.dse import fit_groups, fold_partitions
from fusedconv.golden import run_network
from fusedconv.networks import (VGG7_DEFAULT_DPAR, consecutive_convs,
                                reduced_vgg_prefix_7, small_test_network,
                                vgg_prefix_7)

from conftest import random_network, random_plan
from reference import bitmask_plans

CONV1_1_STEADY = 3_211_264
MEGABYTE = 1_000_000  # decimal, matching the reference tables


@contextmanager
def criterion(num, desc):
    try:
        yield
    except AssertionError:
        print(f"FAIL  criterion {num}: {desc}")
        raise
    print(f"PASS  criterion {num}: {desc}")


def _simulate_fused(net, seed=1, dpar=None):
    tensor = generate_tensor(net.input_dims, seed)
    banks = generate_weights(net, seed + 1)
    plan = validate_plan(
        FusionPlan(((0, len(net.layers) - 1),),
                   dpar or full_depth_parallel(net)), net)
    return simulate_plan(net, tensor, banks, plan)


@pytest.fixture(scope="module")
def conv_chain_sims():
    """Fully fused consecutive-conv networks of depth 1..4 at full scale."""
    sims = {}
    for n in range(1, 5):
        net = consecutive_convs(n)
        sims[n] = _simulate_fused(net)
    return sims


@pytest.fixture(scope="module")
def vgg7_sim():
    return _simulate_fused(vgg_prefix_7(), dpar=VGG7_DEFAULT_DPAR)


@pytest.fixture(scope="module")
def reduced_sweep():
    """All 64 partitions of the reduced-scale 7-layer stack, plus golden."""
    net = reduced_vgg_prefix_7()
    tensor = generate_tensor(net.input_dims, 11)
    banks = generate_weights(net, 12)
    golden_outs, golden_sat = run_network(net, tensor, banks)
    assert golden_sat == 0
    sims = {}
    for groups in bitmask_plans(7):
        plan = validate_plan(FusionPlan(groups, full_depth_parallel(net)), net)
        sims[groups] = simulate_plan(net, tensor, banks, plan)
    return net, golden_outs, sims


def test_criterion_1_latency_formulas():
    with criterion(1, "3-D conv pipeline latency 63 cycles at (w=3, d_par=3) "
                      "and 45 at (w=3, d_par=1)"):
        assert conv3d_latency(3, 3) == 63
        assert conv3d_latency(3, 1) == 45


def test_criterion_2_conv1_1_cycle_budget(conv_chain_sims):
    sim = conv_chain_sims[1]
    cycles = sim.end_to_end_cycles
    ms = time_ms(cycles)
    with criterion(2, f"conv1_1 simulation {cycles} cycles ({ms:.3f} ms at "
                      f"120 MHz) within [3211264, 3243000], "
                      f"reference 26.764 ms"):
        assert sim.saturation_events == 0
        assert CONV1_1_STEADY <= cycles <= 3_243_000
        assert abs(ms - 26.764) / 26.764 <= 0.01


def test_criterion_3_consecutive_conv_fusion(conv_chain_sims):
    totals = [conv_chain_sims[n].end_to_end_cycles for n in range(1, 5)]
    steps = [b - a for a, b in zip(totals, totals[1:])]
    with criterion(3, f"4 fused convolutions: per-layer cycle increments "
                      f"{steps} each below 2% of the single-layer "
                      f"{totals[0]} (reference steps ~0.9%)"):
        for step in steps:
            assert 0 < step < 0.02 * totals[0]


def test_criterion_4_dsp_accounting():
    net = vgg_prefix_7()
    dpar = ",".join(str(x) for x in VGG7_DEFAULT_DPAR)
    two_layer_group = parse_plan("0-2|3|4|5|6", net, dpar)
    group_dsp = group_costs(two_layer_group, net)[0].dsp
    full = analyze(parse_plan("0-6", net, dpar), net).dsp
    with criterion(4, f"DSP: first fused group {group_dsp} within 0.5% of the "
                      f"measured 605; full fusion {full} == 2907"):
        assert abs(group_dsp - 605) / 605 <= 0.005
        assert full == 2907


def test_criterion_5_traffic_accounting():
    net = vgg_prefix_7()
    dpar = ",".join(str(x) for x in VGG7_DEFAULT_DPAR)
    fused = parse_plan("0-6", net, dpar)
    split = parse_plan("0|1|2|3|4|5|6", net, dpar)
    full_mb = traffic_bytes(fused, net, 4)["total"] / MEGABYTE
    reread_mb = traffic_bytes(fused, net, 4, True)["total"] / MEGABYTE
    none_mb = traffic_bytes(split, net, 1)["total"] / MEGABYTE
    ratio = 77.14 / full_mb
    with criterion(5, f"traffic: full fusion {full_mb:.3f} MB in [6.0, 6.1] "
                      f"(reference 6.69, documented gap), {reread_mb:.2f} MB "
                      f">= 6.5 with per-depth-group weight re-reads, no fusion "
                      f"{none_mb:.2f} MB in [23.0, 23.3] (reference 23.54), "
                      f"{ratio:.1f}x reduction vs 77.14 MB >= 11x"):
        assert 6.0 <= full_mb <= 6.1
        assert reread_mb >= 6.5
        assert 23.0 <= none_mb <= 23.3
        assert ratio >= 11.0


def test_criterion_6_seven_layer_cycles(vgg7_sim):
    cycles = vgg7_sim.end_to_end_cycles
    stamps = [s.last_out for s in vgg7_sim.stamps_per_group[0]]
    with criterion(6, f"7-layer fused simulation {cycles} cycles "
                      f"(reference 5034k, stall mechanism not reproduced) in "
                      f"[3.2e6, 5.3e6], >= conv1_1 bottleneck, layer endpoint "
                      f"stamps strictly increasing"):
        assert 3_200_000 <= cycles <= 5_300_000
        assert cycles >= CONV1_1_STEADY
        assert all(b > a for a, b in zip(stamps, stamps[1:]))


def test_criterion_7_oracle_equivalence(reduced_sweep):
    # 104 randomized small networks/plans plus 10 seeds on the reference
    # test geometry, then all 64 partitions of the reduced-scale stack
    checked = 0
    small = small_test_network()
    for seed in range(10):
        tensor = generate_tensor(small.input_dims, seed * 13 + 1)
        banks = generate_weights(small, seed * 13 + 2)
        plan = random_plan(small, seed)
        golden_outs, gsat = run_network(small, tensor, banks)
        sim = simulate_plan(small, tensor, banks, plan)
        assert gsat == 0 and sim.saturation_events == 0
        assert all(a.equals(b) for a, b in zip(sim.layer_outputs, golden_outs))
        checked += 1
    for seed in range(104):
        net = random_network(seed)
        tensor = generate_tensor(net.input_dims, seed * 7 + 1)
        banks = generate_weights(net, seed * 7 + 2)
        plan = random_plan(net, seed)
        golden_outs, gsat = run_network(net, tensor, banks)
        sim = simulate_plan(net, tensor, banks, plan)
        assert gsat == 0 and sim.saturation_events == 0
        assert all(a.equals(b) for a, b in zip(sim.layer_outputs, golden_outs))
        checked += 1

    net, golden_outs, sims = reduced_sweep
    for groups, sim in sims.items():
        assert sim.saturation_events == 0
        assert all(a.equals(b) for a, b in zip(sim.layer_outputs, golden_outs)), groups
    with criterion(7, f"oracle equivalence: {checked} randomized seeded "
                      f"networks/plans and all 64 reduced-scale partitions "
                      f"bit-identical to the layer-by-layer reference"):
        assert checked >= 110
        assert len(sims) == 64


def test_criterion_8_tradeoff_shape():
    net = vgg_prefix_7()
    budget = ResourceBudget(dsp_max=3600)
    parts = fold_partitions(net, fit_groups(net, budget), budget)
    dsp, traffic, front = parts.dsp, parts.traffic_bytes, parts.front()
    singles, fused = 63, 0  # partitions by cut bitmask: every cut, no cut
    with criterion(8, "trade-off shape: merging adjacent groups never lowers "
                      "DSP or raises traffic over all 64 partitions; extremes "
                      "align with the no-fusion (min DSP, max traffic) and "
                      "all-fused (max DSP, min traffic) plans"):
        assert len(parts.feasible) == 64 and not len(parts.over_budget)
        for k in range(64):
            groups = parts.groups(k)
            for i in range(len(groups) - 1):
                # merging groups i and i + 1 removes the cut after group i
                merged = k & ~(1 << groups[i][1])
                assert parts.groups(merged) == (groups[:i] + (
                    (groups[i][0], groups[i + 1][1]),) + groups[i + 2:])
                assert dsp[merged] >= dsp[k]
                assert traffic[merged] <= traffic[k]
        # all-fused anchors the high-DSP/low-traffic end of the front
        assert parts.groups(front[-1]) == ((0, 6),)
        assert dsp[fused] == dsp.max()
        assert traffic[fused] == traffic.min()
        # no fusion anchors the other direction: minimum DSP (the front's
        # left end) and the maximum traffic of any partition. It is not
        # itself a front member: partial fusion reaches the same DSP with
        # strictly less traffic.
        assert dsp[singles] == dsp.min() == dsp[front[0]]
        assert traffic[singles] == traffic.max()


def test_criterion_9_byte_identical_reruns(tmp_path):
    net_path = tmp_path / "net.json"
    net_path.write_text(serialize_network(small_test_network()))
    assert main(["gen", "--network", str(net_path), "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    sim_args = ["simulate", "--network", str(net_path),
                "--input", str(tmp_path / "input.dclf"),
                "--weights", str(tmp_path / "weights.bin"), "--plan", "0-1|2"]
    blobs = []
    for sub in ("s1", "s2"):
        assert main(sim_args + ["--out", str(tmp_path / sub)]) == 0
        blobs.append(((tmp_path / sub / "report.json").read_bytes(),
                      (tmp_path / sub / "final.dclf").read_bytes()))
    dse_args = ["dse", "--network", str(net_path), "--dsp-max", "3600"]
    for sub in ("d1", "d2"):
        assert main(dse_args + ["--out", str(tmp_path / sub)]) == 0
    d1 = ((tmp_path / "d1" / "dse.csv").read_bytes(),
          (tmp_path / "d1" / "report.json").read_bytes())
    d2 = ((tmp_path / "d2" / "dse.csv").read_bytes(),
          (tmp_path / "d2" / "report.json").read_bytes())
    with criterion(9, "determinism: repeated simulate and dse invocations "
                      "produce byte-identical reports, tensors, and CSVs"):
        assert blobs[0] == blobs[1]
        assert d1 == d2


def test_partition_sweep_cycle_bounds(reduced_sweep):
    # supporting invariants on the cached sweep (not numbered criteria):
    # the simulator is bounded below by the plan's throughput floor and
    # above by the serial-fill analytical estimate, and merging adjacent
    # groups never increases simulated cycles
    net, _, sims = reduced_sweep
    for groups, sim in sims.items():
        plan = validate_plan(FusionPlan(groups, full_depth_parallel(net)), net)
        floor = sum(c.bottleneck for c in group_costs(plan, net))
        assert floor <= sim.end_to_end_cycles <= analyze(plan, net).total_estimated_cycles
        for i in range(len(groups) - 1):
            merged = (groups[:i] + ((groups[i][0], groups[i + 1][1]),)
                      + groups[i + 2:])
            assert sims[merged].end_to_end_cycles <= sim.end_to_end_cycles
