import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusedconv import costmodel
from fusedconv.config import ConvSpec, Dims, FusionPlan, GeometryError, NetworkSpec, \
    PoolSpec, ValidationError, full_depth_parallel, output_dims, plan_to_text, \
    validate_plan
from fusedconv.costmodel import ResourceBudget, analyze
from fusedconv.dse import (BudgetError, assign_depth_parallelism, budget_reason,
                           fit_groups, fold_partitions, front_indices, nested_chain)
from fusedconv.networks import vgg_prefix_7

from conftest import vgg16_stack
from reference import bitmask_plans, quadratic_front, reference_assignment, \
    reference_sweep


@pytest.fixture(scope="module")
def net():
    return vgg_prefix_7()


def fold(net, budget, bytes_per_value=4, reread=False):
    return fold_partitions(net, fit_groups(net, budget, reread), budget, bytes_per_value)


def test_enumerate_counts(net):
    assert len(fold(net, ResourceBudget()).text) == 64
    one = NetworkSpec(Dims(4, 4, 2), (ConvSpec(1, 2),))
    assert fold(one, ResourceBudget()).groups(0) == ((0, 0),)
    three = fold(NetworkSpec(Dims(4, 4, 2), (ConvSpec(1, 2),) * 3), ResourceBudget())
    assert sorted(three.groups(k) for k in range(len(three.text))) == sorted([
        (((0, 2),)), ((0, 0), (1, 2)), ((0, 1), (2, 2)),
        ((0, 0), (1, 1), (2, 2))])


def test_enumerated_partitions_are_valid(net):
    # at this budget the fits halve, so each partition's joined d_par is
    # checked too
    parts = fold(net, ResourceBudget(dsp_max=1000))
    for k in range(64):
        validate_plan(FusionPlan(parts.groups(k), parts.depth_parallel(k)), net)


def test_assignment_reproduces_reference_dpar(net):
    plan = assign_depth_parallelism([(0, 6)], net, ResourceBudget(dsp_max=2907))
    assert plan.depth_parallel == (3, 64, 64, 128, 64)
    assert analyze(plan, net).dsp == 2907


def test_assignment_keeps_full_depth_when_budget_allows(net):
    plan = assign_depth_parallelism([(0, 6)], net, ResourceBudget(dsp_max=3600))
    assert plan.depth_parallel == (3, 64, 64, 128, 128)


def test_assignment_halves_single_conv():
    net = NetworkSpec(Dims(56, 56, 64), (ConvSpec(3, 8, 1, 1),))
    plan = assign_depth_parallelism([(0, 0)], net, ResourceBudget(dsp_max=288))
    assert plan.depth_parallel == (32,)


def test_assignment_infeasible_budget(net):
    # depth 3 cannot be halved, so conv1_1 alone needs 27 DSP
    with pytest.raises(ValidationError, match="infeasible"):
        assign_depth_parallelism([(0, 6)], net, ResourceBudget(dsp_max=20))


def test_assignment_cycles_monotone_in_budget(net):
    # shrinking the budget can only deepen the serial decomposition, so the
    # throughput floor never improves. (The full estimate tracks it to within
    # the fill term: a halved d_par slightly shortens the channel adder tree,
    # so the estimate itself may dip by a few pipeline-depth cycles.)
    prev = None
    prev_est = None
    for dsp_max in (3600, 2907, 2000, 1500, 1200, 800, 400, 200, 100, 50):
        try:
            plan = assign_depth_parallelism([(0, 6)], net, ResourceBudget(dsp_max=dsp_max))
        except ValidationError:
            break
        floor = costmodel.group_cost((0, 6), plan.depth_parallel, net).bottleneck
        report = analyze(plan, net)
        est = report.total_estimated_cycles
        assert report.dsp <= dsp_max
        assert est >= floor
        if prev is not None:
            assert floor >= prev
            assert est >= prev_est - 9 * 7 * len(net.conv_indices())
        prev = floor
        prev_est = est


def front_of(dsp, traffic, text=None):
    text = text or [""] * len(dsp)
    return front_indices(np.array(dsp, np.int64), np.array(traffic, np.int64),
                         text.__getitem__)


def test_pareto_front_single_and_pair():
    assert front_of([10], [100]) == [0]
    assert front_of([10, 20], [100, 50]) == [0, 1]  # mutually non-dominating
    assert front_of([10, 20, 25], [100, 50, 60]) == [0, 1]  # the third dominated


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 7)),
                min_size=1, max_size=40))
def test_pareto_front_matches_quadratic_reference(triples):
    # small ranges force ties in dsp, in traffic and in both; equal plans
    # give duplicate points
    texts = [plan_to_text(FusionPlan(g, ())) for g in bitmask_plans(4)]
    dsp, traffic, text = zip(*((d, t, texts[i]) for d, t, i in triples))
    assert front_of(dsp, traffic, text) == quadratic_front(dsp, traffic, text)


def one_pass_front(dsp, traffic, text):
    """Reference front: one pass over the points in (dsp, traffic) order keeps
    a point when its traffic is the least at its own dsp and below the least
    at every smaller dsp; the front is then ordered by (dsp, traffic, text)."""
    front = []
    below = least = math.inf  # least traffic at smaller dsp / at this dsp
    current = None
    for k in sorted(range(len(dsp)), key=lambda k: (dsp[k], traffic[k])):
        if dsp[k] != current:
            current, below, least = dsp[k], min(below, least), traffic[k]
        if traffic[k] == least < below:
            front.append(k)
    return sorted(front, key=lambda k: (dsp[k], traffic[k], text[k]))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from("ab")),
                min_size=1, max_size=60),
       st.sampled_from([1, 10**6, 2**40]))
def test_front_indices_match_one_pass_reference(triples, scale):
    # small ranges force ties in dsp, in traffic, in both and in text; the
    # scale takes traffic past int32
    dsp, traffic, text = zip(*triples)
    traffic = [t * scale for t in traffic]
    assert front_indices(np.array(dsp, np.int64), np.array(traffic, np.int64),
                         text.__getitem__) == one_pass_front(dsp, traffic, text)


def test_pareto_front_idempotent(net):
    parts = fold(net, ResourceBudget(dsp_max=3600))
    front = np.array(parts.front())
    assert front_indices(parts.dsp[front], parts.traffic_bytes[front],
                         lambda k: parts.text[front[k]]) == list(range(len(front)))


def test_sweep_extreme_directions(net):
    parts = fold(net, ResourceBudget(dsp_max=3600))
    assert len(parts.feasible) == 64 and not len(parts.over_budget)
    singles, fused = 63, 0  # every cut, no cut
    dsp, traffic, front = parts.dsp, parts.traffic_bytes, parts.front()
    # all-fused: maximum dsp, minimum traffic; it anchors the front
    assert dsp[fused] == dsp.max()
    assert traffic[fused] == traffic.min()
    assert parts.groups(front[-1]) == ((0, 6),)
    # all-singleton: minimum dsp, maximum traffic direction
    assert dsp[singles] == dsp.min() == dsp[front[0]]
    assert traffic[singles] == traffic.max()


def test_nested_chain_monotone(net):
    chain = nested_chain(7)
    assert chain[0] == tuple((i, i) for i in range(7))
    assert chain[-1] == ((0, 6),)
    reports = [analyze(FusionPlan(groups, full_depth_parallel(net)), net)
               for groups in chain]
    for a, b in zip(reports, reports[1:]):
        assert b.dsp >= a.dsp
        assert b.traffic["total"] <= a.traffic["total"]


def test_dpar_stays_power_of_two_times_odd_part(net):
    for dsp_max in (2907, 2000, 1000, 500):
        plan = assign_depth_parallelism([(0, 6)], net, ResourceBudget(dsp_max=dsp_max))
        din = net.layer_input_dims()
        for dp, li in zip(plan.depth_parallel, net.conv_indices()):
            depth = din[li].depth
            assert depth % dp == 0
            # halving-only: dp = depth / 2^j
            ratio = depth // dp
            assert ratio & (ratio - 1) == 0


def test_infeasible_reason_names_widest_group_earliest_on_ties():
    # depth 3 is odd, so every conv keeps d_par 3 at 27 DSP
    net = NetworkSpec(Dims(8, 8, 3), (ConvSpec(3, 3, 1, 1),) * 5)
    budget = ResourceBudget(dsp_max=50)
    with pytest.raises(BudgetError, match=r"group \(2, 4\) needs 81 DSP"):
        assign_depth_parallelism([(0, 1), (2, 4)], net, budget)
    with pytest.raises(BudgetError, match=r"group \(0, 1\) needs 54 DSP"):
        assign_depth_parallelism([(0, 1), (2, 3), (4, 4)], net, budget)


@pytest.mark.parametrize("dsp_max, dpar", [(78, (4, 2, 8)), (76, (2, 1, 8))])
def test_halving_ties_below_the_largest_conv_go_to_the_deepest(dsp_max, dpar):
    # halving either 1x1 conv leaves the 3x3 conv's 16,384 steady cycles the
    # largest, so both trials tie and the deeper 1x1 conv halves first,
    # though its own steady cycles are the larger of the two
    net = NetworkSpec(Dims(16, 16, 4),
                      (ConvSpec(1, 4), ConvSpec(1, 8), ConvSpec(3, 64, 1, 1)))
    budget = ResourceBudget(dsp_max=dsp_max)
    assert assign_depth_parallelism([(0, 2)], net, budget).depth_parallel == dpar
    assert reference_assignment([(0, 2)], net, budget).depth_parallel == dpar


def test_halving_prices_a_strided_conv_by_its_output_positions():
    # conv 0 has stride 2, so its 8x8 outputs, not its 16x16 inputs, set its
    # steady cycles (512). Once the 1x1 conv has halved to 1,024 cycles,
    # halving conv 0 leaves the group at 1,024 cycles and halving the 1x1
    # conv again would leave it at 2,048
    net = NetworkSpec(Dims(16, 16, 4), (ConvSpec(3, 8, 2, 1), ConvSpec(1, 8)))
    budget = ResourceBudget(dsp_max=39)
    assert assign_depth_parallelism([(0, 1)], net, budget).depth_parallel == (2, 4)
    assert reference_assignment([(0, 1)], net, budget).depth_parallel == (2, 4)


def check_fold_against_reference(net, budget, bytes_per_value=4, reread=False):
    """Every partition's columns, d_par, plan text and, over budget, reason
    from the fold, against reference_sweep's plan-by-plan figures."""
    parts = fold(net, budget, bytes_per_value, reread)
    reference = reference_sweep(net, budget, bytes_per_value, reread)
    assert len(parts.text) == len(reference)
    for k, (groups, plan, cost, reason) in enumerate(reference):
        assert parts.groups(k) == groups
        assert parts.text[k] == plan_to_text(FusionPlan(groups, ()))
        assert parts.n_groups[k] == len(groups)
        if reason is None:
            assert parts.dsp[k] <= budget.dsp_max
            assert parts.depth_parallel(k) == plan.depth_parallel
            assert (parts.dsp[k], parts.traffic_bytes[k], parts.est_cycles[k],
                    parts.buffer_bits[k]) == \
                (cost.dsp, cost.traffic["total"], cost.total_estimated_cycles,
                 cost.buffer_bits)
        else:
            assert parts.dsp[k] > budget.dsp_max
            assert budget_reason(groups, parts.fits, budget) == reason
    assert parts.feasible.tolist() == [k for k, r in enumerate(reference) if r[3] is None]
    return parts


@st.composite
def dse_cases(draw):
    """A small conv/pool network and a DSP budget from 1 to 3,600, mostly no
    larger than its fully fused group needs, so most draws halve or run out
    of layers to halve."""
    dims = Dims(draw(st.integers(1, 12)), draw(st.integers(1, 12)),
                draw(st.integers(1, 16)))
    input_dims = dims
    # powers of two halve all the way down; other counts stop at an odd part
    filters = st.one_of(st.sampled_from([2, 4, 8, 16, 32, 64]), st.integers(1, 64))
    layers = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 2)) < 2:
            kernel = draw(st.sampled_from([1, 3, 5]))
            layer = ConvSpec(kernel, draw(filters),
                             draw(st.sampled_from([1, 2])),
                             draw(st.integers(0, kernel // 2)))
        else:
            stride = draw(st.sampled_from([1, 2]))
            layer = PoolSpec(draw(st.integers(1, stride)), stride)
        try:
            dims = output_dims(dims, layer)
        except GeometryError:
            continue
        layers.append(layer)
    net = NetworkSpec(input_dims, tuple(layers or [ConvSpec(1, 4)]))
    fused = costmodel.group_cost((0, len(net.layers) - 1), full_depth_parallel(net), net)
    cap = min(3600, fused.dsp) if draw(st.integers(0, 3)) < 3 else 3600
    return net, draw(st.integers(1, max(1, cap)))


@pytest.mark.parametrize("dsp_max,n_infeasible", [(3600, 0), (288, 0), (50, 74)])
def test_sweep_matches_reference_on_vgg16_prefix(dsp_max, n_infeasible):
    # 11 layers: fits that halve through several convs, ties in steady
    # cycles across convs of equal work, and groups the budget cannot fit
    parts = check_fold_against_reference(vgg16_stack(11), ResourceBudget(dsp_max=dsp_max))
    assert len(parts.text) == 1024
    assert len(parts.over_budget) == n_infeasible


def test_sweep_counts_on_vgg16_conv_stack():
    parts = fold(vgg16_stack(18), ResourceBudget())
    assert (len(parts.feasible), len(parts.over_budget), len(parts.front())) == \
        (131_072, 0, 11)


def test_sweep_refuses_unsupported_bytes_per_value(net):
    with pytest.raises(ValidationError, match="bytes_per_value must be 1, 2, or 4"):
        fold(net, ResourceBudget(), bytes_per_value=3)


@given(dse_cases())
def test_chain_points_are_the_feasible_merge_chain(case):
    net, dsp_max = case
    budget = ResourceBudget(dsp_max=dsp_max)
    parts = fold(net, budget)
    feasible = []
    for groups in nested_chain(len(net.layers)):
        try:
            reference_assignment(groups, net, budget)
        except BudgetError:
            continue
        feasible.append(groups)
    assert [parts.groups(k) for k in parts.chain()] == feasible


@pytest.mark.parametrize("n_layers", range(1, 12))
def test_folded_plan_texts_match_plan_to_text(n_layers):
    # index k of the fold is the partition with cut bitmask k
    net = vgg16_stack(n_layers)
    parts = fold(net, ResourceBudget())
    plans = bitmask_plans(n_layers)
    assert [parts.groups(k) for k in range(len(plans))] == plans
    assert parts.text == [plan_to_text(FusionPlan(g, ())) for g in plans]


def test_sweep_refuses_more_layers_than_the_enumeration_bound():
    net = NetworkSpec(Dims(4, 4, 2), (ConvSpec(1, 2),) * 21)
    with pytest.raises(ValidationError, match="n_layers 21 exceeds enumeration bound 20"):
        fold(net, ResourceBudget())


@given(dse_cases(), st.sampled_from([1, 2, 4]), st.booleans())
def test_sweep_matches_plan_level_reference(case, bytes_per_value, reread):
    net, dsp_max = case
    check_fold_against_reference(net, ResourceBudget(dsp_max=dsp_max), bytes_per_value,
                                 reread)
