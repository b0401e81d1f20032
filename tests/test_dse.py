import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fusedconv import costmodel
from fusedconv.config import ConvSpec, Dims, FusionPlan, GeometryError, NetworkSpec, \
    PoolSpec, ValidationError, full_depth_parallel, output_dims, plan_to_text, \
    validate_plan
from fusedconv.costmodel import ResourceBudget, analyze
from fusedconv.dse import (BudgetError, PlanPoint, assign_depth_parallelism,
                           enumerate_plans, fit_groups, fold_partitions, front_indices,
                           nested_chain, pareto_front, sweep)
from fusedconv.networks import vgg_prefix_7


@pytest.fixture(scope="module")
def net():
    return vgg_prefix_7()


def test_enumerate_counts():
    assert len(enumerate_plans(7)) == 64
    assert enumerate_plans(1) == [((0, 0),)]
    assert sorted(enumerate_plans(3)) == sorted([
        (((0, 2),)), ((0, 0), (1, 2)), ((0, 1), (2, 2)),
        ((0, 0), (1, 1), (2, 2))])
    with pytest.raises(ValidationError, match="enumeration bound"):
        enumerate_plans(21)


def bitmask_plans(n_layers):
    """Reference order: one partition per cut bitmask, bit i a cut after
    layer i, in ascending bitmask order."""
    out = []
    for cuts in range(1 << (n_layers - 1)):
        groups, start = [], 0
        for i in range(n_layers - 1):
            if cuts & (1 << i):
                groups.append((start, i))
                start = i + 1
        out.append(tuple(groups) + ((start, n_layers - 1),))
    return out


def test_enumeration_follows_cut_bitmask_order():
    for n in range(1, 12):
        assert enumerate_plans(n) == bitmask_plans(n)


def test_enumerated_partitions_are_valid(net):
    for groups in enumerate_plans(7):
        plan = FusionPlan(groups, full_depth_parallel(net))
        validate_plan(plan, net)


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
        floor = sum(c.bottleneck for c in costmodel.group_costs(plan, net))
        report = analyze(plan, net)
        est = report.total_estimated_cycles
        assert report.dsp <= dsp_max
        assert est >= floor
        if prev is not None:
            assert floor >= prev
            assert est >= prev_est - 9 * 7 * len(net.conv_indices())
        prev = floor
        prev_est = est


def test_pareto_front_single_and_pair():
    one = NetworkSpec(Dims(4, 4, 1), (ConvSpec(1, 1),))
    plan = validate_plan(FusionPlan(((0, 0),), (1,)), one)
    a = PlanPoint(plan, dsp=10, traffic_bytes=100, est_cycles=1, buffer_bits=1)
    assert pareto_front([a]) == [a]
    b = PlanPoint(plan, dsp=20, traffic_bytes=50, est_cycles=1, buffer_bits=1)
    assert pareto_front([a, b]) == [a, b]  # mutually non-dominating
    c = PlanPoint(plan, dsp=25, traffic_bytes=60, est_cycles=1, buffer_bits=1)
    assert pareto_front([a, b, c]) == [a, b]  # c dominated by b


def quadratic_front(points):
    """Reference front: every point no other point dominates, compared pair
    by pair, in (dsp, traffic, plan expression) order."""
    def dominates(q, p):
        return (q.dsp <= p.dsp and q.traffic_bytes <= p.traffic_bytes
                and (q.dsp < p.dsp or q.traffic_bytes < p.traffic_bytes))
    front = [p for p in points if not any(dominates(q, p) for q in points)]
    return sorted(front, key=lambda p: (p.dsp, p.traffic_bytes, plan_to_text(p.plan)))


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 7)),
                min_size=1, max_size=40))
def test_pareto_front_matches_quadratic_reference(triples):
    # small ranges force ties in dsp, in traffic and in both; equal plans
    # give duplicate points
    plans = [FusionPlan(g, ()) for g in enumerate_plans(4)]
    points = [PlanPoint(plans[i], dsp, traffic, 1, 1) for dsp, traffic, i in triples]
    assert pareto_front(points) == quadratic_front(points)


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
    points, _ = sweep(net, ResourceBudget(dsp_max=3600))
    front = pareto_front(points)
    assert pareto_front(front) == front


def test_sweep_extreme_directions(net):
    points, infeasible = sweep(net, ResourceBudget(dsp_max=3600))
    assert len(points) == 64 and not infeasible
    by_groups = {p.plan.groups: p for p in points}
    singles = by_groups[tuple((i, i) for i in range(7))]
    fused = by_groups[((0, 6),)]
    front = pareto_front(points)
    # all-fused: maximum dsp, minimum traffic; it anchors the front
    assert fused.dsp == max(p.dsp for p in points)
    assert fused.traffic_bytes == min(p.traffic_bytes for p in points)
    assert front[-1].plan.groups == ((0, 6),)
    # all-singleton: minimum dsp, maximum traffic direction
    assert singles.dsp == min(p.dsp for p in points) == front[0].dsp
    assert singles.traffic_bytes == max(p.traffic_bytes for p in points)


def test_nested_chain_monotone(net):
    chain = nested_chain(7)
    assert chain[0] == tuple((i, i) for i in range(7))
    assert chain[-1] == ((0, 6),)
    reports = [analyze(FusionPlan(groups, full_depth_parallel(net)), net)
               for groups in chain]
    for a, b in zip(reports, reports[1:]):
        assert b.dsp >= a.dsp
        assert b.traffic["total"] <= a.traffic["total"]


def test_sweep_point_matches_analyze(net):
    points, _ = sweep(net, ResourceBudget(dsp_max=1000))
    p = next(p for p in points if p.plan.groups == ((0, 2), (3, 6)))
    report = analyze(p.plan, net)
    assert p.dsp == report.dsp == max(c.dsp for c in costmodel.group_costs(p.plan, net))
    assert p.traffic_bytes == report.traffic["total"]
    assert p.est_cycles == report.total_estimated_cycles
    assert p.buffer_bits == report.buffer_bits


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


def reference_assignment(groups, net, budget):
    """The plan-level halving loop: while the widest group (earliest on ties)
    exceeds the budget, halve the d_par of its layer whose halving least
    increases the group's steady cycles, ties to the deepest layer."""
    conv_idx = net.conv_indices()
    dpar = list(full_depth_parallel(net))
    plan = validate_plan(FusionPlan(tuple(groups), tuple(dpar)), net)
    costs = costmodel.group_costs(plan, net)
    while True:
        gi = max(range(len(costs)), key=lambda i: costs[i].dsp)
        if costs[gi].dsp <= budget.dsp_max:
            return FusionPlan(plan.groups, tuple(dpar))
        group = plan.groups[gi]
        best = None
        for pos, li in enumerate(conv_idx):
            if not (group[0] <= li <= group[1]) or dpar[pos] % 2 != 0:
                continue
            trial = list(dpar)
            trial[pos] //= 2
            trial_cost = costmodel.group_cost(group, trial, net)
            key = (trial_cost.steady_cycles - costs[gi].steady_cycles, -li)
            if best is None or key < best[0]:
                best = (key, pos, trial_cost)
        if best is None:
            raise BudgetError(
                f"infeasible budget: group {group} needs {costs[gi].dsp} DSP with no "
                f"layer left to decompose (budget {budget.dsp_max})")
        dpar[best[1]] //= 2
        costs[gi] = best[2]


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


def reference_sweep(net, budget, bytes_per_value, reread):
    points, infeasible = [], []
    for groups in enumerate_plans(len(net.layers)):
        try:
            plan = reference_assignment(groups, net, budget)
        except BudgetError as e:
            infeasible.append((groups, str(e)))
            continue
        cost = costmodel.analyze(plan, net, bytes_per_value,
                                 reread_weights_per_depth_group=reread)
        points.append(PlanPoint(plan, cost.dsp, cost.traffic["total"],
                                cost.total_estimated_cycles, cost.buffer_bits))
    return points, infeasible


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


def vgg16_stack(n_layers):
    """The first n_layers of VGG-16's 18-layer conv/pool stack at 224x224."""
    layers = []
    for filters, n_conv in ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3)):
        layers += [ConvSpec(3, filters, 1, 1, relu=True)] * n_conv
        layers.append(PoolSpec(2, 2))
    return NetworkSpec(Dims(224, 224, 3), tuple(layers[:n_layers]))


@pytest.mark.parametrize("dsp_max,n_infeasible", [(3600, 0), (288, 0), (50, 74)])
def test_sweep_matches_reference_on_vgg16_prefix(dsp_max, n_infeasible):
    # 11 layers: fits that halve through several convs, ties in steady
    # cycles across convs of equal work, and groups the budget cannot fit
    net = vgg16_stack(11)
    budget = ResourceBudget(dsp_max=dsp_max)
    points, infeasible = sweep(net, budget)
    assert len(points) + len(infeasible) == 1024
    assert len(infeasible) == n_infeasible
    assert (points, infeasible) == reference_sweep(net, budget, 4, False)


def test_sweep_counts_on_vgg16_conv_stack():
    points, infeasible = sweep(vgg16_stack(18), ResourceBudget())
    assert (len(points), len(infeasible), len(pareto_front(points))) == (131_072, 0, 11)


def test_sweep_refuses_unsupported_bytes_per_value(net):
    with pytest.raises(ValidationError, match="bytes_per_value must be 1, 2, or 4"):
        sweep(net, ResourceBudget(), bytes_per_value=3)


@given(dse_cases())
def test_chain_points_are_the_feasible_merge_chain(case):
    net, dsp_max = case
    budget = ResourceBudget(dsp_max=dsp_max)
    points, _ = sweep(net, budget)
    by_groups = {p.plan.groups: p for p in points}
    parts = fold_partitions(net, fit_groups(net, budget), budget)
    chain = parts.chain()
    assert parts.points(chain, map(parts.groups, chain)) == \
        [by_groups[g] for g in nested_chain(len(net.layers)) if g in by_groups]


@pytest.mark.parametrize("n_layers", range(1, 12))
def test_folded_plan_texts_match_plan_to_text(n_layers):
    # index k of the fold is the partition with cut bitmask k
    net = vgg16_stack(n_layers)
    parts = fold_partitions(net, fit_groups(net, ResourceBudget()), ResourceBudget())
    plans = enumerate_plans(n_layers)
    assert [parts.groups(k) for k in range(len(plans))] == plans
    assert parts.text == [plan_to_text(FusionPlan(g, ())) for g in plans]


def test_sweep_refuses_more_layers_than_the_enumeration_bound():
    net = NetworkSpec(Dims(4, 4, 2), (ConvSpec(1, 2),) * 21)
    with pytest.raises(ValidationError, match="n_layers 21 exceeds enumeration bound 20"):
        sweep(net, ResourceBudget())


@given(dse_cases(), st.sampled_from([1, 2, 4]), st.booleans())
def test_sweep_matches_plan_level_reference(case, bytes_per_value, reread):
    net, dsp_max = case
    budget = ResourceBudget(dsp_max=dsp_max)
    points, infeasible = sweep(net, budget, bytes_per_value, reread)
    assert (points, infeasible) == reference_sweep(net, budget, bytes_per_value, reread)
    for p in points:
        cost = costmodel.analyze(p.plan, net, bytes_per_value,
                                 reread_weights_per_depth_group=reread)
        assert (p.dsp, p.traffic_bytes, p.est_cycles, p.buffer_bits) == \
            (cost.dsp, cost.traffic["total"], cost.total_estimated_cycles,
             cost.buffer_bits)
