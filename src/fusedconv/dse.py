"""Fusion-plan enumeration, depth-parallelism assignment, and the
traffic-vs-DSP trade-off curve."""

from __future__ import annotations

from dataclasses import dataclass

from . import costmodel
from .config import FusionPlan, NetworkSpec, ValidationError, full_depth_parallel, \
    plan_to_text, validate_plan
from .costmodel import ResourceBudget

ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class PlanPoint:
    plan: FusionPlan
    dsp: int
    traffic_bytes: int
    est_cycles: int
    buffer_bits: int

    def dominates(self, other: "PlanPoint") -> bool:
        return (self.dsp <= other.dsp and self.traffic_bytes <= other.traffic_bytes
                and (self.dsp < other.dsp or self.traffic_bytes < other.traffic_bytes))


def enumerate_plans(n_layers: int) -> list:
    """All 2^(n_layers-1) contiguous partitions, as tuples of (start, end)."""
    if n_layers < 1:
        raise ValidationError("n_layers must be >= 1")
    if n_layers > ENUMERATION_LIMIT:
        raise ValidationError(
            f"n_layers {n_layers} exceeds enumeration bound {ENUMERATION_LIMIT}")
    out = []
    for cuts in range(1 << (n_layers - 1)):
        groups = []
        start = 0
        for i in range(n_layers - 1):
            if cuts & (1 << i):
                groups.append((start, i))
                start = i + 1
        groups.append((start, n_layers - 1))
        out.append(tuple(groups))
    return out


class BudgetError(ValidationError):
    """No depth-parallelism assignment fits a plan in the DSP budget."""


def assign_depth_parallelism(groups, net: NetworkSpec,
                             budget: ResourceBudget) -> FusionPlan:
    """Iterative decomposition: start from full depth parallelism and, while
    the widest group exceeds the DSP budget, halve the d_par of the layer in
    that group whose halving least increases the group's bottleneck steady
    cycles (ties to the deepest layer). Odd depths (3 at the network input)
    are never split."""
    conv_idx = net.conv_indices()
    dpar = list(full_depth_parallel(net))
    plan = validate_plan(FusionPlan(tuple(groups), tuple(dpar)), net)
    costs = costmodel.group_costs(plan, net)

    while True:
        gi = max(range(len(costs)), key=lambda i: costs[i].dsp)
        if costs[gi].dsp <= budget.dsp_max:
            return FusionPlan(plan.groups, tuple(dpar))
        group = plan.groups[gi]
        best = None  # ((increase, -layer_index), conv_pos, group cost)
        for pos, li in enumerate(conv_idx):
            if not (group[0] <= li <= group[1]) or dpar[pos] % 2 != 0:
                continue
            trial = list(dpar)
            trial[pos] //= 2
            # halving one layer's d_par changes only its own group's cost
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


def evaluate_plan(plan: FusionPlan, net: NetworkSpec, bytes_per_value: int = 4,
                  reread_weights_per_depth_group: bool = False) -> PlanPoint:
    cost = costmodel.analyze(plan, net, bytes_per_value,
                             reread_weights_per_depth_group=reread_weights_per_depth_group)
    return PlanPoint(plan=plan, dsp=cost.dsp, traffic_bytes=cost.traffic["total"],
                     est_cycles=cost.total_estimated_cycles,
                     buffer_bits=cost.buffer_bits)


def pareto_front(points) -> list:
    """Non-dominated points in the (dsp, traffic) objective pair, ordered by
    ascending dsp (ties by traffic, then plan expression)."""
    if not points:
        raise ValidationError("pareto_front requires at least one point")
    front = [p for p in points
             if not any(q.dominates(p) for q in points)]
    front.sort(key=lambda p: (p.dsp, p.traffic_bytes, plan_to_text(p.plan)))
    return front


def nested_chain(n_layers: int) -> list:
    """The front-to-back merge sequence: all singletons, then the first two
    layers merged, and so on until one fused group."""
    chain = [tuple((i, i) for i in range(n_layers))]
    for merged in range(2, n_layers + 1):
        groups = [(0, merged - 1)] + [(i, i) for i in range(merged, n_layers)]
        chain.append(tuple(groups))
    return chain


def sweep(net: NetworkSpec, budget: ResourceBudget, bytes_per_value: int = 4,
          reread_weights_per_depth_group: bool = False):
    """Evaluate every contiguous partition under the budget.

    Returns (points, infeasible) where points is a list of PlanPoint in
    enumeration order and infeasible a list of (groups, reason) for
    partitions the budget cannot accommodate.
    """
    points = []
    infeasible = []
    for groups in enumerate_plans(len(net.layers)):
        try:
            plan = assign_depth_parallelism(groups, net, budget)
        except BudgetError as e:
            infeasible.append((groups, str(e)))
            continue
        points.append(evaluate_plan(plan, net, bytes_per_value,
                                    reread_weights_per_depth_group))
    return points, infeasible
