"""Fusion-plan enumeration, depth-parallelism assignment, and the
traffic-vs-DSP trade-off curve."""

from __future__ import annotations

import math
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


def _fit_group(group, net: NetworkSpec, budget: ResourceBudget):
    """(d_par, GroupCost) of one group fitted alone. Iterative decomposition:
    start from full depth parallelism and, while the group exceeds the DSP
    budget, halve the d_par of its layer whose halving least increases the
    group's steady cycles (ties to the deepest layer). Odd depths (3 at the
    network input) are never split, so the fit may stay over budget. Layers
    outside the group keep full depth parallelism."""
    dpar = list(full_depth_parallel(net))
    cost = costmodel.group_cost(group, dpar, net)
    convs = [(pos, li) for pos, li in enumerate(net.conv_indices())
             if group[0] <= li <= group[1]]
    while cost.dsp > budget.dsp_max:
        trials = []
        for pos, li in convs:
            if dpar[pos] % 2 == 0:
                trial = list(dpar)
                trial[pos] //= 2
                trials.append((costmodel.group_cost(group, trial, net), -li, trial))
        if not trials:
            break
        cost, _, dpar = min(trials, key=lambda t: (t[0].steady_cycles, t[1]))
    return dpar, cost


def _compose(groups, fits, budget: ResourceBudget) -> FusionPlan:
    """The plan of groups from their fits: each layer takes the d_par of its
    own group's fit, the per-layer minimum since a fit halves only its own
    layers. Infeasible when the widest fit (earliest on ties) is over budget."""
    widest = max(range(len(fits)), key=lambda i: fits[i][1].dsp)
    if fits[widest][1].dsp > budget.dsp_max:
        raise BudgetError(
            f"infeasible budget: group {groups[widest]} needs {fits[widest][1].dsp} DSP "
            f"with no layer left to decompose (budget {budget.dsp_max})")
    return FusionPlan(tuple(groups), tuple(map(min, zip(*(d for d, _ in fits)))))


def assign_depth_parallelism(groups, net: NetworkSpec,
                             budget: ResourceBudget) -> FusionPlan:
    """Fit each group of a plan to the DSP budget (see _fit_group) and
    compose them; raises BudgetError if a group cannot fit."""
    plan = validate_plan(FusionPlan(tuple(groups), full_depth_parallel(net)), net)
    return _compose(plan.groups, [_fit_group(g, net, budget) for g in plan.groups],
                    budget)


def pareto_front(points) -> list:
    """Non-dominated points in the (dsp, traffic) objective pair, ordered by
    ascending dsp (ties by traffic, then plan expression). One pass over the
    points in that order keeps a point when its traffic is the least at its
    own dsp and below the least at every smaller dsp (Kung, Luccio and
    Preparata, JACM 1975)."""
    if not points:
        raise ValidationError("pareto_front requires at least one point")
    front = []
    below = least = math.inf  # least traffic at smaller dsp / at this dsp
    dsp = None
    for p in sorted(points, key=lambda p: (p.dsp, p.traffic_bytes, plan_to_text(p.plan))):
        if p.dsp != dsp:
            dsp, below, least = p.dsp, min(below, least), p.traffic_bytes
        if p.traffic_bytes == least < below:
            front.append(p)
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
    """Evaluate every contiguous partition under the budget. Each of the
    n(n+1)/2 possible groups is fitted and priced once; a partition's figures
    are folds over its groups' fits.

    Returns (points, infeasible) where points is a list of PlanPoint in
    enumeration order and infeasible a list of (groups, reason) for
    partitions the budget cannot accommodate.
    """
    n = len(net.layers)
    partitions = enumerate_plans(n)
    validate_plan(FusionPlan(((0, n - 1),), full_depth_parallel(net)), net)
    fits = {(a, b): _fit_group((a, b), net, budget)
            for a in range(n) for b in range(a, n)}
    points = []
    infeasible = []
    for groups in partitions:
        group_fits = [fits[g] for g in groups]
        try:
            plan = _compose(groups, group_fits, budget)
        except BudgetError as e:
            infeasible.append((groups, str(e)))
            continue
        dsp, bits, _, est = costmodel._plan_totals([c for _, c in group_fits])
        traffic = costmodel.traffic_bytes(plan, net, bytes_per_value,
                                          reread_weights_per_depth_group)
        points.append(PlanPoint(plan, dsp, traffic["total"], est, bits))
    return points, infeasible
