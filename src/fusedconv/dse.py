"""Fusion-plan enumeration, depth-parallelism assignment, and the
traffic-vs-DSP trade-off curve."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

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
    """All 2^(n_layers-1) contiguous partitions, as tuples of (start, end),
    in the order of the cut bitmask (bit i: a cut after layer i). The
    partitions of layers 0..j are those of 0..i-1, each extended by group
    (i, j), for i = 0..j in turn."""
    if n_layers < 1:
        raise ValidationError("n_layers must be >= 1")
    if n_layers > ENUMERATION_LIMIT:
        raise ValidationError(
            f"n_layers {n_layers} exceeds enumeration bound {ENUMERATION_LIMIT}")
    prefixes = [[()]]
    for j in range(n_layers):
        prefixes.append([p + ((i, j),) for i in range(j + 1) for p in prefixes[i]])
    return prefixes[-1]


class BudgetError(ValidationError):
    """No depth-parallelism assignment fits a plan in the DSP budget."""


def _fit_group(group, net: NetworkSpec, budget: ResourceBudget,
               reread_weights_per_depth_group: bool = False):
    """(d_par of the group's convs, GroupCost) of one group fitted alone.
    Iterative decomposition: start from full depth parallelism and, while the
    group exceeds the DSP budget, halve the d_par of its conv whose halving
    least increases the group's steady cycles (ties to the deepest layer).
    Odd depths (3 at the network input) are never split, so the fit may stay
    over budget. Each trial is priced from per-conv integers: k^2 * d_par DSP
    and h_out * w_out * filters * (depth / d_par) steady cycles."""
    a, b = group
    conv_idx = net.conv_indices()
    lo, hi = bisect_left(conv_idx, a), bisect_right(conv_idx, b)
    full = full_depth_parallel(net)
    dims = net.layer_dims()
    taps = [net.layers[li].kernel ** 2 for li in conv_idx[lo:hi]]
    work = [dims[li].height * dims[li].width * net.layers[li].filters
            for li in conv_idx[lo:hi]]
    depth = full[lo:hi]
    dpar = list(depth)
    dsp = sum(t * d for t, d in zip(taps, dpar))
    while dsp > budget.dsp_max:
        steady = [w * (d // p) for w, d, p in zip(work, depth, dpar)]
        trials = [(max(2 * s if k == i else s for k, s in enumerate(steady)),
                   -conv_idx[lo + i], i)
                  for i in range(len(dpar)) if dpar[i] % 2 == 0]
        if not trials:
            break
        i = min(trials)[2]
        dsp -= taps[i] * dpar[i] // 2
        dpar[i] //= 2
    return tuple(dpar), costmodel.group_cost(group, full[:lo] + tuple(dpar) + full[hi:],
                                             net, reread_weights_per_depth_group)


def _budget_reason(groups, dsp, budget: ResourceBudget) -> str:
    """Why a partition, with per-group fitted DSP dsp, cannot run: its widest
    group (the earliest on ties) is over budget."""
    widest = dsp.index(max(dsp))
    return (f"infeasible budget: group {groups[widest]} needs {dsp[widest]} DSP "
            f"with no layer left to decompose (budget {budget.dsp_max})")


def assign_depth_parallelism(groups, net: NetworkSpec,
                             budget: ResourceBudget) -> FusionPlan:
    """Fit each group of a plan to the DSP budget (see _fit_group) and join
    the fits; raises BudgetError if a group cannot fit."""
    plan = validate_plan(FusionPlan(tuple(groups), full_depth_parallel(net)), net)
    fits = [_fit_group(g, net, budget) for g in plan.groups]
    dsp = [cost.dsp for _, cost in fits]
    if max(dsp) > budget.dsp_max:
        raise BudgetError(_budget_reason(plan.groups, dsp, budget))
    return FusionPlan(plan.groups, sum((dpar for dpar, _ in fits), ()))


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
    for p in sorted(points, key=attrgetter("dsp", "traffic_bytes")):
        if p.dsp != dsp:
            dsp, below, least = p.dsp, min(below, least), p.traffic_bytes
        if p.traffic_bytes == least < below:
            front.append(p)
    # points equal in (dsp, traffic) are kept or dropped together, so only
    # the front needs the plan-expression tie-break
    return sorted(front, key=lambda p: (p.dsp, p.traffic_bytes, plan_to_text(p.plan)))


def nested_chain(n_layers: int) -> list:
    """The front-to-back merge sequence: all singletons, then the first two
    layers merged, and so on until one fused group."""
    chain = [tuple((i, i) for i in range(n_layers))]
    for merged in range(2, n_layers + 1):
        groups = [(0, merged - 1)] + [(i, i) for i in range(merged, n_layers)]
        chain.append(tuple(groups))
    return chain


def chain_points(points, n_layers: int) -> list:
    """The points of nested_chain(n_layers) among `points`, partitions in
    enumeration order with the infeasible ones left out (as fold_partitions
    returns them), each found by bisection on its index there: its cut
    bitmask, bit i a cut after layer i."""
    def cuts(groups):
        return sum(1 << b for _, b in groups[:-1])
    found = []
    for groups in nested_chain(n_layers):
        i = bisect_left(points, cuts(groups), key=lambda p: cuts(p.plan.groups))
        if i < len(points) and points[i].plan.groups == groups:
            found.append(points[i])
    return found


def fit_groups(net: NetworkSpec, budget: ResourceBudget,
               reread_weights_per_depth_group: bool = False) -> dict:
    """Each of the n(n+1)/2 contiguous groups (a, b) of the network fitted
    alone and priced once: (a, b) -> (d_par of its convs, GroupCost)."""
    n = len(net.layers)
    validate_plan(FusionPlan(((0, n - 1),), full_depth_parallel(net)), net)
    return {(a, b): _fit_group((a, b), net, budget, reread_weights_per_depth_group)
            for a in range(n) for b in range(a, n)}


def fold_partitions(net: NetworkSpec, fits: dict, budget: ResourceBudget,
                    bytes_per_value: int = 4):
    """Every contiguous partition's figures as a fold over its groups' fits,
    built by enumerate_plans' recurrence: d_par joins the groups' fits, DSP
    and buffer bits are the maximum over the groups, the estimate and traffic
    the sum. A partition is infeasible when its widest group is over budget.
    Returns (points, infeasible) as sweep does."""
    costmodel.check_bytes_per_value(bytes_per_value)
    partitions = enumerate_plans(len(net.layers))
    prefixes = [[((), 0, 0, 0, 0)]]  # per prefix: (d_par, dsp, bits, est, traffic)
    for j in range(len(net.layers)):
        level = []
        for i in range(j + 1):
            dpar, c = fits[i, j]
            dsp, bits, est = c.dsp, c.buffer_bits, c.bottleneck + c.fill_cycles
            traffic = c.input_values + c.output_values + c.weight_values
            level += [(pd + dpar, pdsp if pdsp > dsp else dsp,
                       pbits if pbits > bits else bits, pest + est, ptraffic + traffic)
                      for pd, pdsp, pbits, pest, ptraffic in prefixes[i]]
        prefixes.append(level)
    points, infeasible = [], []
    for groups, (dpar, dsp, bits, est, traffic) in zip(partitions, prefixes[-1]):
        if dsp > budget.dsp_max:
            infeasible.append((groups, _budget_reason(
                groups, [fits[g][1].dsp for g in groups], budget)))
        else:
            points.append(PlanPoint(FusionPlan(groups, dpar), dsp,
                                    traffic * bytes_per_value, est, bits))
    return points, infeasible


def sweep(net: NetworkSpec, budget: ResourceBudget, bytes_per_value: int = 4,
          reread_weights_per_depth_group: bool = False):
    """Evaluate every contiguous partition under the budget: fit_groups, then
    fold_partitions. Returns (points, infeasible): the PlanPoints in
    enumeration order and (groups, reason) for each partition over budget."""
    return fold_partitions(net, fit_groups(net, budget, reread_weights_per_depth_group),
                           budget, bytes_per_value)
