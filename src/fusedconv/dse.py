"""Fusion-plan enumeration, depth-parallelism assignment, and the
traffic-vs-DSP trade-off curve: each contiguous group is fitted and priced
once, every partition folded from those prices into numpy columns, and the
Pareto front taken in one vectorized pass over them."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import costmodel
from .config import FusionPlan, NetworkSpec, ValidationError, extend_plan_texts, \
    full_depth_parallel, plan_to_text, validate_plan
from .costmodel import ResourceBudget

ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class PlanPoint:
    plan: FusionPlan
    dsp: int
    traffic_bytes: int
    est_cycles: int
    buffer_bits: int


def _check_enumerable(n_layers: int) -> None:
    if n_layers < 1:
        raise ValidationError("n_layers must be >= 1")
    if n_layers > ENUMERATION_LIMIT:
        raise ValidationError(
            f"n_layers {n_layers} exceeds enumeration bound {ENUMERATION_LIMIT}")


def enumerate_plans(n_layers: int) -> list:
    """All 2^(n_layers-1) contiguous partitions, as tuples of (start, end),
    in the order of the cut bitmask (bit i: a cut after layer i). The
    partitions of layers 0..j are those of 0..i-1, each extended by group
    (i, j), for i = 0..j in turn."""
    _check_enumerable(n_layers)
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
    and h_out * w_out * filters * (depth / d_par) steady cycles. Halving conv
    k leaves the group max(2 * steady[k], the largest steady cycles): no other
    conv exceeds the largest, and doubling the largest exceeds them all."""
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
        top = max(steady)
        trials = [(max(2 * s, top), -k) for k, s in enumerate(steady) if dpar[k] % 2 == 0]
        if not trials:
            break
        i = -min(trials)[1]
        dsp -= taps[i] * dpar[i] // 2
        dpar[i] //= 2
    return tuple(dpar), costmodel.group_cost(group, full[:lo] + tuple(dpar) + full[hi:],
                                             net, reread_weights_per_depth_group)


def budget_reason(groups, fits: dict, budget: ResourceBudget) -> str:
    """Why a partition cannot run: its widest fitted group (the earliest on
    ties) is over budget."""
    dsp = [fits[g][1].dsp for g in groups]
    widest = dsp.index(max(dsp))
    return (f"infeasible budget: group {groups[widest]} needs {dsp[widest]} DSP "
            f"with no layer left to decompose (budget {budget.dsp_max})")


def assign_depth_parallelism(groups, net: NetworkSpec,
                             budget: ResourceBudget) -> FusionPlan:
    """Fit each group of a plan to the DSP budget (see _fit_group) and join
    the fits; raises BudgetError if a group cannot fit."""
    plan = validate_plan(FusionPlan(tuple(groups), full_depth_parallel(net)), net)
    fits = {g: _fit_group(g, net, budget) for g in plan.groups}
    if max(cost.dsp for _, cost in fits.values()) > budget.dsp_max:
        raise BudgetError(budget_reason(plan.groups, fits, budget))
    return FusionPlan(plan.groups, sum((dpar for dpar, _ in fits.values()), ()))


def front_indices(dsp, traffic, text) -> list:
    """Indices of the non-dominated points of the int64 columns (dsp,
    traffic), by ascending dsp, then traffic, then text(index). In (dsp,
    traffic) order a point is kept when its traffic is the least at its dsp
    and below the least at every smaller dsp (Kung, Luccio and Preparata,
    JACM 1975): per-dsp minima, then their running minimum."""
    order = np.lexsort((traffic, dsp))
    d, t = dsp[order], traffic[order]
    first = np.r_[True, d[1:] != d[:-1]]  # the first point at each dsp
    least = t[first]
    below = np.minimum.accumulate(np.r_[np.iinfo(np.int64).max, least[:-1]])
    run = np.cumsum(first) - 1  # each point's dsp, as a rank
    keep = (t == least[run]) & (least < below)[run]
    # points equal in (dsp, traffic) are kept or dropped together, so only
    # the front needs the text tie-break
    return sorted(order[keep].tolist(), key=lambda k: (dsp[k], traffic[k], text(k)))


def pareto_front(points) -> list:
    """Non-dominated points in the (dsp, traffic) objective pair, ordered by
    ascending dsp (ties by traffic, then plan expression)."""
    if not points:
        raise ValidationError("pareto_front requires at least one point")
    columns = (np.array([getattr(p, a) for p in points], np.int64)
               for a in ("dsp", "traffic_bytes"))
    return [points[k] for k in front_indices(*columns, lambda k: plan_to_text(points[k].plan))]


def nested_chain(n_layers: int) -> list:
    """The front-to-back merge sequence: all singletons, then the first two
    layers merged, and so on until one fused group."""
    return [((0, m - 1),) + tuple((i, i) for i in range(m, n_layers))
            for m in range(1, n_layers + 1)]


class Partitions:
    """Every contiguous partition of a network, folded from its groups' fits:
    int64 columns and plan texts indexed by cut bitmask (bit i: a cut after
    layer i), which is enumerate_plans' order."""

    def __init__(self, fits, budget, columns, text):
        self.fits, self.budget, self.text = fits, budget, text
        self.dsp, self.buffer_bits, self.est_cycles, self.traffic_bytes, self.n_groups = \
            columns
        self.feasible = np.flatnonzero(self.dsp <= budget.dsp_max)
        self.over_budget = np.flatnonzero(self.dsp > budget.dsp_max)
        self.n_layers = len(text).bit_length()  # 2^(n-1) partitions

    def groups(self, cuts: int) -> tuple:
        ends = [i for i in range(self.n_layers - 1) if cuts >> i & 1] + [self.n_layers - 1]
        return tuple(zip([0] + [e + 1 for e in ends[:-1]], ends))

    def points(self, cuts: list, groups: list) -> list:
        """The partitions `cuts` as PlanPoints; `groups` holds their groups."""
        figures = zip(*(c[cuts].tolist() for c in (self.dsp, self.traffic_bytes,
                                                   self.est_cycles, self.buffer_bits)))
        return [PlanPoint(FusionPlan(g, sum((self.fits[x][0] for x in g), ())), *f)
                for g, f in zip(groups, figures)]

    def front(self) -> list:
        """The feasible partitions on the Pareto front, as cut bitmasks."""
        f = self.feasible
        return f[front_indices(self.dsp[f], self.traffic_bytes[f],
                               lambda k: self.text[f[k]])].tolist()

    def chain(self) -> list:
        """The feasible partitions of nested_chain, as cut bitmasks."""
        cuts = (sum(1 << b for _, b in groups[:-1]) for groups in nested_chain(self.n_layers))
        return [c for c in cuts if self.dsp[c] <= self.budget.dsp_max]


def fit_groups(net: NetworkSpec, budget: ResourceBudget,
               reread_weights_per_depth_group: bool = False) -> dict:
    """Each of the n(n+1)/2 contiguous groups (a, b) of the network fitted
    alone and priced once: (a, b) -> (d_par of its convs, GroupCost)."""
    n = len(net.layers)
    validate_plan(FusionPlan(((0, n - 1),), full_depth_parallel(net)), net)
    return {(a, b): _fit_group((a, b), net, budget, reread_weights_per_depth_group)
            for a in range(n) for b in range(a, n)}


def fold_partitions(net: NetworkSpec, fits: dict, budget: ResourceBudget,
                    bytes_per_value: int = 4) -> Partitions:
    """Every contiguous partition's figures as a fold over its groups' fits,
    by enumerate_plans' recurrence on numpy columns: DSP and buffer bits are
    the maximum over the groups, the estimate, traffic and group count the
    sum, and the plan text extends the prefix's by the group's. A partition
    is infeasible when its widest group is over budget."""
    costmodel.check_bytes_per_value(bytes_per_value)
    _check_enumerable(len(net.layers))
    # per prefix of layers: rows dsp, buffer bits / estimate, traffic, groups
    widest, total, texts = [np.zeros((2, 1), np.int64)], [np.zeros((3, 1), np.int64)], [[""]]
    for j in range(len(net.layers)):
        level_widest, level_total, level_text = [], [], []
        for i in range(j + 1):
            c = fits[i, j][1]
            level_widest.append(np.maximum(widest[i], [[c.dsp], [c.buffer_bits]]))
            level_total.append(total[i] + [[c.bottleneck + c.fill_cycles], [
                c.input_values + c.output_values + c.weight_values], [1]])
            level_text += extend_plan_texts(texts[i], (i, j))
        widest.append(np.hstack(level_widest))
        total.append(np.hstack(level_total))
        texts.append(level_text)
    (dsp, bits), (est, traffic, n_groups) = widest[-1], total[-1]
    return Partitions(fits, budget, (dsp, bits, est, traffic * bytes_per_value, n_groups),
                      texts[-1])


def sweep(net: NetworkSpec, budget: ResourceBudget, bytes_per_value: int = 4,
          reread_weights_per_depth_group: bool = False):
    """Evaluate every contiguous partition under the budget: fit_groups, then
    fold_partitions. Returns (points, infeasible): the PlanPoints in
    enumeration order and (groups, reason) for each partition over budget."""
    parts = fold_partitions(net, fit_groups(net, budget, reread_weights_per_depth_group),
                            budget, bytes_per_value)
    plans = enumerate_plans(len(net.layers))
    return (parts.points(parts.feasible, [plans[k] for k in parts.feasible.tolist()]),
            [(plans[k], budget_reason(plans[k], parts.fits, budget))
             for k in parts.over_budget.tolist()])
