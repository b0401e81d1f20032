"""Depth-parallelism assignment and the traffic-vs-DSP trade-off over every
contiguous fusion partition: each contiguous group is fitted and priced once
(fit_groups), every partition folded from those prices into numpy columns
indexed by cut bitmask (fold_partitions), and the Pareto front taken in one
vectorized pass over them (front_indices)."""

from __future__ import annotations

import numpy as np

from . import costmodel
from .config import FusionPlan, NetworkSpec, ValidationError, extend_plan_texts, \
    full_depth_parallel, validate_plan
from .costmodel import ResourceBudget

ENUMERATION_LIMIT = 20
_INT64_MAX = np.iinfo(np.int64).max


class BudgetError(ValidationError):
    """No depth-parallelism assignment fits a plan in the DSP budget."""


def fit_groups(net: NetworkSpec, budget: ResourceBudget,
               reread_weights_per_depth_group: bool = False) -> dict:
    """Each of the n(n+1)/2 contiguous groups (a, b) of the network fitted
    alone and priced once: (a, b) -> (d_par of its convs, GroupCost).
    Iterative decomposition: start from full depth parallelism and, while the
    group exceeds the DSP budget, halve the d_par of its conv whose halving
    least increases the group's steady cycles (ties to the deepest layer).
    Odd depths (3 at the network input) are never split, so the fit may stay
    over budget. Each trial is priced from per-conv integers, taken once per
    network: k^2 * d_par DSP and h_out * w_out * filters * (depth / d_par)
    steady cycles. Halving conv k leaves the group max(2 * steady[k], the
    largest steady cycles): no other conv exceeds the largest, and doubling
    the largest exceeds them all. Raises ValidationError past
    ENUMERATION_LIMIT layers, before pricing any group."""
    n = len(net.layers)
    if n > ENUMERATION_LIMIT:
        raise ValidationError(f"n_layers {n} exceeds enumeration bound {ENUMERATION_LIMIT}")
    full = full_depth_parallel(net)
    validate_plan(FusionPlan(((0, n - 1),), full), net)
    conv_idx = net.conv_indices()
    dims = net.layer_dims()
    taps = [net.layers[li].kernel ** 2 for li in conv_idx]
    work = [dims[li].height * dims[li].width * net.layers[li].filters for li in conv_idx]
    fits = {}
    for a in range(n):
        for b in range(a, n):
            convs = net.conv_slice((a, b))
            dpar = _halve(taps[convs], work[convs], full[convs], budget.dsp_max)
            fits[a, b] = dpar, costmodel.group_cost((a, b), dpar, net,
                                                    reread_weights_per_depth_group)
    return fits


def _halve(taps, work, depth, dsp_max: int) -> tuple:
    """The d_par of one group's convs, halved from `depth` by fit_groups'
    rule until their DSP fit dsp_max or no even d_par is left."""
    dpar = list(depth)
    dsp = sum(t * d for t, d in zip(taps, dpar))
    while dsp > dsp_max:
        steady = [w * (d // p) for w, d, p in zip(work, depth, dpar)]
        top = max(steady)
        trials = [(max(2 * s, top), -k) for k, s in enumerate(steady) if dpar[k] % 2 == 0]
        if not trials:
            break
        i = -min(trials)[1]
        dsp -= taps[i] * dpar[i] // 2
        dpar[i] //= 2
    return tuple(dpar)


def budget_reason(groups, fits: dict, budget: ResourceBudget) -> str:
    """Why a partition cannot run: its widest fitted group (the earliest on
    ties) is over budget."""
    dsp = [fits[g][1].dsp for g in groups]
    widest = dsp.index(max(dsp))
    return (f"infeasible budget: group {groups[widest]} needs {dsp[widest]} DSP "
            f"with no layer left to decompose (budget {budget.dsp_max})")


def assign_depth_parallelism(groups, net: NetworkSpec,
                             budget: ResourceBudget) -> FusionPlan:
    """Join the fits of a plan's groups, read from fit_groups; raises
    BudgetError if a group cannot fit the DSP budget."""
    plan = validate_plan(FusionPlan(tuple(groups), full_depth_parallel(net)), net)
    fits = fit_groups(net, budget)
    if max(fits[g][1].dsp for g in plan.groups) > budget.dsp_max:
        raise BudgetError(budget_reason(plan.groups, fits, budget))
    return FusionPlan(plan.groups, sum((fits[g][0] for g in plan.groups), ()))


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
    below = np.minimum.accumulate(np.r_[_INT64_MAX, least[:-1]])
    run = np.cumsum(first) - 1  # each point's dsp, as a rank
    keep = (t == least[run]) & (least < below)[run]
    # points equal in (dsp, traffic) are kept or dropped together, so only
    # the front needs the text tie-break
    return sorted(order[keep].tolist(), key=lambda k: (dsp[k], traffic[k], text(k)))


def nested_chain(n_layers: int) -> list:
    """The front-to-back merge sequence: all singletons, then the first two
    layers merged, and so on until one fused group."""
    return [((0, m - 1),) + tuple((i, i) for i in range(m, n_layers))
            for m in range(1, n_layers + 1)]


class Partitions:
    """Every contiguous partition of a network, folded from its groups' fits:
    int64 columns and plan texts indexed by cut bitmask (bit i: a cut after
    layer i)."""

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

    def depth_parallel(self, cuts: int) -> tuple:
        """The d_par of every conv in partition `cuts`: its groups' fits joined."""
        return sum((self.fits[g][0] for g in self.groups(cuts)), ())

    def front(self) -> list:
        """The feasible partitions on the Pareto front, as cut bitmasks."""
        f = self.feasible
        return f[front_indices(self.dsp[f], self.traffic_bytes[f],
                               lambda k: self.text[f[k]])].tolist()

    def chain(self) -> list:
        """The feasible partitions of nested_chain, as cut bitmasks."""
        cuts = (sum(1 << b for _, b in groups[:-1]) for groups in nested_chain(self.n_layers))
        return [c for c in cuts if self.dsp[c] <= self.budget.dsp_max]


def fold_partitions(net: NetworkSpec, fits: dict, budget: ResourceBudget,
                    bytes_per_value: int = 4) -> Partitions:
    """Every contiguous partition's figures as a fold over its groups' fits:
    the partitions of layers 0..j are those of 0..i-1, each extended by group
    (i, j), for i = 0..j in turn, which is cut bitmask order. On numpy
    columns, DSP and buffer bits are the maximum over the groups, the
    estimate, traffic and group count the sum, and the plan text extends the
    prefix's by the group's. A partition is infeasible when its widest group
    is over budget. Raises ValidationError if a figure of some partition
    would not fit its int64 column."""
    costmodel.check_bytes_per_value(bytes_per_value)
    # per prefix of layers: rows dsp, buffer bits / estimate, traffic, groups;
    # and, in Python ints, the largest estimate and traffic bytes of any of
    # its partitions
    widest, total, texts = [np.zeros((2, 1), np.int64)], [np.zeros((3, 1), np.int64)], [[""]]
    peak = [(0, 0)]
    for j in range(len(net.layers)):
        level_widest, level_total, level_text, level_peak = [], [], [], []
        for i in range(j + 1):
            c = fits[i, j][1]
            est, values = c.bottleneck + c.fill_cycles, \
                c.input_values + c.output_values + c.weight_values
            level_peak.append((peak[i][0] + est, peak[i][1] + values * bytes_per_value))
            for name, v in zip(("DSP", "buffer bits", "estimated cycles", "traffic bytes"),
                               (c.dsp, c.buffer_bits) + level_peak[-1]):
                if v > _INT64_MAX:
                    raise ValidationError(f"dse: partitions through group {(i, j)} reach "
                                          f"{v} {name}, past an int64 column")
            level_widest.append(np.maximum(widest[i], [[c.dsp], [c.buffer_bits]]))
            level_total.append(total[i] + [[est], [values], [1]])
            level_text += extend_plan_texts(texts[i], (i, j))
        widest.append(np.hstack(level_widest))
        total.append(np.hstack(level_total))
        texts.append(level_text)
        peak.append(tuple(map(max, zip(*level_peak))))
    (dsp, bits), (est, traffic, n_groups) = widest[-1], total[-1]
    return Partitions(fits, budget, (dsp, bits, est, traffic * bytes_per_value, n_groups),
                      texts[-1])
