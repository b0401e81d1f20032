"""Independently coded references the tests check the package against.

Each is a scalar loop over the public fixed-point primitives, written for
clarity, not speed: the oracle's sequential order (`brute_force_conv`,
`conv_position_sequential`) and the conv engine's adder-tree order
(`engine_reference`); the test data drawn one SplitMix64 step at a time
(`generate_tensor_scalar`, `generate_weights_scalar`); and the design-space
exploration plan by plan, which the fold's columns are checked against: every
partition in cut bitmask order (`bitmask_plans`), the plan-level halving loop
(`reference_assignment`), each partition priced by `analyze`
(`reference_sweep`) and the front compared pair by pair (`quadratic_front`).
"""

import numpy as np

from fusedconv import costmodel
from fusedconv.config import Dims, FusionPlan, full_depth_parallel, validate_plan
from fusedconv.datagen import SeededGenerator
from fusedconv.dse import BudgetError
from fusedconv.fixedpoint import I32_MAX, I32_MIN, fx_add_sat, fx_mul
from fusedconv.golden import Tensor3D


def tensor_from_array(arr) -> Tensor3D:
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    return Tensor3D(Dims(*arr.shape), arr)


def brute_force_conv(input_t, bank, spec, frac_bits=16):
    """Explicit loop nest with inline truncating multiply and saturating
    accumulate, rows outer, columns middle, depth inner. Returns (int32
    outputs, clip count), one clip per product or running sum that leaves the
    32-bit range. Verified by hand at one position: a 1x1x1 input of 0.5
    against a single-tap filter of 0.5 gives (32768*32768)>>16 = 16384 = 0.25."""
    h, w_in, d = input_t.data.shape
    k, w = bank.data.shape[0], bank.data.shape[1]
    s, p = spec.stride, spec.pad
    oh = (h + 2 * p - w) // s + 1
    ow = (w_in + 2 * p - w) // s + 1
    out = np.zeros((oh, ow, k), dtype=np.int64)
    clips = 0
    src = input_t.data
    flt = bank.data
    for r in range(oh):
        for c in range(ow):
            for f in range(k):
                acc = 0
                for kr in range(w):
                    for kc in range(w):
                        rr = r * s - p + kr
                        cc = c * s - p + kc
                        if rr < 0 or rr >= h or cc < 0 or cc >= w_in:
                            continue
                        for ch in range(d):
                            prod = (int(src[rr, cc, ch]) * int(flt[f, kr, kc, ch])) >> frac_bits
                            clips += not I32_MIN <= prod <= I32_MAX
                            prod = min(max(prod, I32_MIN), I32_MAX)
                            acc += prod
                            clips += not I32_MIN <= acc <= I32_MAX
                            acc = min(max(acc, I32_MIN), I32_MAX)
                if spec.relu and acc < 0:
                    acc = 0
                out[r, c, f] = acc
    return out.astype(np.int32), clips


def conv_position_sequential(win, filt, frac_bits):
    """Literal sequential reduction of one (w, w, d) window against one
    (w, w, d) filter through fx_mul and fx_add_sat. Returns (raw, events)."""
    acc = 0
    events = 0
    w = win.shape[0]
    d = win.shape[2]
    for r in range(w):
        for c in range(w):
            for ch in range(d):
                p, sat_m = fx_mul(int(win[r, c, ch]), int(filt[r, c, ch]), frac_bits)
                acc, sat_a = fx_add_sat(acc, p)
                events += sat_m + sat_a
    return acc, events


def tree_sum(vals):
    """Pairwise saturating adder tree over vals zero padded to a power of
    two. Returns (value, clip events)."""
    level = vals + [0] * ((1 << (len(vals) - 1).bit_length()) - len(vals))
    events = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            v, sat = fx_add_sat(level[i], level[i + 1])
            events += sat
            nxt.append(v)
        level = nxt
    return level[0], events


def engine_reference(win, filt, d_par, relu, frac_bits=16):
    """Scalar tree-order reduction of one window, as the hardware sums it:
    per channel a tree over the w*w products, per serial depth group a tree
    over its d_par channels, then a saturating running sum over the groups.
    Returns (one value per filter, clip events)."""
    k, w, _, d = filt.shape
    out, events = [], 0
    for f in range(k):
        acc = 0
        for j in range(d // d_par):
            planes = []
            for ch in range(j * d_par, (j + 1) * d_par):
                prods = []
                for r in range(w):
                    for c in range(w):
                        p, sat = fx_mul(int(win[r, c, ch]), int(filt[f, r, c, ch]),
                                        frac_bits)
                        events += sat
                        prods.append(p)
                v, ev = tree_sum(prods)
                planes.append(v)
                events += ev
            v, ev = tree_sum(planes)
            events += ev
            if j == 0:
                acc = v
            else:
                acc, sat = fx_add_sat(acc, v)
                events += sat
        out.append(max(acc, 0) if relu else acc)
    return out, events


def scale_raw(raw: int, divisor: int) -> int:
    """round-half-away-from-zero(raw / divisor) in pure integers."""
    if raw >= 0:
        return (2 * raw + divisor) // (2 * divisor)
    return -((2 * -raw + divisor) // (2 * divisor))


def generate_tensor_scalar(dims, seed):
    """datagen.generate_tensor's values, one next_raw() at a time."""
    gen = SeededGenerator(seed)
    arr = np.array([gen.next_raw() for _ in range(dims.volume)], dtype=np.int32)
    return arr.reshape(dims.height, dims.width, dims.depth)


def generate_weights_scalar(net, seed):
    """datagen.generate_weights' banks as arrays, one next_raw() and one
    scale_raw() at a time, in network order from one stream."""
    gen = SeededGenerator(seed)
    banks = []
    in_dims = net.layer_input_dims()
    for li in net.conv_indices():
        layer = net.layers[li]
        w, d, k = layer.kernel, in_dims[li].depth, layer.filters
        arr = np.array([scale_raw(gen.next_raw(), w * w * d)
                        for _ in range(k * w * w * d)], dtype=np.int32)
        banks.append(arr.reshape(k, w, w, d))
    return banks


def bitmask_plans(n_layers):
    """Every contiguous partition of n_layers layers as a tuple of (start,
    end) groups, one per cut bitmask (bit i: a cut after layer i), in
    ascending bitmask order."""
    out = []
    for cuts in range(1 << (n_layers - 1)):
        groups, start = [], 0
        for i in range(n_layers - 1):
            if cuts & (1 << i):
                groups.append((start, i))
                start = i + 1
        out.append(tuple(groups) + ((start, n_layers - 1),))
    return out


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


def reference_sweep(net, budget, bytes_per_value, reread):
    """Every partition in cut bitmask order, priced plan by plan, as (groups,
    plan, CostReport, None) when reference_assignment fits it and (groups,
    None, None, its BudgetError message) when it cannot."""
    out = []
    for groups in bitmask_plans(len(net.layers)):
        try:
            plan = reference_assignment(groups, net, budget)
        except BudgetError as e:
            out.append((groups, None, None, str(e)))
            continue
        out.append((groups, plan, costmodel.analyze(
            plan, net, bytes_per_value, reread_weights_per_depth_group=reread), None))
    return out


def quadratic_front(dsp, traffic, text):
    """Indices of the points no other point dominates in (dsp, traffic),
    compared pair by pair, in (dsp, traffic, text) order."""
    def dominates(q, p):
        return (dsp[q] <= dsp[p] and traffic[q] <= traffic[p]
                and (dsp[q] < dsp[p] or traffic[q] < traffic[p]))
    points = range(len(dsp))
    front = [p for p in points if not any(dominates(q, p) for q in points)]
    return sorted(front, key=lambda p: (dsp[p], traffic[p], text[p]))
