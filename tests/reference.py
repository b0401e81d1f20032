"""Independently coded references the tests check the package against.

Each is a scalar loop over the public fixed-point primitives, written for
clarity, not speed: the oracle's sequential order (`brute_force_conv`,
`conv_position_sequential`) and the conv engine's adder-tree order
(`engine_reference`); the test data drawn one SplitMix64 step at a time
(`generate_tensor_scalar`, `generate_weights_scalar`); the design-space
exploration plan by plan, which the fold's columns are checked against: every
partition in cut bitmask order (`bitmask_plans`), the plan-level halving loop
(`reference_assignment`), each partition priced by `analyze`
(`reference_sweep`) and the front compared pair by pair (`quadratic_front`);
and a fused group's schedule stepped one cycle at a time (`ConvStage`,
`PoolStage`, `step_every_cycle`), which dataflow.simulate_group is checked
against.
"""

from collections import deque

import numpy as np

from fusedconv import costmodel
from fusedconv.config import ConvSpec, Dims, FusionPlan, InternalError, full_depth_parallel, \
    output_dims, validate_plan
from fusedconv.costmodel import conv3d_latency
from fusedconv.dataflow import StageStamp
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
    two. Returns (value, clip events). The padding is kept on purpose: the
    datapath passes an unpaired node through instead, which this checks."""
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
    convs = [net.conv_slice(group) for group in plan.groups]
    costs = [costmodel.group_cost(group, plan.depth_parallel[c], net)
             for group, c in zip(plan.groups, convs)]
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
            trial_cost = costmodel.group_cost(group, trial[convs[gi]], net)
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


# --- a fused group's schedule, one cycle at a time ---------------------------
#
# Elements are depth-concatenated positions (all channel values of one spatial
# location). Every stage advances at most one element per cycle under a
# ready/valid handshake and carries presence tokens, not values: a conv layer
# is one ConvStage (its line buffer, conv engine and output register), a pool
# layer one PoolStage. Two guards raise InternalError where a stage would lose
# data: a conv stage emitting a window whose oldest real element was
# overwritten, and a pool element landing in a row slot that has not drained.


def _last_needing(x: int, pad: int, stride: int, n_out: int, w: int):
    """Index of the last output row/column whose window covers coordinate x,
    or None if no window covers it."""
    idx = (x + pad) // stride
    if idx >= n_out:
        idx = n_out - 1
    if x > idx * stride - pad + w - 1:
        return None
    return idx


class ConvStage:
    """One conv layer's unit, element in, depth-k element out: a line buffer
    of w rows of padded width, a conv engine and an output-assembly register
    (`out`), kept as counters.

    The line buffer is its input coordinate (_r_in, _c_in) and widx, the
    next raster window to leave it. A window leaves, into a one-slot skid,
    when all of its real (non synthesized-padding) elements have arrived and
    the skid is empty; an element is refused while its row slot still holds
    a row an unemitted window needs.

    The engine takes the skid's window when its sweep of the previous one
    ends and holds it for k*g cycles: one issue a cycle, filters swept per
    serial depth group, groups outermost, into an abstract pipeline of depth
    conv3d_latency that advances (adv) once a cycle. Partial sums across the
    groups combine in a per-filter accumulator row, so only the final
    group's k scalars leave, and a window's element completes on the advance
    its last filter's scalar pops: emq queues those advances. The pipeline
    freezes only on the advance that would complete an element while `out`
    is occupied.
    """

    def __init__(self, spec: ConvSpec, in_dims: Dims, d_par: int, name="conv"):
        self.name = name
        self.out_dims = out = output_dims(in_dims, spec)
        self.h, self.w_in = in_dims.height, in_dims.width
        self.w, self.s, self.p = spec.kernel, spec.stride, spec.pad
        self.h_out, self.w_out = out.height, out.width
        self.n_windows = out.height * out.width
        self.k = spec.filters
        self.kg = self.k * (in_dims.depth // d_par)
        self.latency = conv3d_latency(spec.kernel, d_par)
        self._r_in = 0
        self._c_in = 0
        self.widx = 0
        self.skid = False   # a window waits in the skid slot
        self.cur_left = 0   # issues left in the held window's sweep
        self.adv = 0
        self.emq = deque()  # per queued element, the advance it completes on
        self.out = False
        self._set_threshold()

    def _set_threshold(self):
        """Input position (r * w_in + c) at which the next raster window is
        complete (one past the last element once every window is out), and
        the position past which that window has lost data: its oldest real
        element, at (r_top, c_lo), shares a row slot with element
        (r_top + w, c_lo), the first of its elements to be overwritten."""
        if self.widx >= self.n_windows:
            self._threshold = self.h * self.w_in + 1
            return
        rho, gam = divmod(self.widx, self.w_out)
        r_last = min(rho * self.s - self.p + self.w - 1, self.h - 1)
        c_last = min(gam * self.s - self.p + self.w - 1, self.w_in - 1)
        self._threshold = r_last * self.w_in + c_last + 1
        r_top = max(0, rho * self.s - self.p)
        self._overwritten = (r_top + self.w) * self.w_in + max(0, gam * self.s - self.p)

    def ready(self) -> bool:
        """Accepting the next element may not overwrite a row slot still
        needed by an unemitted window. The top clamp admits the first w rows
        whatever the window: their slots hold no real row."""
        if self._r_in >= self.h:
            return False
        return self._r_in < self.w or self._free()

    def _free(self) -> bool:
        """ready()'s unclamped rule: the next element's row slot, at input row
        r - w, is needed by no unemitted window (padding rows included)."""
        rho = _last_needing(self._r_in - self.w, self.p, self.s, self.h_out, self.w)
        if rho is None:
            return True
        gam = _last_needing(self._c_in, self.p, self.s, self.w_out, self.w)
        if gam is None:
            return True
        return self.widx > rho * self.w_out + gam

    def step(self, in_elem: bool, out_consumed: bool):
        """One clock. The engine advances, completes an element, takes the
        skid's window and issues, unless frozen; then the line buffer emits
        the next window into the skid, decided on previous-cycle fill state,
        and absorbs the offered element."""
        if out_consumed:
            self.out = False
        emq, adv = self.emq, self.adv + 1
        completes = emq and emq[0] == adv
        if not (completes and self.out):
            self.adv = adv
            if completes:
                emq.popleft()
                self.out = True
            left = self.cur_left
            if not left and self.skid:
                self.skid = False
                left = self.kg
            if left:
                if left == self.k:  # the final depth group's sweep starts
                    emq.append(adv + self.latency + self.k - 1)
                self.cur_left = left - 1
        r, c = self._r_in, self._c_in
        pos = r * self.w_in + c
        if not self.skid and pos >= self._threshold:
            if pos > self._overwritten:
                raise InternalError(
                    f"line buffer overwrote window {self.widx} before emitting it")
            self.skid = True
            self.widx += 1
            self._set_threshold()
        if in_elem:
            if c + 1 == self.w_in:
                self._c_in = 0
                self._r_in = r + 1
            else:
                self._c_in = c + 1


class PoolStage:
    """One row of running maxima, updated in raster order: the first element
    landing in a slot opens it, later covered elements fold into it; the
    pooled row drains serially once its last input row completes. The stage
    keeps only its input coordinate and the next slot to drain (w_out: none);
    an element landing in a slot that has not drained is an invariant breach.
    Requires window <= stride, which config.validate_plan checks."""

    def __init__(self, spec, in_dims: Dims, name="pool"):
        self.name = name
        self.out_dims = output_dims(in_dims, spec)
        self.h_in, self.w_in = in_dims.height, in_dims.width
        self.window = spec.window
        self.stride = spec.stride
        self.h_out, self.w_out = self.out_dims.height, self.out_dims.width
        self._r_in = 0
        self._c_in = 0
        self.drain_pos = self.w_out
        self.out = False

    def ready(self) -> bool:
        r, c = self._r_in, self._c_in
        if r == self.h_in:
            return False
        if r // self.stride >= self.h_out or r % self.stride >= self.window:
            return True
        j = c // self.stride
        if j >= self.w_out or c % self.stride >= self.window:
            return True
        return j < self.drain_pos

    def step(self, in_elem: bool, out_consumed: bool):
        if out_consumed:
            self.out = False
        if not self.out and self.drain_pos < self.w_out:
            self.out = True
            self.drain_pos += 1
        if not in_elem:
            return
        r, c = self._r_in, self._c_in
        if c + 1 == self.w_in:
            self._c_in = 0
            self._r_in = r + 1
        else:
            self._c_in = c + 1
        r_out, rp = divmod(r, self.stride)
        c_out, cp = divmod(c, self.stride)
        if r_out < self.h_out and rp < self.window \
                and c_out < self.w_out and cp < self.window:
            if c_out >= self.drain_pos:
                raise InternalError(
                    f"pool slot {c_out} overwritten before it drained")
            if rp == self.window - 1 and cp == self.window - 1 \
                    and c_out == self.w_out - 1:
                self.drain_pos = 0


def build_stages(layers, in_dims, d_pars, layer_offset=0):
    """One reference stage per layer, named as the model names them."""
    stages, dims, d_pars = [], in_dims, iter(d_pars)
    for i, layer in enumerate(layers, layer_offset):
        if isinstance(layer, ConvSpec):
            stages.append(ConvStage(layer, dims, next(d_pars), name=f"l{i}.conv"))
        else:
            stages.append(PoolStage(layer, dims, name=f"l{i}.pool"))
        dims = stages[-1].out_dims
    return stages


def step_every_cycle(layers, in_dims, d_pars, layer_offset=0, watch=None):
    """Reference schedule loop: transfers for a cycle are decided from the
    previous cycle's state (ready ripples upstream), then every stage steps
    once, front to back, each passing its consumed token downstream. Calls
    watch(cycle, stages) after every cycle, if given. Raises InternalError
    past the model's cycle budget, 16 times the group's work plus 100,000
    cycles. Returns the stamps and the stall cycles."""
    stages = build_stages(layers, in_dims, d_pars, layer_offset)
    n_stages = len(stages)
    n_src = in_dims.height * in_dims.width
    expected = [st.out_dims.height * st.out_dims.width for st in stages]
    max_cycles = 16 * (n_src + sum(n * (st.kg if isinstance(st, ConvStage) else 1)
                                   for st, n in zip(stages, expected))) + 100_000
    src_idx = 0
    remaining = n_stages
    stamps = [StageStamp(st.name) for st in stages]
    stalls = {st.name: 0 for st in stages}
    cycle = 0
    while remaining:
        cycle += 1
        if cycle > max_cycles:
            raise InternalError(
                f"pipeline made no progress within {max_cycles} cycles "
                f"(collected {stamps[-1].emitted}/{expected[-1]})")
        consume = [False] * n_stages
        ready_down = True
        for i in range(n_stages - 1, -1, -1):
            st = stages[i]
            if st.out:
                if ready_down:
                    consume[i] = True
                else:
                    stalls[st.name] += 1
            ready_down = st.ready()
        carried = ready_down and src_idx < n_src
        src_idx += carried
        for i, st in enumerate(stages):
            st.step(carried, consume[i])
            carried = consume[i]
            if carried:
                stamp = stamps[i]
                if stamp.emitted == 0:
                    stamp.first_out = cycle
                stamp.last_out = cycle
                stamp.emitted += 1
                if stamp.emitted == expected[i]:
                    remaining -= 1
        if watch:
            watch(cycle, stages)
    return stamps, stalls
