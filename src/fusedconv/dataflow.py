"""Cycle-driven simulation of the fused line-buffer pipeline.

One fused group is a chain of stages clocked by a single global counter:

    input stream -> [line buffer -> conv engine -> assembler] per conv layer
                 -> [pool row buffer] per pool layer -> collector

Elements are depth-concatenated positions (all channel values of one spatial
location). Every stage advances at most one element per cycle under a
ready/valid handshake; transfer decisions for a cycle are taken from
previous-cycle state (ready ripples from the sink upstream, data moves
downstream), so evaluation order cannot change results. Ripple within a
stage is combinational, which is what sustains one window per cycle when a
conv layer has a single filter and no depth decomposition.

Cycle accounting is exact: a group's cycle count is the stamp at which its
last output element reached the collector, including pipeline flush.

The schedule never reads a value, so simulate_group takes layer dims and
d_par, not data: stages pass presence tokens and keep counters only. Two
O(1) guards raise InternalError where it would lose data: a line buffer
building a window whose oldest real element was overwritten, and a pool
element landing in a row slot that has not drained. Windows leave a line
buffer in raster order through a one-slot skid, so the engine latches them
in raster order too. Values do not depend on the schedule or on group
boundaries: once every group's schedule has run, simulate_plan computes each
layer's values once, through golden.walk_layers, the layer loop the oracle
also runs. conv_datapath runs golden's product pass and reduces the values
that may clamp in the engine's adder-tree order, counting saturation events;
a pool layer's values are golden.maxpool_layer's. Given a golden.ConvPasses
record, the datapath keeps each conv layer's product pass there, for the
oracle's check of the same layer to reuse.

Most cycles are quiet: a conv engine holding a window for its k*g filter
sweep moves only counters. When the source cannot feed the first stage, each
stage reports how many upcoming cycles it stays quiet, and the clock jumps by
the minimum, advancing those counters in closed form; every other cycle runs
each stage's single-cycle `step`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import ConvSpec, Dims, FusionPlan, InternalError, NetworkSpec, PoolSpec, \
    ValidationError, check_pipeline_pool, output_dims, validate_plan
from .costmodel import conv3d_latency
from .fixedpoint import fx_clamp_count
from .golden import ConvPasses, FilterBank, Tensor3D, check_inputs, conv_values, \
    walk_layers

_FOREVER = 1 << 62     # quiet_for of a stage that waits on another stage
_TREE_NODES = 1 << 16  # int64 leaves per adder-tree chunk (512 KiB)


class TraceWriter:
    """Line-oriented event log: '<cycle> <stage> <kind> <position> [detail]'."""

    def __init__(self, fh):
        self.fh = fh

    def event(self, cycle, stage, kind, position, detail=""):
        if detail:
            self.fh.write(f"{cycle} {stage} {kind} {position} {detail}\n")
        else:
            self.fh.write(f"{cycle} {stage} {kind} {position}\n")


def _last_needing(x: int, pad: int, stride: int, n_out: int, w: int):
    """Index of the last output row/column whose window covers coordinate x,
    or None if no window covers it."""
    idx = (x + pad) // stride
    if idx >= n_out:
        idx = n_out - 1
    if x > idx * stride - pad + w - 1:
        return None
    return idx


class LineBuffer:
    """w rows of padded width, kept as counters: emits the next raster-order
    window when all of its real (non synthesized-padding) elements have
    arrived, and refuses an element that would overwrite a row slot still
    needed by an unemitted window."""

    def __init__(self, in_dims: Dims, spec: ConvSpec):
        self.h, self.w_in = in_dims.height, in_dims.width
        self.w, self.s, self.p = spec.kernel, spec.stride, spec.pad
        out = output_dims(in_dims, spec)
        self.h_out, self.w_out = out.height, out.width
        self.n_windows = out.height * out.width
        self.n_elems = self.h * self.w_in
        self.n_acc = 0
        self._r_in = 0
        self._c_in = 0
        self.widx = 0
        self._set_threshold()
        self._rkey = (-1, -1)
        self._rval = False

    def _set_threshold(self):
        """Accepted-element count at which the next raster window is complete
        (one past the last element once every window is out), and the count
        past which that window has lost data: its oldest real element, at
        (r_top, c_lo), shares a row slot with element (r_top + w, c_lo), the
        first of its elements to be overwritten."""
        if self.widx >= self.n_windows:
            self._threshold = self.n_elems + 1
            return
        rho, gam = divmod(self.widx, self.w_out)
        r_last = rho * self.s - self.p + self.w - 1
        if r_last > self.h - 1:
            r_last = self.h - 1
        c_last = gam * self.s - self.p + self.w - 1
        if c_last > self.w_in - 1:
            c_last = self.w_in - 1
        self._threshold = r_last * self.w_in + c_last + 1
        r_top = max(0, rho * self.s - self.p)
        self._overwritten = (r_top + self.w) * self.w_in + max(0, gam * self.s - self.p)

    def ready(self) -> bool:
        """Accepting the next element may not overwrite a row slot still
        needed by an unemitted window."""
        key = (self.n_acc, self.widx)
        if key == self._rkey:
            return self._rval
        self._rkey = key
        self._rval = v = self._compute_ready()
        return v

    def _compute_ready(self) -> bool:
        if self.n_acc >= self.n_elems:
            return False
        r_d = self._r_in - self.w
        if r_d < 0:
            return True
        rho = _last_needing(r_d, self.p, self.s, self.h_out, self.w)
        if rho is None:
            return True
        gam = _last_needing(self._c_in, self.p, self.s, self.w_out, self.w)
        if gam is None:
            return True
        return self.widx > rho * self.w_out + gam

    def cycle(self, elem: bool, can_emit: bool) -> bool:
        """One clock: possibly emit the next window (decided on previous-cycle
        fill state), then absorb the offered element. Returns whether a
        window was emitted."""
        emitted = can_emit and self.n_acc >= self._threshold
        if emitted:
            if self.n_acc > self._overwritten:
                raise InternalError(
                    f"line buffer overwrote window {self.widx} before emitting it")
            self.widx += 1
            self._set_threshold()
        if elem:
            self.n_acc += 1
            c = self._c_in + 1
            if c == self.w_in:
                self._c_in = 0
                self._r_in += 1
            else:
                self._c_in = c
        return emitted


class ConvEngine:
    """Holds one window for k*g cycles (filters swept per serial depth group,
    groups outermost) while an abstract pipeline of depth conv3d_latency
    turns one issue per cycle into one scalar per cycle. Partial sums across
    serial depth groups combine in a per-filter accumulator row; only the
    final group's scalars leave the engine, in filter order.

    The engine carries window tokens, not values: its skid slot and emission
    queue hold window indices. Windows are latched in raster order, so the
    scalars a window yields are conv_datapath's values for that position,
    computed once per layer after the schedule has run.
    """

    def __init__(self, spec: ConvSpec, depth: int, d_par: int, trace=None, name=""):
        if depth % d_par != 0:
            raise ValidationError(f"depth {depth} not divisible by d_par {d_par}")
        self.k = spec.filters
        self.g = depth // d_par
        self.kg = self.k * self.g
        self.latency = conv3d_latency(spec.kernel, d_par)
        self._final_first = (self.g - 1) * self.k
        self.next_win = None          # index of the window in the skid slot
        self.cur_win_idx = -1
        self.cur_left = 0
        self.issues_done = 0
        self.adv = 0
        self.emq = deque()            # (first_adv, complete_adv, window_index)
        self.windows_latched = 0
        self.scalars_emitted = 0
        self.trace = trace
        self.name = name

    def latch(self):
        """Take the line buffer's next window into the skid slot."""
        if self.next_win is not None:
            raise InternalError("window skid slot occupied")
        self.next_win = self.windows_latched
        self.windows_latched += 1

    def cycle(self, out_free: bool, cycle_no: int = 0) -> bool:
        """One clock. The pipeline freezes (no advance, no issue) only when the
        scalar completing an output element would pop with the downstream
        register occupied. Returns whether an output element completed."""
        emq = self.emq
        completed = False
        if emq:
            first, comp, widx = emq[0]
            nxt = self.adv + 1
            if nxt == comp and not out_free:
                return False
            self.adv = nxt
            if nxt >= first:
                self.scalars_emitted += 1
                if self.trace is not None:
                    self.trace.event(cycle_no, self.name, "emit", widx,
                                     f"f{nxt - first}")
                if nxt == comp:
                    completed = True
                    emq.popleft()
        else:
            self.adv += 1

        if self.cur_left == 0:
            nw = self.next_win
            if nw is not None:
                self.cur_win_idx = nw
                self.next_win = None
                self.cur_left = self.kg
                self.issues_done = 0
                if self.trace is not None:
                    self.trace.event(cycle_no, self.name, "accept", nw)

        left = self.cur_left
        if left > 0:
            if self.issues_done == self._final_first:
                adv = self.adv
                emq.append((adv + self.latency,
                            adv + self.latency + self.k - 1,
                            self.cur_win_idx))
            self.issues_done += 1
            self.cur_left = left - 1

        return completed

    def quiet_for(self, held: bool) -> int:
        """Upcoming cycles with no latch, queued issue or completed element. A
        held output freezes the engine at the completing scalar for good."""
        if not self.cur_left:
            q = _FOREVER if self.next_win is None else 0
        elif self.issues_done <= self._final_first:
            q = self._final_first - self.issues_done
        else:
            q = _FOREVER if self.next_win is None else self.cur_left
        if not self.emq:
            return q
        c = self.emq[0][1] - self.adv - 1
        if held:
            return _FOREVER if c <= q else q
        return min(q, c)

    def skip(self, n: int, cycle_no: int, held: bool):
        """Advance n quiet cycles in closed form; returns the emit trace
        events among them when tracing."""
        emq, adv0 = self.emq, self.adv
        if held and emq:
            n = min(n, emq[0][1] - adv0 - 1)
        self.adv = adv0 + n
        done = min(n, self.cur_left)
        self.cur_left -= done
        self.issues_done += done
        if not emq:
            return []
        first, _, widx = emq[0]
        lo = max(first, adv0 + 1)
        self.scalars_emitted += max(0, adv0 + n + 1 - lo)
        if self.trace is None:
            return []
        return [(cycle_no + a - adv0, self.name, "emit", widx, f"f{a - first}")
                for a in range(lo, adv0 + n + 1)]


class ConvStage:
    """Line buffer + conv engine + output-assembly register, element in,
    depth-k element out."""

    def __init__(self, spec: ConvSpec, in_dims: Dims, d_par: int, trace=None, name="conv"):
        self.name = name
        self.out_dims = output_dims(in_dims, spec)
        self.lb = LineBuffer(in_dims, spec)
        self.engine = ConvEngine(spec, in_dims.depth, d_par, trace, name=f"{name}.ce")
        self.out = False
        self.out_stall = 0
        self.trace = trace
        self.ready = self.lb.ready  # acceptance is entirely the line buffer's call

    def step(self, cycle_no: int, in_elem: bool, out_consumed: bool):
        if out_consumed:
            self.out = False
            out_free = True
        else:
            out_free = not self.out
        engine = self.engine
        if engine.cycle(out_free, cycle_no):
            self.out = True
        if self.lb.cycle(in_elem, engine.next_win is None):
            engine.latch()
        if in_elem and self.trace is not None:
            self.trace.event(cycle_no, f"{self.name}.lb", "accept", self.lb.n_acc - 1)

    def quiet_for(self, blocked: bool) -> int:
        """Upcoming quiet cycles, given whether downstream refuses elements."""
        if (self.out and not blocked) or (self.engine.next_win is None
                                          and self.lb.n_acc >= self.lb._threshold):
            return 0
        return self.engine.quiet_for(self.out)

    def skip(self, n: int, cycle_no: int):
        if self.out:
            self.out_stall += n
        return self.engine.skip(n, cycle_no, self.out)


class PoolStage:
    """One row of running maxima, updated in raster order: the first element
    landing in a slot opens it, later covered elements fold into it; the
    pooled row drains serially once its last input row completes. The stage
    keeps only the counters of that row; an element landing in a slot that
    has not drained yet is an invariant breach. Requires window <= stride (a
    single physical row cannot serve overlapping vertical windows)."""

    def __init__(self, spec: PoolSpec, in_dims: Dims, trace=None, name="pool"):
        check_pipeline_pool(spec)
        self.name = name
        self.out_dims = output_dims(in_dims, spec)
        self.h_in, self.w_in = in_dims.height, in_dims.width
        self.window = spec.window
        self.stride = spec.stride
        self.h_out, self.w_out = self.out_dims.height, self.out_dims.width
        self.n_elems = self.h_in * self.w_in
        self.n_acc = 0
        self._r_in = 0
        self._c_in = 0
        self.pending = False
        self.drain_pos = 0
        self.out = False
        self.out_stall = 0
        self.trace = trace
        self._rkey = (-1, -1, False)
        self._rval = False

    def ready(self) -> bool:
        key = (self.n_acc, self.drain_pos, self.pending)
        if key == self._rkey:
            return self._rval
        self._rkey = key
        self._rval = v = self._compute_ready()
        return v

    def _compute_ready(self) -> bool:
        if self.n_acc >= self.n_elems:
            return False
        r, c = self._r_in, self._c_in
        if r // self.stride >= self.h_out or r % self.stride >= self.window:
            return True
        j = c // self.stride
        if j >= self.w_out or c % self.stride >= self.window:
            return True
        return not (self.pending and j >= self.drain_pos)

    def step(self, cycle_no: int, in_elem: bool, out_consumed: bool):
        if out_consumed:
            self.out = False
        if not self.out and self.pending:
            self.out = True
            if self.trace is not None:
                self.trace.event(cycle_no, self.name, "emit", self.drain_pos)
            self.drain_pos += 1
            if self.drain_pos == self.w_out:
                self.pending = False
        if not in_elem:
            return
        r, c = self._r_in, self._c_in
        self.n_acc += 1
        if c + 1 == self.w_in:
            self._c_in = 0
            self._r_in = r + 1
        else:
            self._c_in = c + 1
        r_out, rp = divmod(r, self.stride)
        c_out, cp = divmod(c, self.stride)
        if r_out < self.h_out and rp < self.window \
                and c_out < self.w_out and cp < self.window:
            if self.pending and c_out >= self.drain_pos:
                raise InternalError(
                    f"pool slot {c_out} overwritten before it drained")
            if rp == self.window - 1 and cp == self.window - 1 \
                    and c_out == self.w_out - 1:
                self.pending = True
                self.drain_pos = 0
        if self.trace is not None:
            self.trace.event(cycle_no, self.name, "accept", self.n_acc - 1)

    def quiet_for(self, blocked: bool) -> int:
        if self.out:
            return _FOREVER if blocked else 0
        return 0 if self.pending else _FOREVER

    def skip(self, n: int, cycle_no: int):
        if self.out:
            self.out_stall += n
        return []


@dataclass
class StageStamp:
    name: str
    first_out: int = 0
    last_out: int = 0
    emitted: int = 0


@dataclass
class GroupResult:
    """One group's schedule: its cycle count, stamps and stalls per stage."""
    cycles: int
    stamps: list
    stall_cycles: dict


@dataclass
class SimResult:
    """Functional outputs plus exact cycle accounting for a whole plan."""
    output: Tensor3D
    layer_outputs: list
    cycles_per_group: list
    end_to_end_cycles: int
    stamps_per_group: list
    stall_cycles: dict
    saturation_events: int
    # wall seconds of the group schedules and of the value walk; not results
    seconds: tuple = field(compare=False, repr=False)


def conv_datapath(x: np.ndarray, bank: FilterBank, spec: ConvSpec, d_par: int,
                  frac_bits: int, passes: ConvPasses = None):
    """One conv layer's values, as the engine reduces each window. Returns
    ((h_out, w_out, k) int32, saturation events).

    golden.conv_values runs the product pass and takes the plain sum wherever
    nothing can clamp. The values over its bound take the engine's order: per
    filter and window, a pairwise adder tree over each channel's w*w
    products, one over the d_par channels of each serial depth group (both
    zero padded to powers of two), then a running sum over the groups, with
    every product, node and sum clamped and counted."""
    k, w, _, d = bank.data.shape
    g = d // d_par
    tp = 1 << (w * w - 1).bit_length()
    dpp = 1 << (d_par - 1).bit_length()
    n = max(1, _TREE_NODES // (g * dpp * tp))

    def adder_tree(prod):
        # taps laid out (g, dpp, tp): channel planes of a depth group outer,
        # the w*w taps inner, so one pairwise tree over a group's dpp*tp taps
        # is the tap tree followed by the plane tree
        vals = np.empty(len(prod), dtype=np.int64)
        events = 0
        for i in range(0, len(prod), n):
            part = prod[i:i + n]
            tree = np.zeros((len(part), g, dpp, tp), dtype=np.int64)
            tree[:, :, :d_par, :w * w] = (
                part.reshape(-1, w * w, g, d_par).transpose(0, 2, 3, 1))
            events += fx_clamp_count(tree)
            a = tree.reshape(len(part), g, -1)
            while a.shape[-1] > 1:
                a = a[..., 0::2] + a[..., 1::2]
                events += fx_clamp_count(a)
            acc = a[:, 0, 0]
            for j in range(1, g):
                acc = acc + a[:, j, 0]
                events += fx_clamp_count(acc)
            vals[i:i + n] = acc
        return vals, events

    return conv_values(x, bank.data, spec, frac_bits, adder_tree, passes)


def _build_stages(layers, in_dims, d_pars, trace, layer_offset):
    stages = []
    dims = in_dims
    bi = 0
    for off, layer in enumerate(layers):
        name = f"l{layer_offset + off}"
        if isinstance(layer, ConvSpec):
            stages.append(ConvStage(layer, dims, d_pars[bi], trace, name=f"{name}.conv"))
            bi += 1
        else:
            stages.append(PoolStage(layer, dims, trace, name=f"{name}.pool"))
        dims = stages[-1].out_dims
    return stages


def simulate_group(layers, in_dims: Dims, d_pars, trace=None,
                   layer_offset: int = 0) -> GroupResult:
    """Run one fused group's schedule on an in_dims input: the input streams
    one element per cycle while the chain accepts, then flush cycles run
    until every stage has emitted its complete output (trailing rows a pool
    discards still flow through). The group's cycle count is the stamp of
    the final stage's last element. Only presence tokens move, so no value
    is read or computed here."""
    if not layers:
        raise ValidationError("fused group must contain at least one layer")
    stages = _build_stages(layers, in_dims, d_pars, trace, layer_offset)
    n_stages = len(stages)

    n_src = in_dims.height * in_dims.width
    src_idx = 0

    expected = [st.out_dims.height * st.out_dims.width for st in stages]
    remaining = n_stages

    stamps = [StageStamp(st.name) for st in stages]
    readys = [st.ready for st in stages]
    steps = [st.step for st in stages]
    quiet = [st.quiet_for for st in stages]
    skips = [st.skip for st in stages]

    budget = n_src
    for st, n_out in zip(stages, expected):
        budget += n_out * (st.engine.kg if isinstance(st, ConvStage) else 1)
    max_cycles = 16 * budget + 100_000

    cycle = 0
    consume = [False] * n_stages
    stage_range = list(range(n_stages))
    while remaining:
        if src_idx == n_src or not readys[0]():
            # nothing can enter: jump across the cycles in which no stage
            # acts, within the budget so that a stuck pipeline still trips it
            n = max_cycles - cycle
            blocked = False
            for i in range(n_stages - 1, -1, -1):
                n = min(n, quiet[i](blocked))
                if not n:
                    break
                blocked = not readys[i]()
            if n and trace is None:
                for skip in skips:
                    skip(n, cycle)
            elif n:
                emits = [e for skip in skips for e in skip(n, cycle)]
                emits.sort(key=lambda e: e[0])  # cycle first, then stage
                for e in emits:
                    trace.event(*e)
            cycle += n
        cycle += 1
        if cycle > max_cycles:
            raise InternalError(
                f"pipeline made no progress within {max_cycles} cycles "
                f"(collected {stamps[-1].emitted}/{expected[-1]})")

        ready_down = True
        for i in range(n_stages - 1, -1, -1):
            st = stages[i]
            consume[i] = False
            if st.out:
                if ready_down:
                    consume[i] = True
                else:
                    st.out_stall += 1
            ready_down = readys[i]()

        carried = ready_down and src_idx < n_src
        src_idx += carried

        for i in stage_range:
            c = consume[i]
            steps[i](cycle, carried, c)
            if c:
                stamp = stamps[i]
                if stamp.emitted == 0:
                    stamp.first_out = cycle
                stamp.last_out = cycle
                stamp.emitted += 1
                if stamp.emitted == expected[i]:
                    remaining -= 1
            carried = c

    return GroupResult(
        cycles=stamps[-1].last_out,
        stamps=stamps,
        stall_cycles={st.name: st.out_stall for st in stages})


def simulate_plan(net: NetworkSpec, input_t: Tensor3D, weights, plan: FusionPlan,
                  trace=None, passes: ConvPasses = None) -> SimResult:
    """Run the plan's group schedules in turn; each group boundary
    round-trips a full tensor (the traffic model charges it; transfer cycles
    are not simulated). Total cycles are the sum of group cycles. Values do
    not depend on group boundaries, so every layer's values then come from
    one golden.walk_layers over the network, each conv layer's from
    conv_datapath at its d_par, with product passes kept in `passes`, if
    given."""
    validate_plan(plan, net)
    check_inputs(net, input_t, weights)
    in_dims = net.layer_input_dims()
    t0 = time.monotonic()
    groups = []
    ci = 0  # conv layers before the group
    for a, b in plan.groups:
        n_conv = sum(isinstance(layer, ConvSpec) for layer in net.layers[a:b + 1])
        groups.append(simulate_group(net.layers[a:b + 1], in_dims[a],
                                     plan.depth_parallel[ci:ci + n_conv], trace,
                                     layer_offset=a))
        ci += n_conv

    def datapath(t, bank, spec, i):
        x, events = conv_datapath(t.data, bank, spec, plan.depth_parallel[i],
                                  net.fmt.frac_bits, passes)
        return Tensor3D(output_dims(t.dims, spec), x), events

    t1 = time.monotonic()
    layer_outputs, events = walk_layers(net, input_t, weights, datapath)
    cycles_per_group = [g.cycles for g in groups]
    return SimResult(
        output=layer_outputs[-1],
        layer_outputs=layer_outputs,
        cycles_per_group=cycles_per_group,
        end_to_end_cycles=sum(cycles_per_group),
        stamps_per_group=[g.stamps for g in groups],
        stall_cycles={name: n for g in groups for name, n in g.stall_cycles.items()},
        saturation_events=events,
        seconds=(t1 - t0, time.monotonic() - t1))
