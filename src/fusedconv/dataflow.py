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

Most cycles are quiet: a conv engine holding a window for its k*g filter
sweep moves only counters. When the source cannot feed the first stage, each
stage reports how many upcoming cycles it stays quiet, and the clock jumps by
the minimum, advancing those counters in closed form; every other cycle runs
each stage's single-cycle `step`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import ConvSpec, Dims, FusionPlan, InternalError, NetworkSpec, PoolSpec, \
    ValidationError, check_pipeline_pool, output_dims, validate_plan
from .costmodel import conv3d_latency
from .fixedpoint import I32_MAX, fx_clamp_count, sum_is_exact
from .golden import FilterBank, Tensor3D

_FOREVER = 1 << 62  # quiet_for of a stage that waits on another stage


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
    """w rows of padded width; emits the next raster-order window when all of
    its real (non synthesized-padding) elements have arrived. Top and bottom
    padding rows are synthesized at window-build time, never stored."""

    def __init__(self, in_dims: Dims, spec: ConvSpec):
        self.h, self.w_in, self.d = in_dims.height, in_dims.width, in_dims.depth
        self.w = spec.kernel
        self.s = spec.stride
        self.p = spec.pad
        out = output_dims(in_dims, spec)
        self.h_out, self.w_out = out.height, out.width
        self.n_windows = out.height * out.width
        self.n_elems = self.h * self.w_in
        self.ring = np.zeros((self.w, self.w_in + 2 * self.p, self.d), dtype=np.int32)
        self.n_acc = 0
        self._r_in = 0
        self._c_in = 0
        self.widx = 0
        self._winbuf = np.empty((self.w, self.w, self.d), dtype=np.int32)
        self._set_threshold()
        self._rkey = (-1, -1)
        self._rval = False

    def _set_threshold(self):
        """Accepted-element count at which the next raster window is complete
        (one past the last element once every window is out)."""
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

    def _build(self):
        rho, gam = divmod(self.widx, self.w_out)
        win = self._winbuf
        top = rho * self.s - self.p
        c0 = gam * self.s
        ring = self.ring
        w = self.w
        for i in range(w):
            rr = top + i
            if 0 <= rr < self.h:
                win[i] = ring[rr % w, c0:c0 + w]
            else:
                win[i] = 0
        return win

    def cycle(self, elem, can_emit: bool):
        """One clock: possibly emit the next window (decided on previous-cycle
        fill state), then absorb the offered element. Returns the window
        (a reused buffer valid until the next cycle) or None."""
        out = None
        if can_emit and self.n_acc >= self._threshold:
            out = self._build()
            self.widx += 1
            self._set_threshold()
        if elem is not None:
            self.ring[self._r_in % self.w, self.p + self._c_in] = elem
            self.n_acc += 1
            c = self._c_in + 1
            if c == self.w_in:
                self._c_in = 0
                self._r_in += 1
            else:
                self._c_in = c
        return out


class ConvEngine:
    """Holds one window for k*g cycles (filters swept per serial depth group,
    groups outermost) while an abstract pipeline of depth conv3d_latency
    turns one issue per cycle into one scalar per cycle. Partial sums across
    serial depth groups combine in a per-filter accumulator row; only the
    final group's scalars leave the engine, in filter order.

    All k*g scalar values for a window are precomputed, in the adder-tree
    order the hardware would use, when the window is latched; the per-cycle
    work is pure schedule bookkeeping. Filter taps and channels are zero
    padded to powers of two so the pairwise tree needs no per-call reshaping
    (summing a zero can neither change a value nor saturate).
    """

    def __init__(self, bank: FilterBank, d_par: int, relu: bool, frac_bits: int,
                 trace=None, name=""):
        k, w, d = bank.k, bank.kernel, bank.depth
        if d % d_par != 0:
            raise ValidationError(f"depth {d} not divisible by d_par {d_par}")
        self.k = k
        self.d = d
        self.g = d // d_par
        self.kg = k * self.g
        self.d_par = d_par
        self.taps = w * w
        self.relu = relu
        self.frac_bits = frac_bits
        self.latency = conv3d_latency(w, d_par)
        tp = 1 << (self.taps - 1).bit_length()
        dpp = 1 << (d_par - 1).bit_length()
        # (k, g, dpp, tp): taps grouped per serial depth group, channel planes
        # outer, the w*w 2-D taps innermost, zero padded to power-of-two sizes
        filt = np.zeros((k, self.g, dpp, tp), dtype=np.int64)
        filt[:, :, :d_par, :self.taps] = (
            bank.data.reshape(k, self.taps, d).transpose(0, 2, 1)
            .reshape(k, self.g, d_par, self.taps))
        self.filt = filt
        self._wbuf = np.zeros((self.g, dpp, tp), dtype=np.int64)
        self._pbuf = np.empty((k, self.g, dpp, tp), dtype=np.int64)
        self._final_first = (self.g - 1) * k
        # unpadded (k, w*w*d) taps, summed directly where sum_is_exact holds
        self._flat = bank.data.reshape(k, -1).astype(np.int64)
        self._flat_buf = np.empty_like(self._flat)
        self._wsum = int(np.abs(self._flat).sum(axis=1).max())

        self.next_win = None          # precomputed (vec, sat_events, window_index)
        self.cur_vec = None
        self.cur_win_idx = -1
        self.cur_left = 0
        self.issues_done = 0
        self.adv = 0
        self.emq = deque()            # (first_adv, complete_adv, vec, window_index)
        self.windows_latched = 0
        self.scalars_emitted = 0
        self.saturation_events = 0
        self.trace = trace
        self.name = name

    def _reduce(self, win: np.ndarray):
        """All k*g issue results for one window: per-plane adder tree over the
        2-D taps, tree over the parallel channels, saturating serial
        accumulation across depth groups. Returns ((k,) int32, events).

        Every partial in that reduction is bounded in magnitude by the sum of
        absolute products, so when that bound stays in the 32-bit range the
        saturating reduction equals the plain exact sum and no per-level
        checks are needed; a window passing sum_is_exact skips even that."""
        events = 0
        if sum_is_exact(max(int(win.max()), -int(win.min())), self._wsum,
                        self._flat.shape[1], self.frac_bits):
            prod = np.multiply(self._flat, win.reshape(-1), out=self._flat_buf)
            prod >>= self.frac_bits
            acc = prod.sum(axis=1)
        else:
            self._wbuf[:, :self.d_par, :self.taps] = (
                win.reshape(self.taps, self.d).T.reshape(self.g, self.d_par, self.taps))
            prod = self._pbuf
            np.multiply(self.filt, self._wbuf[None], out=prod)
            prod >>= self.frac_bits
            if int(np.abs(prod).sum(axis=(1, 2, 3)).max()) <= I32_MAX:
                acc = prod.sum(axis=(1, 2, 3))
            else:
                acc, events = self._reduce_saturating(prod)
        if self.relu:
            acc = np.maximum(acc, 0)
        return acc.astype(np.int32), events

    def _reduce_saturating(self, prod: np.ndarray):
        """Checked path: clamp and count at every product, adder-tree level
        and serial accumulation step. The taps of one depth group are
        contiguous powers of two, channel planes outer, so one pairwise tree
        over them is the tree over the 2-D taps followed by the tree over the
        parallel channels."""
        events = fx_clamp_count(prod)
        a = prod.reshape(self.k, self.g, -1)
        while a.shape[-1] > 1:
            a = a[..., 0::2] + a[..., 1::2]
            events += fx_clamp_count(a)
        acc = a[:, 0, 0]
        for j in range(1, self.g):
            acc = acc + a[:, j, 0]
            events += fx_clamp_count(acc)
        return acc, events

    def put_window(self, win: np.ndarray):
        """Latch a window into the skid slot, precomputing its k*g reduction."""
        if self.next_win is not None:
            raise InternalError("window skid slot occupied")
        vec, events = self._reduce(win)
        self.next_win = (vec, events, self.windows_latched)
        self.windows_latched += 1

    def cycle(self, out_free: bool, cycle_no: int = 0):
        """One clock. The pipeline freezes (no advance, no issue) only when the
        scalar completing an output element would pop with the downstream
        register occupied. Returns the completed (k,) element or None."""
        emq = self.emq
        completed = None
        if emq:
            first, comp, vec, widx = emq[0]
            nxt = self.adv + 1
            if nxt == comp and not out_free:
                return None
            self.adv = nxt
            if nxt >= first:
                self.scalars_emitted += 1
                if self.trace is not None:
                    self.trace.event(cycle_no, self.name, "emit", widx,
                                     f"f{nxt - first}")
                if nxt == comp:
                    completed = vec
                    emq.popleft()
        else:
            self.adv += 1

        if self.cur_left == 0:
            nw = self.next_win
            if nw is not None:
                self.cur_vec, sat, self.cur_win_idx = nw
                self.next_win = None
                self.cur_left = self.kg
                self.issues_done = 0
                self.saturation_events += sat
                if self.trace is not None:
                    self.trace.event(cycle_no, self.name, "accept", self.cur_win_idx)

        left = self.cur_left
        if left > 0:
            if self.issues_done == self._final_first:
                adv = self.adv
                emq.append((adv + self.latency,
                            adv + self.latency + self.k - 1,
                            self.cur_vec, self.cur_win_idx))
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
        first, _, _, widx = emq[0]
        lo = max(first, adv0 + 1)
        self.scalars_emitted += max(0, adv0 + n + 1 - lo)
        if self.trace is None:
            return []
        return [(cycle_no + a - adv0, self.name, "emit", widx, f"f{a - first}")
                for a in range(lo, adv0 + n + 1)]


class ConvStage:
    """Line buffer + conv engine + output-assembly register, element in,
    depth-k element out."""

    def __init__(self, spec: ConvSpec, in_dims: Dims, bank: FilterBank, d_par: int,
                 frac_bits: int, trace=None, name="conv"):
        self.name = name
        self.out_dims = output_dims(in_dims, spec)
        self.lb = LineBuffer(in_dims, spec)
        self.engine = ConvEngine(bank, d_par, spec.relu, frac_bits,
                                 trace=trace, name=f"{name}.ce")
        self.out = None
        self.out_stall = 0
        self.trace = trace
        self.ready = self.lb.ready  # acceptance is entirely the line buffer's call

    def step(self, cycle_no: int, in_elem, out_consumed: bool):
        if out_consumed:
            self.out = None
            out_free = True
        else:
            out_free = self.out is None
        engine = self.engine
        vec = engine.cycle(out_free, cycle_no)
        if vec is not None:
            self.out = vec
        win = self.lb.cycle(in_elem, engine.next_win is None)
        if win is not None:
            engine.put_window(win)
        if in_elem is not None and self.trace is not None:
            self.trace.event(cycle_no, f"{self.name}.lb", "accept", self.lb.n_acc - 1)

    def quiet_for(self, blocked: bool) -> int:
        """Upcoming quiet cycles, given whether downstream refuses elements."""
        held = self.out is not None
        if (held and not blocked) or (self.engine.next_win is None
                                      and self.lb.n_acc >= self.lb._threshold):
            return 0
        return self.engine.quiet_for(held)

    def skip(self, n: int, cycle_no: int):
        if self.out is not None:
            self.out_stall += n
        return self.engine.skip(n, cycle_no, self.out is not None)

    @property
    def saturation_events(self):
        return self.engine.saturation_events


class PoolStage:
    """One row of running maxima, updated in raster order: the first element
    landing in a slot opens it, later covered elements replace it with the
    max; the pooled row drains serially once its last input row completes.
    Requires window <= stride (a single physical row cannot serve
    overlapping vertical windows)."""

    def __init__(self, spec: PoolSpec, in_dims: Dims, trace=None, name="pool"):
        check_pipeline_pool(spec)
        self.name = name
        self.out_dims = output_dims(in_dims, spec)
        self.h_in, self.w_in = in_dims.height, in_dims.width
        self.window = spec.window
        self.stride = spec.stride
        self.h_out, self.w_out = self.out_dims.height, self.out_dims.width
        self.n_elems = self.h_in * self.w_in
        self.maxima = np.zeros((self.w_out, in_dims.depth), dtype=np.int32)
        self.n_acc = 0
        self._r_in = 0
        self._c_in = 0
        self.pending = False
        self.drain_pos = 0
        self.out = None
        self.out_stall = 0
        self.trace = trace
        self.saturation_events = 0
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

    def step(self, cycle_no: int, in_elem, out_consumed: bool):
        if out_consumed:
            self.out = None
        if self.out is None and self.pending:
            self.out = self.maxima[self.drain_pos].copy()
            if self.trace is not None:
                self.trace.event(cycle_no, self.name, "emit", self.drain_pos)
            self.drain_pos += 1
            if self.drain_pos == self.w_out:
                self.pending = False
        if in_elem is None:
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
            if rp == 0 and cp == 0:
                self.maxima[c_out] = in_elem
            else:
                np.maximum(self.maxima[c_out], in_elem, out=self.maxima[c_out])
            if rp == self.window - 1 and cp == self.window - 1 \
                    and c_out == self.w_out - 1:
                self.pending = True
                self.drain_pos = 0
        if self.trace is not None:
            self.trace.event(cycle_no, self.name, "accept", self.n_acc - 1)

    def quiet_for(self, blocked: bool) -> int:
        if self.out is not None:
            return _FOREVER if blocked else 0
        return 0 if self.pending else _FOREVER

    def skip(self, n: int, cycle_no: int):
        if self.out is not None:
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
    output: Tensor3D
    layer_outputs: list
    cycles: int
    stamps: list
    stall_cycles: dict
    saturation_events: int


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


def _build_stages(layers, in_dims, banks, d_pars, frac_bits, trace, layer_offset):
    stages = []
    dims = in_dims
    bi = 0
    for off, layer in enumerate(layers):
        name = f"l{layer_offset + off}"
        if isinstance(layer, ConvSpec):
            stages.append(ConvStage(layer, dims, banks[bi], d_pars[bi],
                                    frac_bits, trace, name=f"{name}.conv"))
            bi += 1
        else:
            stages.append(PoolStage(layer, dims, trace, name=f"{name}.pool"))
        dims = stages[-1].out_dims
    return stages


def simulate_group(layers, input_t: Tensor3D, banks, d_pars, frac_bits: int = 16,
                   trace=None, layer_offset: int = 0,
                   max_cycles: int = None) -> GroupResult:
    """Run one fused group: the input streams one element per cycle while the
    chain accepts, then flush cycles run until every stage has emitted its
    complete output (trailing rows a pool discards still flow through). The
    group's cycle count is the stamp of the final stage's last element."""
    if not layers:
        raise ValidationError("fused group must contain at least one layer")
    stages = _build_stages(layers, input_t.dims, banks, d_pars, frac_bits,
                           trace, layer_offset)
    n_stages = len(stages)

    src = input_t.data.reshape(-1, input_t.dims.depth)
    n_src = src.shape[0]
    src_idx = 0

    counts = [0] * n_stages
    captures = [np.empty((st.out_dims.height * st.out_dims.width, st.out_dims.depth),
                         dtype=np.int32) for st in stages]
    expected = [cap.shape[0] for cap in captures]
    remaining = n_stages

    stamps = [StageStamp(st.name) for st in stages]
    readys = [st.ready for st in stages]
    steps = [st.step for st in stages]
    quiet = [st.quiet_for for st in stages]

    if max_cycles is None:
        budget = n_src
        for st in stages:
            per = st.engine.kg if isinstance(st, ConvStage) else 1
            budget += st.out_dims.height * st.out_dims.width * per
        max_cycles = 16 * budget + 100_000

    cycle = 0
    consume = [False] * n_stages
    pend = [None] * n_stages
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
            if n:
                emits = [e for st in stages for e in st.skip(n, cycle)]
                emits.sort(key=lambda e: e[0])  # cycle first, then stage
                for e in emits:
                    trace.event(*e)
                cycle += n
        cycle += 1
        if cycle > max_cycles:
            raise InternalError(
                f"pipeline made no progress within {max_cycles} cycles "
                f"(collected {counts[-1]}/{expected[-1]})")

        ready_down = True
        for i in range(n_stages - 1, -1, -1):
            st = stages[i]
            o = st.out
            consume[i] = False
            if o is not None:
                if ready_down:
                    consume[i] = True
                    pend[i] = o
                else:
                    st.out_stall += 1
            ready_down = readys[i]()

        carried = None
        if ready_down and src_idx < n_src:
            carried = src[src_idx]
            src_idx += 1

        for i in stage_range:
            c = consume[i]
            steps[i](cycle, carried, c)
            if c:
                o = pend[i]
                captures[i][counts[i]] = o
                counts[i] += 1
                if counts[i] == expected[i]:
                    remaining -= 1
                stamp = stamps[i]
                if stamp.emitted == 0:
                    stamp.first_out = cycle
                stamp.last_out = cycle
                stamp.emitted += 1
                carried = o
            else:
                carried = None

    layer_outputs = []
    for st, cap in zip(stages, captures):
        od = st.out_dims
        layer_outputs.append(Tensor3D(od, cap.reshape(od.height, od.width, od.depth)))

    return GroupResult(
        output=layer_outputs[-1],
        layer_outputs=layer_outputs,
        cycles=stamps[-1].last_out,
        stamps=stamps,
        stall_cycles={st.name: st.out_stall for st in stages},
        saturation_events=sum(st.saturation_events for st in stages))


def simulate_plan(net: NetworkSpec, input_t: Tensor3D, weights, plan: FusionPlan,
                  trace=None) -> SimResult:
    """Run the plan's groups sequentially; each group boundary round-trips a
    full tensor (the traffic model charges it; transfer cycles are not
    simulated). Total cycles are the sum of group cycles."""
    validate_plan(plan, net)
    if input_t.dims != net.input_dims:
        raise ValidationError(
            f"input tensor dims {input_t.dims} != network input {net.input_dims}")
    conv_idx = net.conv_indices()
    if len(weights) != len(conv_idx):
        raise ValidationError(
            f"{len(weights)} filter banks supplied for {len(conv_idx)} conv layers")
    dpar_of = dict(zip(conv_idx, plan.depth_parallel))

    cur = input_t
    layer_outputs = []
    cycles_per_group = []
    stamps_per_group = []
    stalls = {}
    saturation = 0
    for a, b in plan.groups:
        group_layers = net.layers[a:b + 1]
        group_banks = [weights[conv_idx.index(li)]
                       for li in range(a, b + 1) if li in dpar_of]
        group_dpars = [dpar_of[li] for li in range(a, b + 1) if li in dpar_of]
        res = simulate_group(group_layers, cur, group_banks, group_dpars,
                             net.fmt.frac_bits, trace, layer_offset=a)
        cur = res.output
        layer_outputs.extend(res.layer_outputs)
        cycles_per_group.append(res.cycles)
        stamps_per_group.append(res.stamps)
        stalls.update(res.stall_cycles)
        saturation += res.saturation_events

    return SimResult(
        output=cur,
        layer_outputs=layer_outputs,
        cycles_per_group=cycles_per_group,
        end_to_end_cycles=sum(cycles_per_group),
        stamps_per_group=stamps_per_group,
        stall_cycles=stalls,
        saturation_events=saturation)
