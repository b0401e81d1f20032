"""The stages of a fused line-buffer pipeline, as cycle-level state machines.

Elements are depth-concatenated positions (all channel values of one spatial
location). Every stage advances at most one element per cycle under a
ready/valid handshake, driven by dataflow.simulate_group's clocks. A stage
carries presence tokens, not values, and keeps each fact in one counter.
Two O(1) guards raise InternalError where it would lose data: a line buffer
building a window whose oldest real element was overwritten, and a pool
element landing in a row slot that has not drained. Windows leave a line
buffer in raster order through a one-slot skid, so the i-th window an engine
latches is output position i, and the line buffer's widx counts the latches.

A stage counts no cycles; the clocks of dataflow.simulate_group do. Besides
its single-cycle `step`, a stage exposes the two shortcuts the clocks take.
`quiet_for` and `skip` cross cycles in which only counters move, in closed
form, as long as no element arrives and the output is not taken. The
schedule rests on one invariant: ready() and `out` cannot change on such a
quiet cycle, because a line buffer's counters and the pool's drain
position move only on cycles where quiet_for is 0 or an element arrives,
and `out` only when an element completes or leaves. So an idle stage's
handshakes are those of its last step. `row_period`, `state` and
`translate` serve the row-periodic fast-forward: the per-period deltas of
the stage's counters and the bounds past which a bottom clamp acts, its
counters with every other field relative to them, and the advance of those
counters by whole periods.
"""

from __future__ import annotations

from collections import deque

from .config import ConvSpec, Dims, InternalError, PoolSpec, ValidationError, \
    check_pipeline_pool, output_dims
from .costmodel import conv3d_latency

_FOREVER = 1 << 62  # quiet_for of a stage that waits on another stage


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
    needed by an unemitted window. It keeps the input position twice, for
    speed: cycle() compares the count n_acc with the window thresholds, and
    ready() reads the coordinate (_r_in, _c_in). `overrides` counts the
    elements accepted that ready()'s unclamped rule would have refused."""

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
        self.overrides = 0
        self._set_threshold()

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
        needed by an unemitted window. The top clamp admits the first w rows
        whatever the window: their slots hold no real row."""
        if self.n_acc >= self.n_elems:
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

    def cycle(self, elem: bool, can_emit: bool) -> bool:
        """One clock: possibly emit the next window (decided on previous-cycle
        fill state), then absorb the offered element, counting it in
        overrides if only ready()'s top clamp admitted it. Returns whether a
        window was emitted."""
        if elem and self._r_in < self.w and not self._free():
            self.overrides += 1
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

    The engine carries window tokens, not values: a flag for its skid slot,
    and the issues left in the held window's sweep. The i-th window latched
    is output position i, so the scalars it yields are dataflow.conv_datapath's
    values there, computed once per layer after the schedule has run.
    """

    def __init__(self, spec: ConvSpec, depth: int, d_par: int):
        if depth % d_par != 0:
            raise ValidationError(f"depth {depth} not divisible by d_par {d_par}")
        self.k = spec.filters
        self.kg = self.k * (depth // d_par)
        self.latency = conv3d_latency(spec.kernel, d_par)
        self.skid = False             # a window waits in the skid slot
        self.cur_left = 0
        self.adv = 0
        self.emq = deque()            # (first_adv, complete_adv) per window
        self.scalars_emitted = 0

    def latch(self):
        """Take the line buffer's next window into the skid slot."""
        if self.skid:
            raise InternalError("window skid slot occupied")
        self.skid = True

    def cycle(self, out_free: bool) -> bool:
        """One clock. The pipeline freezes (no advance, no issue) only when the
        scalar completing an output element would pop with the downstream
        register occupied. Returns whether an output element completed."""
        emq = self.emq
        completed = False
        if emq:
            first, comp = emq[0]
            nxt = self.adv + 1
            if nxt == comp and not out_free:
                return False
            self.adv = nxt
            if nxt >= first:
                self.scalars_emitted += 1
                if nxt == comp:
                    completed = True
                    emq.popleft()
        else:
            self.adv += 1

        if self.cur_left == 0 and self.skid:
            self.skid = False
            self.cur_left = self.kg

        left = self.cur_left
        if left > 0:
            if left == self.k:  # the final depth group's sweep starts
                adv = self.adv
                emq.append((adv + self.latency, adv + self.latency + self.k - 1))
            self.cur_left = left - 1

        return completed

    def quiet_for(self, held: bool) -> int:
        """Upcoming cycles with no latch, queued issue or completed element. A
        held output freezes the engine at the completing scalar for good."""
        if not self.cur_left:
            q = 0 if self.skid else _FOREVER
        elif self.cur_left >= self.k:
            q = self.cur_left - self.k
        else:
            q = self.cur_left if self.skid else _FOREVER
        if not self.emq:
            return q
        c = self.emq[0][1] - self.adv - 1
        if held:
            return _FOREVER if c <= q else q
        return min(q, c)

    def skip(self, n: int, held: bool):
        """Advance n quiet cycles in closed form."""
        emq, adv0 = self.emq, self.adv
        if held and emq:
            n = min(n, emq[0][1] - adv0 - 1)
        self.adv = adv0 + n
        self.cur_left -= min(n, self.cur_left)
        if emq:
            self.scalars_emitted += max(0, adv0 + n + 1 - max(emq[0][0], adv0 + 1))


class ConvStage:
    """Line buffer + conv engine + output-assembly register, element in,
    depth-k element out."""

    def __init__(self, spec: ConvSpec, in_dims: Dims, d_par: int, name="conv"):
        self.name = name
        self.out_dims = output_dims(in_dims, spec)
        self.lb = LineBuffer(in_dims, spec)
        self.engine = ConvEngine(spec, in_dims.depth, d_par)
        self.out = False
        self.out_stall = 0
        self.ready = self.lb.ready  # acceptance is entirely the line buffer's call

    def step(self, in_elem: bool, out_consumed: bool):
        if out_consumed:
            self.out = False
            out_free = True
        else:
            out_free = not self.out
        engine = self.engine
        if engine.cycle(out_free):
            self.out = True
        if self.lb.cycle(in_elem, not engine.skid):
            engine.latch()

    def quiet_for(self) -> int:
        """Upcoming cycles on which the stage does not act on its own: no
        window leaves its line buffer and its engine stays quiet."""
        if not self.engine.skid and self.lb.n_acc >= self.lb._threshold:
            return 0
        return self.engine.quiet_for(self.out)

    def skip(self, n: int):
        if self.out:
            self.out_stall += n
        self.engine.skip(n, self.out)

    def row_period(self, rows: int):
        """Per-period deltas of state()'s counters when the stage takes `rows`
        input rows a period (None where the run sets them; the override
        count's is 0), and (counter, highest) values up to which no bottom
        clamp acts: the input row, first, then the window index."""
        lb = self.lb
        rho_hi = (lb.h - lb.w + lb.p) // lb.s
        return ((rows * lb.w_in, rows, rows // lb.s * lb.w_out, None, None, None, 0),
                ((1, min(lb.h - 1, lb.h_out * lb.s - 1 + lb.w - lb.p)),
                 (2, (rho_hi + 1) * lb.w_out - 1)))

    def state(self):
        """(counters, rest): the counters a row-periodic stretch advances by a
        fixed amount per period, and every other field relative to them."""
        lb, e = self.lb, self.engine
        adv = e.adv
        return ((lb.n_acc, lb._r_in, lb.widx, adv, e.scalars_emitted, self.out_stall,
                 lb.overrides),
                (lb._c_in, self.out, e.cur_left, e.skid,
                 tuple((f - adv, c - adv) for f, c in e.emq)))

    def translate(self, m: int, delta):
        """Advance m periods: add m times delta to every counter of state()."""
        n_acc, rows, wins, adv, scalars, stall, _ = (m * d for d in delta)
        lb, e = self.lb, self.engine
        lb.n_acc += n_acc
        lb._r_in += rows
        lb.widx += wins
        lb._set_threshold()
        e.adv += adv
        e.emq = deque((f + adv, c + adv) for f, c in e.emq)
        e.scalars_emitted += scalars
        self.out_stall += stall


class PoolStage:
    """One row of running maxima, updated in raster order: the first element
    landing in a slot opens it, later covered elements fold into it; the
    pooled row drains serially once its last input row completes. The stage
    keeps only its input coordinate and the next slot to drain (w_out: none);
    an element landing in a slot that has not drained is an invariant breach.
    Requires window <= stride (a single physical row cannot serve
    overlapping vertical windows)."""

    def __init__(self, spec: PoolSpec, in_dims: Dims, name="pool"):
        check_pipeline_pool(spec)
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
        self.out_stall = 0

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

    def quiet_for(self) -> int:
        return 0 if self.drain_pos < self.w_out and not self.out else _FOREVER

    def skip(self, n: int):
        if self.out:
            self.out_stall += n

    def row_period(self, rows: int):
        """As ConvStage.row_period; the only clamp is on the input row."""
        return ((rows, None),
                ((0, min(self.h_in, self.h_out * self.stride) - 1),))

    def state(self):
        return ((self._r_in, self.out_stall),
                (self._c_in, self.drain_pos, self.out))

    def translate(self, m: int, delta):
        rows, stall = (m * d for d in delta)
        self._r_in += rows
        self.out_stall += stall
