"""In-memory spans around calls into fusedconv, installed from outside the
package by replacing module and class attributes with timing wrappers.

Each span records its name, start, end, parent span and pass id. Spans live in
flat arrays until the run ends, then go out as Chrome trace-event JSON
(viewable in Perfetto or chrome://tracing).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute path). A target whose attribute no longer
# exists is skipped, so a refactor that removes it reports 0 calls.
PROBES = (
    ("dataflow.simulate_plan", "fusedconv.dataflow", "simulate_plan"),
    ("golden.run_network", "fusedconv.golden", "run_network"),
)
SETUP_LAYERS = (
    ("datagen.generate_tensor", "fusedconv.datagen", "generate_tensor"),
    ("datagen.generate_weights", "fusedconv.datagen", "generate_weights"),
)
PASS_LAYERS = (
    ("dataflow.simulate_group", "fusedconv.dataflow", "simulate_group"),
    ("dataflow.put_window", "fusedconv.dataflow", "ConvEngine.put_window"),
    ("golden.conv_layer", "fusedconv.golden", "conv_layer"),
    ("golden.maxpool_layer", "fusedconv.golden", "maxpool_layer"),
    ("golden.fallback", "fusedconv.golden", "_conv_position_sequential"),
    ("config.layer_dims", "fusedconv.config", "NetworkSpec.layer_dims"),
    ("config.validate_plan", "fusedconv.config", "validate_plan"),
    ("dse.sweep", "fusedconv.dse", "sweep"),
    ("dse.assign_depth_parallelism", "fusedconv.dse", "assign_depth_parallelism"),
    ("dse.evaluate_plan", "fusedconv.dse", "evaluate_plan"),
    ("dse.pareto_front", "fusedconv.dse", "pareto_front"),
    ("costmodel.analyze", "fusedconv.costmodel", "analyze"),
    ("fileio.read_tensor", "fusedconv.fileio", "read_tensor"),
    ("fileio.read_weights", "fusedconv.fileio", "read_weights"),
    ("fileio.write_tensor", "fusedconv.fileio", "write_tensor"),
    ("fileio.write_weights", "fusedconv.fileio", "write_weights"),
    ("fileio.tensor_digest", "fusedconv.fileio", "tensor_digest"),
)

# per (pass, span name), at most this many spans go into the trace file;
# the rest are counted in its metadata
TRACE_FILE_CAP = 2000


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.current_pass = None    # spans are recorded only while this is set
        self.results = {}           # span name -> last return value, for kept targets
        self._stack = []

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, keep_result: bool):
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current_pass is None:
                return fn(*args, **kwargs)
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if keep_result:
                tracer.results[name] = result
            return result
        return traced

    def install(self, targets, keep_results=()) -> list:
        """Wrap each target wherever the package binds it: its defining
        module or class, and every fusedconv module that imported it by
        name. Returns the replaced bindings, for `uninstall`."""
        added = []
        for name, module, path in targets:
            self.intern(name)
            owner = importlib.import_module(module)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, name in keep_results)
            holders = [owner]
            if not owners:
                holders += [m for n, m in list(sys.modules.items())
                            if (n == "fusedconv" or n.startswith("fusedconv."))
                            and m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        added.append((holder, key, original))
        return added

    @staticmethod
    def uninstall(bindings) -> None:
        for holder, key, original in reversed(bindings):
            setattr(holder, key, original)

    # --- aggregation ---------------------------------------------------

    def spans_of_pass(self, pass_no: int) -> list:
        return [i for i, p in enumerate(self.pass_id) if p == pass_no]

    def totals(self, spans) -> dict:
        """span name -> (calls, inclusive seconds) over the given spans."""
        out = {name: [0, 0.0] for name in self.names}
        for i in spans:
            t = out[self.names[self.name_id[i]]]
            t[0] += 1
            t[1] += self.end[i] - self.start[i]
        return out

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def children(self, i: int, spans) -> list:
        return [j for j in spans if self.parent[j] == i]

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        kept = {}
        dropped = {}
        events = []
        t0 = self.start[0] if len(self.start) else 0.0
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            key = (self.pass_id[i], name)
            if kept.get(key, 0) >= TRACE_FILE_CAP:
                dropped[f"pass {key[0]}: {name}"] = dropped.get(f"pass {key[0]}: {name}", 0) + 1
                continue
            kept[key] = kept.get(key, 0) + 1
            p = self.parent[i]
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((self.start[i] - t0) * 1e6, 3),
                "dur": round((self.end[i] - self.start[i]) * 1e6, 3),
                "args": {"span": i, "parent": p,
                         "parent_name": self.names[self.name_id[p]] if p >= 0 else None,
                         "pass": self.pass_id[i]}})
        metadata = dict(metadata, spans_recorded=len(self.start),
                        spans_dropped_from_file=dropped)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)
