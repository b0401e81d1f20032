"""The benchmark's workloads: inputs made from a seed, the CLI arguments of
one pass, and the checks every pass must satisfy.

Modeled figures (cycles, stamps, stalls, saturation events, DSE files) are
exact and data-independent where stated, so they are checked, not measured.

The inputs are scaled-down forms of the full-size cases (VGG-16 conv1_1 at
224x224, the VGG-7 prefix at 224x224, dse over 13 VGG-16 layers), which take
6 to 130 s per pass: small passes let one run hold enough of them for a
median that is steady on a noisy shared host. Each keeps the mix of work of
its full-size case. None has a published reference figure, so every modeled
result is reported as unvalidated.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import numpy as np

from fusedconv import config, datagen, fileio
from fusedconv.config import ConvSpec, Dims, NetworkSpec, PoolSpec, Q16_16
from fusedconv.fixedpoint import fx_add_sat, fx_mul
from fusedconv.golden import FilterBank, Tensor3D
from fusedconv.networks import VGG7_DEFAULT_DPAR, consecutive_convs, vgg_prefix_7

FREQ_MHZ = 120.0
# exact counts read from a pass's report.json, reported with the layer metrics
MODELED_KEYS = ("dataflow.cycles", "dataflow.stall_cycles",
                "dataflow.saturation_events", "dse.infeasible")
# oracle outputs per pass compared against the loop nest on saturating data
SAMPLE_POSITIONS = 48


def conv_macs(net: NetworkSpec) -> int:
    """Oracle multiply-accumulates: out_h * out_w * k * w^2 * d per conv."""
    outs, ins = net.layer_dims(), net.layer_input_dims()
    return sum(outs[i].height * outs[i].width * outs[i].depth
               * net.layers[i].kernel ** 2 * ins[i].depth
               for i in net.conv_indices())


def conv_output_values(net: NetworkSpec) -> int:
    outs = net.layer_dims()
    return sum(outs[i].volume for i in net.conv_indices())


class Workload:
    name = ""
    net: NetworkSpec

    def setup(self, work_dir: str, seed: int) -> None:
        os.makedirs(work_dir, exist_ok=True)
        with open(os.path.join(work_dir, "net.json"), "w") as fh:
            fh.write(config.serialize_network(self.net))

    def argv(self, work_dir: str, out_dir: str) -> list:
        raise NotImplementedError

    def check(self, out_dir: str, results: dict, state: dict) -> list:
        """Failures of one pass, as messages. `results` holds the return
        values of kept probes; `state` persists across passes of one run."""
        raise NotImplementedError

    def modeled_counts(self, out_dir: str) -> dict:
        """The MODELED_KEYS this workload's report gives."""
        raise NotImplementedError


class SimulateWorkload(Workload):
    saturating = False

    def __init__(self, name, net, cycles, stamps, dpar=None, plan=None):
        self.name, self.net = name, net
        self.dpar, self.plan = dpar, plan
        self.cycles = cycles
        self.stamps = stamps
        self.macs = conv_macs(net)
        self.conv_values = conv_output_values(net)

    def make_inputs(self, seed: int):
        return (datagen.generate_tensor(self.net.input_dims, seed),
                datagen.generate_weights(self.net, seed + 1))

    def setup(self, work_dir, seed):
        super().setup(work_dir, seed)
        tensor, banks = self.make_inputs(seed)
        fileio.write_tensor(os.path.join(work_dir, "input.dclf"), tensor)
        fileio.write_weights(os.path.join(work_dir, "weights.bin"), banks)
        self._seed, self._inputs = seed, (tensor, banks)

    def argv(self, work_dir, out_dir):
        args = ["simulate", "--network", os.path.join(work_dir, "net.json"),
                "--input", os.path.join(work_dir, "input.dclf"),
                "--weights", os.path.join(work_dir, "weights.bin"),
                "--out", out_dir]
        if self.plan:
            args += ["--plan", self.plan]
        if self.dpar:
            args += ["--dpar", ",".join(str(x) for x in self.dpar)]
        return args

    def check(self, out_dir, results, state):
        with open(os.path.join(out_dir, "report.json")) as fh:
            sim = json.load(fh)["simulation"]
        fails = []
        if sim["end_to_end_cycles"] != self.cycles:
            fails.append(f"cycles {sim['end_to_end_cycles']} != {self.cycles}")
        stamps = [[(s["stage"], s["first_out"], s["last_out"], s["emitted"])
                   for s in group] for group in sim["stage_stamps"]]
        if stamps != self.stamps:
            fails.append(f"stage stamps {stamps} != pinned {self.stamps}")
        if not self.saturating:
            if any(sim["stall_cycles"].values()):
                fails.append(f"stall cycles {sim['stall_cycles']}")
            if not sim["golden_match"] or sim["saturation_events"]:
                fails.append(f"golden_match {sim['golden_match']} with "
                             f"{sim['saturation_events']} saturation events")
        golden_out, golden_events = results["golden.run_network"]
        fingerprint = (sim["output_digest"], sim["layer_output_digests"],
                       sim["saturation_events"],
                       fileio.tensor_digest(golden_out[-1]), golden_events)
        if state.setdefault("fingerprint", fingerprint) != fingerprint:
            fails.append("digests or event counts differ from the first pass")
        if self.saturating:
            fails += self._check_oracle_sample(golden_out[-1])
        return fails

    def modeled_counts(self, out_dir):
        with open(os.path.join(out_dir, "report.json")) as fh:
            sim = json.load(fh)["simulation"]
        return {"dataflow.cycles": sim["end_to_end_cycles"],
                "dataflow.stall_cycles": sum(sim["stall_cycles"].values()),
                "dataflow.saturation_events": sim["saturation_events"]}

    def _check_oracle_sample(self, out: Tensor3D):
        """Compare sampled oracle outputs against a loop nest over the public
        fixed-point primitives: rows, columns, then depth, saturating as it
        goes, which is the oracle's documented order."""
        tensor, banks = self._inputs
        spec = self.net.layers[0]
        bank = banks[0].data
        x = np.pad(tensor.data, ((spec.pad,) * 2, (spec.pad,) * 2, (0, 0)))
        rng = random.Random(self._seed)
        fails = []
        for _ in range(SAMPLE_POSITIONS):
            r = rng.randrange(out.dims.height)
            c = rng.randrange(out.dims.width)
            f = rng.randrange(out.dims.depth)
            acc = 0
            for i in range(spec.kernel):
                for j in range(spec.kernel):
                    for ch in range(tensor.dims.depth):
                        p, _ = fx_mul(int(x[r * spec.stride + i, c * spec.stride + j, ch]),
                                      int(bank[f, i, j, ch]), self.net.fmt.frac_bits)
                        acc, _ = fx_add_sat(acc, p)
            if spec.relu:
                acc = max(acc, 0)
            if int(out.data[r, c, f]) != acc:
                fails.append(f"oracle output ({r}, {c}, {f}) = {out.data[r, c, f]}, "
                             f"loop nest gives {acc}")
        return fails


class SaturatingWorkload(SimulateWorkload):
    saturating = True

    def make_inputs(self, seed):
        # activations at full int32 magnitude, weights in [-1.0, +1.0) without
        # the 1/(w*w*d) scaling, so nearly every accumulation clips
        base = datagen.generate_tensor(self.net.input_dims, seed)
        tensor = Tensor3D(base.dims, (base.data.astype(np.int64) << 15).astype(np.int32))
        gen = datagen.SeededGenerator(seed + 1)
        banks = []
        for spec, depth in ((self.net.layers[i], self.net.layer_input_dims()[i].depth)
                            for i in self.net.conv_indices()):
            n = spec.filters * spec.kernel ** 2 * depth
            arr = np.fromiter((gen.next_raw() for _ in range(n)), dtype=np.int32, count=n)
            banks.append(FilterBank(arr.reshape(spec.filters, spec.kernel,
                                                spec.kernel, depth)))
        return tensor, banks


class DseWorkload(Workload):
    def __init__(self, name, net, rows, csv_sha256, report_sha256):
        self.name, self.net = name, net
        self.rows = rows
        self.csv_sha256, self.report_sha256 = csv_sha256, report_sha256

    def argv(self, work_dir, out_dir):
        return ["dse", "--network", os.path.join(work_dir, "net.json"),
                "--out", out_dir]

    def modeled_counts(self, out_dir):
        with open(os.path.join(out_dir, "report.json")) as fh:
            return {"dse.infeasible": len(json.load(fh)["infeasible"])}

    def check(self, out_dir, results, state):
        with open(os.path.join(out_dir, "dse.csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            report_bytes = fh.read()
        report = json.loads(report_bytes)
        fails = []
        rows = csv_bytes.count(b"\n") - 1
        if rows != self.rows:
            fails.append(f"dse.csv has {rows} rows, expected {self.rows}")
        if report["plans_evaluated"] != self.rows or report["infeasible"]:
            fails.append(f"{report['plans_evaluated']} plans evaluated, "
                         f"{len(report['infeasible'])} infeasible")
        for label, blob, pinned in (("dse.csv", csv_bytes, self.csv_sha256),
                                    ("report.json", report_bytes, self.report_sha256)):
            digest = hashlib.sha256(blob).hexdigest()
            if digest != pinned:
                fails.append(f"{label} sha256 {digest} != pinned {pinned}")
        return fails


def _vgg16_prefix(n_layers: int) -> NetworkSpec:
    layers = []
    for filters, n_conv in ((64, 2), (128, 2), (256, 3), (512, 3)):
        layers += [ConvSpec(3, filters, 1, 1, relu=True)] * n_conv
        layers.append(PoolSpec(2, 2))
    return NetworkSpec(Dims(224, 224, 3), tuple(layers[:n_layers]), Q16_16)


WORKLOADS = {w.name: w for w in (
    # one conv, each window held 64 cycles: the per-cycle loop dominates
    SimulateWorkload(
        "conv1_1-56",
        consecutive_convs(1, input_hw=56), cycles=200_827,
        stamps=[[("l0.conv", 187, 200_827, 3136)]]),
    # a 7-stage chain with pools and wide windows: per-window arithmetic and
    # the golden oracle dominate
    SimulateWorkload(
        "vgg7-28",
        vgg_prefix_7(input_hw=28), dpar=VGG7_DEFAULT_DPAR, plan="0-6",
        cycles=65_410,
        stamps=[[("l0.conv", 159, 50_271, 784), ("l1.conv", 2180, 52_292, 784),
                 ("l2.pool", 5702, 52_307, 196), ("l3.conv", 9516, 55_980, 196),
                 ("l4.conv", 13_466, 58_138, 196), ("l5.pool", 18_716, 58_146, 49),
                 ("l6.conv", 26_498, 65_410, 49)]]),
    # nearly every position clips: the oracle's per-position fallback and the
    # simulator's checked reduction run
    SaturatingWorkload(
        "saturating",
        NetworkSpec(Dims(16, 16, 16), (ConvSpec(3, 16, 1, 1, relu=False),), Q16_16),
        dpar=(4,), cycles=16_467,
        stamps=[[("l0.conv", 147, 16_467, 256)]]),
    # no simulation: dse, costmodel and config only
    DseWorkload(
        "dse-vgg16-11",
        _vgg16_prefix(11), rows=1024,
        csv_sha256="c3cb00434f16d3102c4c11aa449ed4d1d77bdcddf2059f4a942c7f86e26e5f32",
        report_sha256="a8faca7dd8b91481f81177c36c40feed0d38b00462d0e15612ec6ebc170917dc"),
)}
