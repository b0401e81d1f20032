"""The benchmark's probes still reach the code they time, and its passes
still pass their checks.

perfbench/tracing.py wraps functions by (module, attribute) and skips a name
that no longer exists without a word, so a rename would leave its metrics
reading 0. Every simulate workload's check reads run_network's result; a
dse workload's check compares the pass's files with pinned digests.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fusedconv import cli, dataflow, datagen, golden
from fusedconv.config import FusionPlan
from fusedconv.dataflow import simulate_plan
from fusedconv.golden import run_network
from fusedconv.networks import consecutive_convs

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
TARGETS = {name: (module, path)
           for name, module, path in tracing.PROBES + tracing.PASS_LAYERS}


def test_probe_targets_resolve():
    for name in ("golden.run_network", "golden.conv_layer", "golden.maxpool_layer",
                 "dataflow.simulate_group", "dataflow.simulate_plan"):
        module, path = TARGETS[name]
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_oracle_conv_spans_come_from_the_oracle_alone(small_net, small_data):
    # the benchmark books the i-th golden.conv_layer span of a pass to conv
    # layer i mod n, so the simulator must not call conv_layer
    tracer = tracing.Tracer()
    bindings = tracer.install([("golden.conv_layer", *TARGETS["golden.conv_layer"])])
    tensor, banks = small_data
    try:
        tracer.current_pass = 0
        simulate_plan(small_net, tensor, banks, FusionPlan(((0, 2),), (3, 3)))
        tracer.current_pass = 1
        run_network(small_net, tensor, banks)
    finally:
        tracer.current_pass = None
        tracer.uninstall(bindings)
    calls = [tracer.totals(tracer.spans_of_pass(p))["golden.conv_layer"][0]
             for p in (0, 1)]
    assert calls == [0, len(small_net.conv_indices())]


@pytest.mark.parametrize("name", [name for name, wl in workloads.WORKLOADS.items()
                                  if isinstance(wl, workloads.SimulateWorkload)])
def test_simulate_workload_pass_passes_its_check(tmp_path, name):
    # one benchmark pass as perfbench/run.py makes it: the end-to-end probes
    # with run_network's result kept, plus the oracle's conv spans, which
    # the benchmark books to conv layers by their order
    wl = workloads.WORKLOADS[name]
    wl.setup(str(tmp_path / "in"), 1)
    tracer = tracing.Tracer()
    bindings = tracer.install(tracing.PROBES, keep_results=("golden.run_network",))
    bindings += tracer.install([("golden.conv_layer", *TARGETS["golden.conv_layer"])])
    out = str(tmp_path / "out")
    try:
        tracer.current_pass = 0
        assert cli.main(wl.argv(str(tmp_path / "in"), out)) == 0
    finally:
        tracer.current_pass = None
        tracer.uninstall(bindings)
    assert wl.check(out, tracer.results, {}) == []
    totals = tracer.totals(tracer.spans_of_pass(0))
    assert totals["golden.run_network"][0] == 1
    assert totals["golden.conv_layer"][0] == len(wl.net.conv_indices())


@pytest.mark.parametrize("name", [name for name, wl in workloads.WORKLOADS.items()
                                  if isinstance(wl, workloads.DseWorkload)])
def test_dse_workload_pass_passes_its_check(tmp_path, capsys, name):
    # one benchmark pass as perfbench/run.py makes it, checked against the
    # workload's pinned row count and CSV and report digests
    wl = workloads.WORKLOADS[name]
    wl.setup(str(tmp_path / "in"), 1)
    out = str(tmp_path / "out")
    assert cli.main(wl.argv(str(tmp_path / "in"), out)) == 0
    capsys.readouterr()
    assert wl.check(out, {}, {}) == []


@pytest.mark.parametrize("name, int32", [("vgg7-28", True), ("conv1_1-56", True),
                                         ("saturating", False)])
def test_which_workloads_run_the_product_pass_in_int32(tmp_path, monkeypatch, name, int32):
    # generated data keeps every product of a layer within int32; the
    # saturating workload's full-magnitude data does not, so it bypasses the
    # int32 pass. The oracle reuses the simulator's passes, so each conv
    # layer decides once.
    wl = workloads.WORKLOADS[name]
    wl.setup(str(tmp_path / "in"), 1)
    decisions = []
    fits = golden.products_fit_int32

    def spy(max_abs_x, max_abs_w):
        decisions.append(fits(max_abs_x, max_abs_w))
        return decisions[-1]
    monkeypatch.setattr(golden, "products_fit_int32", spy)
    assert cli.main(wl.argv(str(tmp_path / "in"), str(tmp_path / "out"))) == 0
    assert decisions == [int32] * len(wl.net.conv_indices())


def _tap_major_shapes(monkeypatch):
    """The (k, taps) filter shape of each layer that runs the tap-major loop,
    appended as it runs."""
    shapes = []
    tap_major = golden._tap_major

    def spy(filt, *args):
        shapes.append(filt.shape)
        return tap_major(filt, *args)
    monkeypatch.setattr(golden, "_tap_major", spy)
    return shapes


def _shapes_of(net, layers):
    in_dims = net.layer_input_dims()
    return [(net.layers[i].filters, net.layers[i].kernel ** 2 * in_dims[i].depth)
            for i in layers]


@pytest.mark.parametrize("name, layers", [("conv1_1-56", [0]), ("vgg7-28", [0]),
                                          ("saturating", [])],
                         ids=["conv1_1-56", "vgg7-28", "saturating"])
def test_which_workloads_run_the_tap_major_loop(tmp_path, monkeypatch, name, layers):
    # a layer with fewer taps than filters sums tap-major: conv1_1, 27 taps
    # against 64 filters, and of VGG-7 that first layer alone; the saturating
    # layer has 144 taps against 16 filters. No layer of these has more than
    # np.getbufsize() // 3 positions (2,730 at numpy's default) but conv1_1
    # at 56x56. The oracle reuses the simulator's passes, so each such layer
    # runs the loop once.
    wl = workloads.WORKLOADS[name]
    wl.setup(str(tmp_path / "in"), 1)
    shapes = _tap_major_shapes(monkeypatch)
    assert cli.main(wl.argv(str(tmp_path / "in"), str(tmp_path / "out"))) == 0
    assert shapes == _shapes_of(wl.net, layers)


def test_a_layer_past_the_cutoff_sums_tap_major(monkeypatch):
    # two 3x3 convs of 64 filters at 56x56: 3,136 positions each, over
    # np.getbufsize() // 3, so the second one, 576 taps against 64 filters,
    # sums tap-major as well
    net = consecutive_convs(2, input_hw=56)
    shapes = _tap_major_shapes(monkeypatch)
    run_network(net, datagen.generate_tensor(net.input_dims, 1),
                datagen.generate_weights(net, 2))
    assert shapes == _shapes_of(net, [0, 1])


def test_no_value_is_computed_inside_a_schedule(tmp_path):
    # the benchmark's dataflow.loop_self_s and loop_ns_per_cycle read the
    # dataflow.simulate_group spans: they time the schedule alone only while
    # no value is computed under one. Pool values come from
    # golden.maxpool_layer for the simulator and the oracle alike.
    wl = workloads.WORKLOADS["vgg7-28"]
    wl.setup(str(tmp_path / "in"), 1)
    tracer = tracing.Tracer()
    bindings = tracer.install(tracing.PROBES)
    bindings += tracer.install([(name, *TARGETS[name]) for name in
                                ("dataflow.simulate_group", "golden.maxpool_layer")])
    try:
        tracer.current_pass = 0
        assert cli.main(wl.argv(str(tmp_path / "in"), str(tmp_path / "out"))) == 0
    finally:
        tracer.current_pass = None
        tracer.uninstall(bindings)
    spans = tracer.spans_of_pass(0)
    totals = tracer.totals(spans)
    assert totals["dataflow.simulate_group"][0] == 1
    # two pool layers, each run by the simulator and by the oracle
    assert totals["golden.maxpool_layer"][0] == 4
    schedule = tracer.intern("dataflow.simulate_group")
    for i in spans:
        if tracer.names[tracer.name_id[i]] == "golden.maxpool_layer":
            j = tracer.parent[i]
            while j >= 0:
                assert tracer.name_id[j] != schedule
                j = tracer.parent[j]


def test_saturating_pass_builds_each_flagged_group_once(tmp_path, monkeypatch):
    # every value of the saturating workload is flagged. The simulator's
    # conv_values builds each group of flagged products once, clamps its
    # products once, and hands that same array to the adder tree and to the
    # oracle's scan; the oracle then takes the finished layer and calls
    # conv_values no more
    wl = workloads.WORKLOADS["saturating"]
    wl.setup(str(tmp_path / "in"), 1)
    clamped, reduced, oracle_calls = [], [], []
    clamp, scan, values = golden.fx_clamp_count, golden.sequential_sum, golden.conv_values

    def clamp_spy(a):
        if a.ndim == 2:  # a group of products; a running sum is 1-D
            clamped.append(a)
        return clamp(a)

    def scan_spy(prod):
        reduced.append(("scan", prod))
        return scan(prod)

    def datapath_values(x, filt, spec, frac_bits, orders):
        tree, *rest = orders

        def tree_spy(prod):
            reduced.append(("tree", prod))
            return tree(prod)
        return values(x, filt, spec, frac_bits, (tree_spy, *rest))

    monkeypatch.setattr(golden, "fx_clamp_count", clamp_spy)
    monkeypatch.setattr(dataflow, "sequential_sum", scan_spy)
    monkeypatch.setattr(dataflow, "conv_values", datapath_values)
    monkeypatch.setattr(golden, "conv_values",
                        lambda *args: oracle_calls.append(args) or values(*args))
    assert cli.main(wl.argv(str(tmp_path / "in"), str(tmp_path / "out"))) == 0

    spec, d = wl.net.layers[0], wl.net.input_dims.depth
    taps = spec.kernel ** 2 * d
    values_per_group = golden._GROUP // taps
    flagged = wl.net.layer_dims()[0].volume  # all 4,096 values
    assert len(clamped) == -(-flagged // values_per_group)
    assert sum(prod.shape[1] for prod in clamped) == flagged
    assert all(prod.shape[0] == taps for prod in clamped)
    assert [(kind, prod) for kind, prod in reduced] == \
        [(kind, prod) for prod in clamped for kind in ("tree", "scan")]
    assert oracle_calls == []


def test_oracle_takes_the_simulators_arrays_where_nothing_is_flagged(tmp_path):
    # vgg7-28's generated data flags no value, so the oracle's conv outputs
    # are the simulator's arrays themselves, with no second copy
    wl = workloads.WORKLOADS["vgg7-28"]
    wl.setup(str(tmp_path / "in"), 1)
    tracer = tracing.Tracer()
    bindings = tracer.install(tracing.PROBES, keep_results=(
        "golden.run_network", "dataflow.simulate_plan"))
    try:
        tracer.current_pass = 0
        assert cli.main(wl.argv(str(tmp_path / "in"), str(tmp_path / "out"))) == 0
    finally:
        tracer.current_pass = None
        tracer.uninstall(bindings)
    sim = tracer.results["dataflow.simulate_plan"]
    golden_outs, _ = tracer.results["golden.run_network"]
    for i in wl.net.conv_indices():
        assert np.shares_memory(golden_outs[i].data, sim.layer_outputs[i].data)
