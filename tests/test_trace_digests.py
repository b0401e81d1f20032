"""SHA-256 pins on the `simulate --trace` file, so a change to how the
schedule is computed or handed to the trace writer cannot move a span, a
track or a byte of the JSON: the small net split after its second layer,
the same plan with a held first group (d_par 3,1, more than one pass of the
model), and VGG-7 at 28x28 split after its second layer."""

import hashlib

import pytest

from fusedconv.cli import main
from fusedconv.config import serialize_network
from fusedconv.networks import small_test_network, vgg_prefix_7

TRACE_PINS = [
    ("small", ["--plan", "0-1|2"],
     "978b536cac529fc26a69be898a4094809dd93b5596f4080148ab927f18c5e236"),
    ("small", ["--plan", "0-2", "--dpar", "3,1"],
     "eef0cdc0c5eb18d85fd4629cf9ed606fe29745ee4ce90613e32dbcb2d97b31ef"),
    ("vgg7-28", ["--plan", "0-1|2-6"],
     "0c07bb93155d63af39586db44b5ccec5e8e611f0311f160645d5f950d42cb371"),
]


@pytest.mark.parametrize("net_name, flags, trace_sha", TRACE_PINS,
                         ids=["small-0-1|2", "small-0-2-dpar-3,1", "vgg7-28-0-1|2-6"])
def test_simulate_trace_digests(tmp_path, capsys, net_name, flags, trace_sha):
    net = {"small": small_test_network(), "vgg7-28": vgg_prefix_7(input_hw=28)}[net_name]
    (tmp_path / "net.json").write_text(serialize_network(net))
    assert main(["gen", "--network", str(tmp_path / "net.json"), "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    assert main(["simulate", "--network", str(tmp_path / "net.json"),
                 "--input", str(tmp_path / "input.dclf"),
                 "--weights", str(tmp_path / "weights.bin"),
                 "--trace", str(tmp_path / "t.json"), *flags]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "t.json").read_bytes()).hexdigest() == trace_sha
