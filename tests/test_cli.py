import contextlib
import io
import json
import re
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fusedconv import golden
from fusedconv.cli import main
from fusedconv.config import serialize_network
from fusedconv.datagen import SeededGenerator
from fusedconv.fileio import read_tensor, write_weights
from fusedconv.networks import small_test_network

from conftest import identity_bank


@pytest.fixture
def workdir(tmp_path):
    net_path = tmp_path / "net.json"
    net_path.write_text(serialize_network(small_test_network()))
    assert main(["gen", "--network", str(net_path), "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    return tmp_path


def test_splitmix_reference_sequence():
    gen = SeededGenerator(1)
    assert gen.next_u64() == 0x910A2DEC89025CC1
    gen = SeededGenerator(1)
    assert [gen.next_raw() for _ in range(4)] == [-56812, -33321, -3801, 58243]


def test_gen_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["gen", "--dims", "5x5x3", "--seed", "1",
                     "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "a" / "input.dclf").read_bytes()
    b = (tmp_path / "b" / "input.dclf").read_bytes()
    assert a == b
    # 75 values; the first one is pinned by the generator definition
    assert len(a) == 17 + 75 * 4
    assert struct.unpack_from("<i", a, 17)[0] == -56812


def test_gen_weights_never_saturate_small_net(workdir):
    # activations in [-1, 1), weights scaled by 1/(w*w*d): a full window
    # accumulation is bounded by 1.0
    rc = main(["simulate", "--network", str(workdir / "net.json"),
               "--input", str(workdir / "input.dclf"),
               "--weights", str(workdir / "weights.bin"),
               "--out", str(workdir / "sim")])
    assert rc == 0
    report = json.loads((workdir / "sim" / "report.json").read_text())
    assert report["simulation"]["saturation_events"] == 0
    assert report["simulation"]["golden_match"] is True


def test_golden_writes_layer_tensors(workdir, capsys):
    rc = main(["golden", "--network", str(workdir / "net.json"),
               "--input", str(workdir / "input.dclf"),
               "--weights", str(workdir / "weights.bin"),
               "--out", str(workdir / "g")])
    assert rc == 0
    dims = []
    for i in range(3):
        t = read_tensor(workdir / "g" / f"layer{i:02d}.dclf")
        dims.append((t.dims.height, t.dims.width, t.dims.depth))
    assert dims == [(5, 5, 3), (5, 5, 3), (2, 2, 3)]
    report = json.loads((workdir / "g" / "report.json").read_text())
    assert report["layer_dims"] == [[5, 5, 3], [5, 5, 3], [2, 2, 3]]


def test_identity_conv_golden_output_equals_input(tmp_path):
    from fusedconv.config import ConvSpec, Dims, NetworkSpec
    net = NetworkSpec(Dims(5, 5, 2), (ConvSpec(3, 2, 1, 1),))
    (tmp_path / "net.json").write_text(serialize_network(net))
    assert main(["gen", "--network", str(tmp_path / "net.json"), "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    write_weights(tmp_path / "weights.bin", [identity_bank(2)])
    assert main(["golden", "--network", str(tmp_path / "net.json"),
                 "--input", str(tmp_path / "input.dclf"),
                 "--weights", str(tmp_path / "weights.bin"),
                 "--out", str(tmp_path / "g")]) == 0
    out = (tmp_path / "g" / "layer00.dclf").read_bytes()
    inp = (tmp_path / "input.dclf").read_bytes()
    assert out[17:] == inp[17:]  # payload identical, header identical too
    assert out == inp


def test_tree_and_oracle_saturating_differently_exits_0(tmp_path):
    # the adder tree sums (2**31-1 + 0) + (1 + -1) without a clamp, the
    # oracle's running sum clamps at + 1: outputs differ, but only the oracle
    # counts a saturation event, so this is no internal error
    import numpy as np
    from fusedconv.config import ConvSpec, Dims, NetworkSpec
    from fusedconv.fileio import write_tensor
    from fusedconv.golden import FilterBank, Tensor3D
    net = NetworkSpec(Dims(1, 1, 4), (ConvSpec(1, 1, relu=False),))
    (tmp_path / "net.json").write_text(serialize_network(net))
    write_tensor(tmp_path / "input.dclf", Tensor3D(
        net.input_dims, np.array([[[2**31 - 1, 0, 1, -1]]], dtype=np.int32)))
    write_weights(tmp_path / "weights.bin",
                  [FilterBank(np.full((1, 1, 1, 4), 1 << 16, dtype=np.int32))])
    assert main(["simulate", "--network", str(tmp_path / "net.json"),
                 "--input", str(tmp_path / "input.dclf"),
                 "--weights", str(tmp_path / "weights.bin"),
                 "--out", str(tmp_path / "sim")]) == 0
    sim = json.loads((tmp_path / "sim" / "report.json").read_text())["simulation"]
    assert sim["golden_match"] is False
    assert sim["saturation_events"] == 0


def test_truncated_weights_reports_byte_counts(workdir, capsys):
    blob = (workdir / "weights.bin").read_bytes()
    (workdir / "weights.bin").write_bytes(blob[:len(blob) // 2])
    rc = main(["golden", "--network", str(workdir / "net.json"),
               "--input", str(workdir / "input.dclf"),
               "--weights", str(workdir / "weights.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "expected" in err and "bytes" in err


def test_simulate_plans_same_digest_different_cycles(workdir):
    args = ["simulate", "--network", str(workdir / "net.json"),
            "--input", str(workdir / "input.dclf"),
            "--weights", str(workdir / "weights.bin")]
    assert main(args + ["--plan", "0-2", "--out", str(workdir / "fused")]) == 0
    assert main(args + ["--plan", "0|1|2", "--out", str(workdir / "split")]) == 0
    fused = json.loads((workdir / "fused" / "report.json").read_text())
    split = json.loads((workdir / "split" / "report.json").read_text())
    assert fused["simulation"]["output_digest"] == split["simulation"]["output_digest"]
    assert fused["simulation"]["end_to_end_cycles"] < \
        split["simulation"]["end_to_end_cycles"]
    assert fused["simulation"]["golden_match"] and split["simulation"]["golden_match"]
    # traffic differs: the split plan round-trips intermediates
    assert fused["cost"]["traffic_bytes"]["total"] < \
        split["cost"]["traffic_bytes"]["total"]


def test_simulate_repeated_byte_identical(workdir, capsys):
    args = ["simulate", "--network", str(workdir / "net.json"),
            "--input", str(workdir / "input.dclf"),
            "--weights", str(workdir / "weights.bin"), "--plan", "0-1|2"]
    outs = []
    stdouts = []
    for sub in ("r1", "r2"):
        assert main(args + ["--out", str(workdir / sub)]) == 0
        stdouts.append(capsys.readouterr().out)
        outs.append(((workdir / sub / "report.json").read_bytes(),
                     (workdir / sub / "final.dclf").read_bytes()))
    assert outs[0] == outs[1]
    assert stdouts[0] == stdouts[1]


def test_simulate_runs_each_conv_product_pass_once(workdir, monkeypatch):
    # the exactness pre-bound opens every product pass
    calls = []
    real = golden.sum_is_exact
    monkeypatch.setattr(golden, "sum_is_exact",
                        lambda *args: calls.append(args) or real(*args))
    assert main(["simulate", "--network", str(workdir / "net.json"),
                 "--input", str(workdir / "input.dclf"),
                 "--weights", str(workdir / "weights.bin")]) == 0
    assert len(calls) == len(small_test_network().conv_indices())


def test_simulate_elapsed_line_splits_simulator_and_oracle(workdir, capsys):
    assert main(["simulate", "--network", str(workdir / "net.json"),
                 "--input", str(workdir / "input.dclf"),
                 "--weights", str(workdir / "weights.bin"), "--plan", "0|1-2"]) == 0
    assert re.fullmatch(r"elapsed: \d+\.\d\ds \(schedule \d+\.\d\ds, values \d+\.\d\ds, "
                        r"oracle \d+\.\d\ds, 2 of 2 conv passes shared\)\n",
                        capsys.readouterr().err)


def test_golden_elapsed_line_splits_oracle_and_write(workdir, capsys):
    assert main(["golden", "--network", str(workdir / "net.json"),
                 "--input", str(workdir / "input.dclf"),
                 "--weights", str(workdir / "weights.bin"), "--out", str(workdir / "g")]) == 0
    assert re.fullmatch(r"elapsed: \d+\.\d\ds \(oracle \d+\.\d\ds, write \d+\.\d\ds\)\n",
                        capsys.readouterr().err)


def test_simulate_report_roundtrips(workdir):
    args = ["simulate", "--network", str(workdir / "net.json"),
            "--input", str(workdir / "input.dclf"),
            "--weights", str(workdir / "weights.bin"),
            "--out", str(workdir / "rt")]
    assert main(args) == 0
    from fusedconv.fileio import canonical_json
    report = json.loads((workdir / "rt" / "report.json").read_text())
    assert json.loads(canonical_json(report)) == report
    assert canonical_json(report) == (workdir / "rt" / "report.json").read_text()


def test_simulate_trace_window_hold(workdir):
    trace_path = workdir / "trace.txt"
    assert main(["simulate", "--network", str(workdir / "net.json"),
                 "--input", str(workdir / "input.dclf"),
                 "--weights", str(workdir / "weights.bin"),
                 "--plan", "0-2", "--trace", str(trace_path)]) == 0
    accepts = {}
    emits = {}
    for line in trace_path.read_text().splitlines():
        parts = line.split()
        stage, kind = parts[1], parts[2]
        if not stage.endswith(".ce"):
            continue
        if kind == "accept":
            accepts.setdefault(stage, []).append((int(parts[0]), int(parts[3])))
        elif kind == "emit":
            emits.setdefault(stage, {}).setdefault(int(parts[3]), []).append(parts[4])
    for stage, latches in accepts.items():
        # windows latch in raster order and are each held for the full
        # k*g-cycle filter sweep before the next latch
        positions = [p for _, p in latches]
        assert positions == sorted(set(positions))
        for (c0, _), (c1, _) in zip(latches, latches[1:]):
            assert c1 - c0 >= 3  # k=3, g=1 on both conv layers
        # every latched window emits its k scalars in filter order
        assert set(emits[stage]) == set(positions)
        assert all(v == ["f0", "f1", "f2"] for v in emits[stage].values())


def test_analyze_reference_numbers(tmp_path, capsys):
    from fusedconv.networks import vgg_prefix_7
    (tmp_path / "vgg.json").write_text(serialize_network(vgg_prefix_7()))
    rc = main(["analyze", "--network", str(tmp_path / "vgg.json"),
               "--plan", "0-6", "--dpar", "3,64,64,128,64"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cost"]["dsp"] == 2907
    assert report["cost"]["traffic_bytes"]["total"] == 6_032_128
    rc = main(["analyze", "--network", str(tmp_path / "vgg.json"),
               "--plan", "0|1|2|3|4|5|6", "--bytes-per-value", "1"])
    report = json.loads(capsys.readouterr().out)
    assert report["cost"]["traffic_bytes"]["total"] == 23_184_064


def test_analyze_frequency_conversion(tmp_path, capsys):
    from fusedconv.networks import vgg_prefix_7
    (tmp_path / "vgg.json").write_text(serialize_network(vgg_prefix_7()))
    rc = main(["analyze", "--network", str(tmp_path / "vgg.json"),
               "--plan", "0-6", "--dpar", "3,64,64,128,64", "--freq-mhz", "120"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    cost = report["cost"]
    assert cost["milliseconds"] == cost["total_estimated_cycles"] / 120_000.0


def test_dse_rows_and_determinism(workdir, capsys):
    args = ["dse", "--network", str(workdir / "net.json"), "--dsp-max", "3600"]
    csvs = []
    for sub in ("d1", "d2"):
        assert main(args + ["--out", str(workdir / sub)]) == 0
        capsys.readouterr()
        csvs.append((workdir / sub / "dse.csv").read_bytes())
    assert csvs[0] == csvs[1]
    lines = csvs[0].decode().splitlines()
    assert lines[0] == "plan,groups,dsp,traffic_bytes,est_cycles,buffer_bits,pareto"
    assert len(lines) == 1 + 4  # 2^(3-1) partitions of the 3-layer network


def test_dse_elapsed_line_splits_fit_fold_and_front(workdir, capsys):
    assert main(["dse", "--network", str(workdir / "net.json")]) == 0
    assert re.fullmatch(r"elapsed: \d+\.\d\ds \(fit \d+\.\d\ds, fold \d+\.\d\ds, "
                        r"front \d+\.\d\ds\)\n", capsys.readouterr().err)


def test_dse_formats_each_plan_once(workdir, capsys, monkeypatch):
    # the fold extends every prefix's plan texts once per group (6 groups of
    # a 3-layer network); the CSV rows, the front and the infeasible entries
    # all read those texts, so no plan is formatted again
    from fusedconv import cli, config, dse
    calls, groups = [], []
    for module in (cli, dse):  # dse imports no plan_to_text, so raising=False
        monkeypatch.setattr(module, "plan_to_text", lambda plan: calls.append(plan)
                            or config.plan_to_text(plan), raising=False)
    extend = dse.extend_plan_texts
    monkeypatch.setattr(dse, "extend_plan_texts",
                        lambda texts, group: groups.append(group) or extend(texts, group))
    assert main(["dse", "--network", str(workdir / "net.json"), "--dsp-max", "50",
                 "--out", str(workdir / "d")]) == 0
    capsys.readouterr()
    report = json.loads((workdir / "d" / "report.json").read_text())
    assert (report["plans_evaluated"], len(report["infeasible"])) == (2, 2)
    assert calls == []
    assert sorted(groups) == [(a, b) for a in range(3) for b in range(a, 3)]


def test_dse_refuses_more_layers_than_the_enumeration_bound(tmp_path, capsys):
    from fusedconv.config import ConvSpec, Dims, NetworkSpec
    net = NetworkSpec(Dims(4, 4, 2), (ConvSpec(1, 2),) * 21)
    (tmp_path / "n.json").write_text(serialize_network(net))
    assert main(["dse", "--network", str(tmp_path / "n.json")]) == 2
    assert "n_layers 21 exceeds enumeration bound 20" in capsys.readouterr().err


def test_dse_single_layer_network(tmp_path, capsys):
    from fusedconv.config import ConvSpec, Dims, NetworkSpec
    net = NetworkSpec(Dims(8, 8, 2), (ConvSpec(3, 4, 1, 1),))
    (tmp_path / "n.json").write_text(serialize_network(net))
    assert main(["dse", "--network", str(tmp_path / "n.json")]) == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if l and not l.startswith("plan,")
                and not l.startswith("dse:")]) == 1


def test_exit_codes(tmp_path, capsys):
    assert main(["bogus-subcommand"]) == 1
    assert main(["golden", "--network", str(tmp_path / "missing.json"),
                 "--input", "x", "--weights", "y"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"input": {"h": 5, "w": 5, "d": 3}, "layers": []}')
    assert main(["analyze", "--network", str(bad)]) == 2
    capsys.readouterr()


def test_gen_requires_seed_and_source(tmp_path, capsys):
    assert main(["gen", "--dims", "4x4x1"]) == 1
    assert main(["gen", "--seed", "1"]) == 1
    assert main(["gen", "--seed", "1", "--dims", "nonsense"]) == 1
    capsys.readouterr()


OVERSIZED = [(10 ** 30, 1, 1), (1 << 32, 1, 1), ((1 << 32) - 1, (1 << 32) - 1, 1)]


@pytest.mark.parametrize("h, w, d", OVERSIZED)
def test_oversized_dims_exit_2_before_allocating(tmp_path, capsys, monkeypatch, h, w, d):
    # each dimension must fit the tensor header's u32 field, and the volume's
    # 4-byte encoding an array's intp size
    import fusedconv.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("generated a tensor for oversized dims")

    monkeypatch.setattr(cli, "generate_tensor", unreachable)
    assert main(["gen", "--dims", f"{h}x{w}x{d}", "--seed", "1",
                 "--out", str(tmp_path)]) == 2
    assert "error: dims: " in capsys.readouterr().err
    doc = {"input": {"h": h, "w": w, "d": d},
           "layers": [{"type": "conv", "kernel": 1, "filters": 1}]}
    (tmp_path / "big.json").write_text(json.dumps(doc))
    for args in (["gen", "--seed", "1", "--out", str(tmp_path)], ["analyze"], ["dse"]):
        assert main(args + ["--network", str(tmp_path / "big.json")]) == 2
        assert "error: dims: " in capsys.readouterr().err
    assert not (tmp_path / "input.dclf").exists()


INPUT_FILES = ("net.json", "input.dclf", "weights.bin")
# per file: a well-formed header or document with oversized dimensions
OVERSIZED_FILES = {
    "net.json": json.dumps({"input": {"h": 10 ** 30, "w": 5, "d": 3},
                            "layers": [{"type": "conv", "kernel": 3, "filters": 3}]}).encode(),
    "input.dclf": b"DCLF\x01" + struct.pack("<III", (1 << 32) - 1, (1 << 32) - 1, 1),
    "weights.bin": struct.pack("<III", (1 << 32) - 1, 3, 3),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The small network's three input files, as bytes."""
    path = tmp_path_factory.mktemp("pristine")
    (path / "net.json").write_text(serialize_network(small_test_network()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--network", str(path / "net.json"), "--seed", "1",
                     "--out", str(path)]) == 0
    return {name: (path / name).read_bytes() for name in INPUT_FILES}


@given(which=st.sampled_from(INPUT_FILES),
       how=st.sampled_from(["truncate", "pad", "garbage", "oversized"]),
       cut=st.integers(0, 1 << 16),
       # a document padded with whitespace alone would still be valid
       junk=st.binary(min_size=1, max_size=64).filter(lambda b: b.strip(b" \t\r\n")))
def test_mangled_input_files_exit_1_2_or_3(pristine, which, how, cut, junk):
    blob = pristine[which].rstrip()
    blob = {"truncate": blob[:cut % len(blob)], "pad": pristine[which] + junk,
            "garbage": junk, "oversized": OVERSIZED_FILES[which]}[how]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in INPUT_FILES:
            paths[name] = Path(tmp) / name
            paths[name].write_bytes(blob if name == which else pristine[name])
        runs = [["golden", "--input", str(paths["input.dclf"]), "--weights",
                 str(paths["weights.bin"]), "--out", str(Path(tmp) / "g")]]
        if which == "net.json":
            runs.append(["analyze"])
        for args in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(args + ["--network", str(paths["net.json"])])
            assert rc in (1, 2, 3), (args[0], which, how, blob[:40])
            assert err.getvalue().startswith(("error: ", "internal error: "))


def test_largest_header_dims_accepted():
    from fusedconv.config import DIM_MAX, Dims
    assert Dims(DIM_MAX, 1, 1).volume == DIM_MAX


@pytest.mark.parametrize("length", range(17))
def test_short_tensor_file_exits_1(workdir, capsys, length):
    short = workdir / "short.dclf"
    short.write_bytes((workdir / "input.dclf").read_bytes()[:length])
    for cmd in ("golden", "simulate"):
        assert main([cmd, "--network", str(workdir / "net.json"),
                     "--input", str(short), "--weights", str(workdir / "weights.bin"),
                     "--out", str(workdir / cmd)]) == 1
    capsys.readouterr()


def test_dse_infeasible_plans_use_plan_syntax(tmp_path, capsys):
    from fusedconv.config import parse_plan, plan_to_text
    from fusedconv.networks import vgg_prefix_7
    net = vgg_prefix_7()
    (tmp_path / "vgg.json").write_text(serialize_network(net))
    assert main(["dse", "--network", str(tmp_path / "vgg.json"), "--dsp-max", "50",
                 "--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()
    infeasible = json.loads((tmp_path / "d" / "report.json").read_text())["infeasible"]
    assert len(infeasible) == 4
    for entry in infeasible:
        assert plan_to_text(parse_plan(entry["plan"], net)) == entry["plan"]


def test_overlapping_pool_refused_by_every_plan_command(tmp_path, capsys):
    from fusedconv.config import ConvSpec, Dims, NetworkSpec, PoolSpec
    net = NetworkSpec(Dims(9, 9, 2), (ConvSpec(3, 2, 1, 1, relu=True), PoolSpec(3, 2)))
    (tmp_path / "n.json").write_text(serialize_network(net))
    assert main(["gen", "--network", str(tmp_path / "n.json"), "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    data = ["--input", str(tmp_path / "input.dclf"),
            "--weights", str(tmp_path / "weights.bin")]
    assert main(["golden", "--network", str(tmp_path / "n.json"),
                 "--out", str(tmp_path / "g")] + data) == 0
    capsys.readouterr()
    for args in (["simulate"] + data, ["analyze"], ["dse"]):
        assert main(args + ["--network", str(tmp_path / "n.json")]) == 2
        err = capsys.readouterr().err
        assert "requires window <= stride, got 3 > 2" in err
        assert "DSP" not in err


@pytest.mark.parametrize("freq", ["0", "-5", "nan", "inf", "abc",
                                  "1e-310", "1e-300", "0.0009"])
def test_bad_frequency_exits_1_before_any_work(workdir, capsys, monkeypatch, freq):
    import fusedconv.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("ran with a rejected frequency")

    monkeypatch.setattr(cli, "simulate_plan", unreachable)
    data = ["--input", str(workdir / "input.dclf"),
            "--weights", str(workdir / "weights.bin")]
    for args in (["simulate"] + data, ["analyze"]):
        assert main(args + ["--network", str(workdir / "net.json"),
                            "--freq-mhz", freq]) == 1
        err = capsys.readouterr().err
        assert f"--freq-mhz: invalid frequency value: '{freq}'" in err


def test_lowest_frequency_accepted(workdir, capsys):
    # 0.001 MHz is 1 cycle per ms: the report's milliseconds equal its cycles
    assert main(["analyze", "--network", str(workdir / "net.json"),
                 "--freq-mhz", "0.001"]) == 0
    cost = json.loads(capsys.readouterr().out)["cost"]
    assert cost["milliseconds"] == cost["total_estimated_cycles"]
    assert main(["simulate", "--network", str(workdir / "net.json"),
                 "--input", str(workdir / "input.dclf"),
                 "--weights", str(workdir / "weights.bin"),
                 "--freq-mhz", "0.001", "--out", str(workdir / "run")]) == 0
    report = json.loads((workdir / "run" / "report.json").read_text())
    sim = report["simulation"]
    assert sim["milliseconds"] == sim["end_to_end_cycles"]


def test_dse_has_no_frequency_flag(workdir, capsys):
    assert main(["dse", "--network", str(workdir / "net.json"),
                 "--freq-mhz", "120"]) == 1
    assert "unrecognized arguments: --freq-mhz" in capsys.readouterr().err
