"""Byte pins on the `dse` and `analyze` outputs and on demo 03's stdout and
CSV, so a refactor of the cost model or the sweep cannot move a report, a CSV
row or a tie-break; and on `tensor_digest`, which `simulate` reports."""

import hashlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from fusedconv import config
from fusedconv.cli import main
from fusedconv.config import Dims, serialize_network
from fusedconv.costmodel import ResourceBudget
from fusedconv.datagen import generate_tensor
from fusedconv.fileio import tensor_digest
from fusedconv.golden import Tensor3D
from fusedconv.dse import fit_groups, fold_partitions
from fusedconv.networks import small_test_network, vgg_prefix_7


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture
def nets(tmp_path):
    paths = {}
    for name, net in (("vgg7", vgg_prefix_7()), ("small", small_test_network())):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(serialize_network(net))
    return paths


DSE_PINS = [
    ("vgg7", [],
     "5fe9128a1c998d634effee5f51a2cb3dcd30a1c3b48879406c38403d74e72e8b",
     "5bdb42636499619ae22643d311022e574ee977b268801c4c23f7e1b52b53d609"),
    ("vgg7", ["--dsp-max", "1000"],
     "800d307ea8319dbe8b3e248ef4132bb0c54be14baef6c45f4a2f8191a9e3e945",
     "43807f67638cc945d52a71b521227490fb5b82e2ed5a5535416fcfbf51af3891"),
    ("vgg7", ["--dsp-max", "1000", "--reread-weights-per-depth-group",
              "--bytes-per-value", "1"],
     "c44978a550c8d899ea27d2f07c166cfa14aad0a19a63ee55b7637599c85b0c71",
     "9bbec8a4aefa2847aa7efdaff2f1eef7e48e50b8a9b1a8894d6dfb6f1497457c"),
    ("small", [],
     "db1fd3d084b7a15bf58209bcf20ffe834f51d7710d5fabeae5b97e160fb04f16",
     "8be8a23a14b4f2a0ca86410f078042d931b6c5b14140c7cc50697c1dcd27c7a9"),
    # 4 of the 64 plans are infeasible at this budget; the report lists them
    ("vgg7", ["--dsp-max", "50"],
     "fa697d255192982988a6139de336ed51916d41f86f763e999b99189292d1e0fc",
     "57f5e5d5fe875090d87753b2b53aae948e7d6ddc617c02c0e2f8d7b53dbcb519"),
]


@pytest.mark.parametrize("net_name,flags,csv_sha,report_sha", DSE_PINS)
def test_dse_output_digests(nets, tmp_path, capsys, net_name, flags, csv_sha,
                            report_sha):
    out = tmp_path / "out"
    assert main(["dse", "--network", str(nets[net_name]), "--out", str(out)]
                + flags) == 0
    capsys.readouterr()
    assert _sha((out / "dse.csv").read_bytes()) == csv_sha
    assert _sha((out / "report.json").read_bytes()) == report_sha


ANALYZE_PINS = [
    (["--plan", "0-6", "--dpar", "3,64,64,128,64"],
     "4a3dcd29d90ad4a5eaeb6e90ac3b4d1d0fb12413db363287f5cde7c877e68951"),
    (["--plan", "0|1|2|3|4|5|6", "--bytes-per-value", "1"],
     "3d3e518428bdcc7606b23691aae4ff29841a94a7fcf31cdaccc0f0c0fc1ecde3"),
    (["--plan", "0-2|3|4|5|6", "--dpar", "3,64,64,128,64",
      "--reread-weights-per-depth-group"],
     "6090ae1c0dc3677eb8049fa97d18271e57be3ff530b7e4084110002adb9f7327"),
]


@pytest.mark.parametrize("flags,stdout_sha", ANALYZE_PINS)
def test_analyze_stdout_digests(nets, capsys, flags, stdout_sha):
    assert main(["analyze", "--network", str(nets["vgg7"])] + flags) == 0
    assert _sha(capsys.readouterr().out.encode()) == stdout_sha


DEMO_03 = Path(__file__).resolve().parent.parent / "demos" / "03_fusion_tradeoff.py"


def test_fusion_tradeoff_demo_digests(tmp_path, capsys, monkeypatch):
    # the demo's stdout, and the CSV it writes when given a path
    monkeypatch.setattr(sys, "argv", [str(DEMO_03)])
    runpy.run_path(str(DEMO_03), run_name="__main__")
    assert _sha(capsys.readouterr().out.encode()) == \
        "3a50020088f0ded2ce5db34cbdc93bb65dc2cd7e34cd5a2d8c0e3e50f1dcb280"
    csv = tmp_path / "tradeoff.csv"
    monkeypatch.setattr(sys, "argv", [str(DEMO_03), str(csv)])
    runpy.run_path(str(DEMO_03), run_name="__main__")
    capsys.readouterr()
    assert _sha(csv.read_bytes()) == \
        "5fe9128a1c998d634effee5f51a2cb3dcd30a1c3b48879406c38403d74e72e8b"


def test_sweep_reuses_network_geometry(monkeypatch):
    net = vgg_prefix_7()
    calls = []
    real = config.output_dims

    def counting(dims, layer):
        calls.append(layer)
        return real(dims, layer)

    monkeypatch.setattr(config, "output_dims", counting)
    budget = ResourceBudget(dsp_max=1000)
    parts = fold_partitions(net, fit_groups(net, budget), budget)
    assert len(parts.feasible) + len(parts.over_budget) == 64
    assert calls == []


def test_tensor_digest_pins_and_views():
    # the digest is of the little-endian bytes a tensor file stores: pinned
    # on a generated tensor, and taken from a strided view's values
    t = generate_tensor(Dims(4, 5, 3), 1)
    assert tensor_digest(t) == \
        "045c8f333f5679ba8a28e4499ed810ace0db516c7719d22f0c4c4dca2a0e57f9"
    view = t.data[:, ::2, ::-1]
    assert not view.flags.c_contiguous
    assert tensor_digest(Tensor3D(Dims(*view.shape), view)) == \
        _sha(np.ascontiguousarray(view).astype("<i4").tobytes())
