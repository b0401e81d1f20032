import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["01_pipeline_walkthrough.py", "02_cost_tables.py",
                                  "03_fusion_tradeoff.py"])
def test_demo_runs(name):
    _run_demo(name)


def test_saturating_probe_runs():
    # demo 04's --saturating case: the datapath at d_par 4 and the
    # simulate-then-check pair count the same events, and so do the oracle
    # alone and the oracle layer taken from the value walk
    stdout = _run_demo("04_full_scale_timing.py", "--saturating")
    events = dict(re.fullmatch(r"\s+(.+?)\s+[\d.]+ ms, events (.+)", line).groups()
                  for line in stdout.splitlines()[1:])
    assert events["simulate_plan + run_network, d_par 4"] == \
        f"({events['conv_datapath d_par 4']}, {events['conv_layer']})"


def test_schedule_probe_prints_the_pinned_work():
    # demo 04's --schedule case: the cycles of each geometry and the passes
    # the max-plus model takes, one where no stage is held
    stdout = _run_demo("04_full_scale_timing.py", "--schedule")
    rows = {m[1]: (m[2], m[3]) for m in (
        re.fullmatch(r"\s+(\S+)\s+([\d,]+) cycles\s+(\d+) passes\s+[\d.]+ ms modeled", line)
        for line in stdout.splitlines()[1:])}
    assert rows == {"conv1_1-56": ("200,827", "1"), "vgg7-28": ("65,410", "1"),
                    "saturating": ("16,467", "1"), "vgg7-224": ("3,327,046", "1"),
                    "vgg7-28-2-6": ("34,735", "2")}
