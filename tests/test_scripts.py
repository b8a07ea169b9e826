"""The demo scripts run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda path: path.name
)
def test_demo_script_exits_zero(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr


def test_commute_experiment_at_the_largest_prime():
    # the joint-kernel route against both transform orders up to 2**31 - 1
    proc = _run(ROOT / "scripts" / "commute_experiment.py",
                "--fields", "2,65537,2147483647", "--trials", "50")
    assert proc.returncode == 0, proc.stderr
    assert "F_2147483647: " in proc.stdout
    assert proc.stdout.endswith("all routes agree\n")


def test_depth_examples_at_the_largest_prime():
    # the constructed chain over F_(2**31 - 1), where products leave int64
    proc = _run(ROOT / "scripts" / "depth_examples.py", "--field", "2147483647")
    assert proc.returncode == 0, proc.stderr
    assert "constructed chain over F_2147483647 for O(3)+O(1)+O(0)" in proc.stdout
    assert "section dims along the chain" in proc.stdout


def test_distance_throughput_on_its_smallest_case():
    proc = _run(ROOT / "scripts" / "distance_throughput.py",
                "--case", "criterion8-line", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["code", "p", "n", "k", "classes", "d", "ms", "classes/s"]
    assert row.split()[:6] == ["criterion8-line", "7", "56", "2", "8", "49"]
