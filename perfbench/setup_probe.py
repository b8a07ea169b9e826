"""Set-up probe: a fresh interpreter imports hierdepth and builds the inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

run.py times this script as a child process; its wall time is what every
`hierdepth` invocation pays before its first request, plus the benchmark's
input generation. It imports nothing of the harness beyond the generators.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hierdepth.cli  # noqa: E402,F401
import workloads  # noqa: E402

work_root = HERE / ".work"
work_root.mkdir(exist_ok=True)
workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=work_root))
try:
    workloads.prepare(sys.argv[1], int(sys.argv[2]), workdir)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
