"""The benchmark harness still runs against the package.

``perfbench/selfcheck.py`` runs every benchmark workload at tiny sizes,
traced and untraced. The tracer patches each layer at the name its caller
looks up, so a renamed function, or a ``DesignPoint.point_id`` that is no
longer a cached property, fails here and not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
