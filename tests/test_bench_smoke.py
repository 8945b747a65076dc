"""Guard for the benchmark's traced run.

The traced run times isoprod's layers by wrapping functions at the names
their callers look them up by (bench/spans.py).  A refactor that renames
or inlines one of them makes its span go missing without failing any other
test, so each workload runs here once in --quick mode with tracing on.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["catalog", "ladder", "corpus"])
def test_quick_traced_run(workload):
    result = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload, "--quick", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    output = result.stdout + result.stderr
    assert "missing spans" not in output
    summary = json.loads(result.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
