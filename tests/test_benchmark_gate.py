"""Smoke run of the benchmark's correctness gate on every workload.

`perfbench/run.py` checks each op's output against recorded digests and
the names of the program it imports; a rename or an output change shows
up here as a failed op rather than only when the benchmark is run.  A
traced round also runs the layer wrappers of `perfbench/spans.py`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _one_round(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    return result


@pytest.mark.parametrize("workload", ["decide-dense", "decide-wide", "campaign"])
def test_one_round_is_correct(workload):
    _one_round(workload, 0)


# A traced round compares the staged pipeline with decide() and the
# instrumented campaign with the untraced one.  decide-dense is left out:
# its traced round takes about ten seconds.
@pytest.mark.parametrize("workload", ["decide-wide", "campaign"])
def test_one_traced_round_is_correct(workload):
    metrics = _one_round(workload, 1)["metrics"]
    if workload == "campaign":
        # `spans.instrumented` skips a name it no longer finds, so a layer
        # call moved out of its reach would read 0 here rather than fail
        for name in ("cover.prefixes", "walk.probes", "witness.calls", "oracle.assignments"):
            assert metrics[name]["value"] > 0, name
