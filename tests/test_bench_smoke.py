"""Short traced benchmark runs, so a rename that breaks the harness fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


def test_symmetry_decide_traced_run():
    assert traced_run("symmetry-decide")["signgroup.symmetry_via_equivariance.calls"]["value"] > 0


def test_stencil_order_traced_run():
    metrics = traced_run("stencil-order")
    assert metrics["expr.hessian.calls"]["value"] > 0
    assert metrics["expr.nodes"]["value"] > 0  # each parsed tree, decoded from its tape


def test_group_audit_traced_run():
    assert traced_run("group-audit")["signgroup.group_properties_check.calls"]["value"] > 0


def test_cli_session_traced_run():
    assert traced_run("cli-session")["cli.main.calls"]["value"] > 0
