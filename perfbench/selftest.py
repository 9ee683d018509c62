"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs every workload for one round
(the smallest run) untraced and traced, and checks that the result object
has the required keys and every metric named in BENCHMARK.json; that the
traced self times account for the untraced op time; that every oracle
accepts hand-built correct results and rejects hand-built wrong ones; and
that the benchmark refuses to run where ``src/signflip`` is missing.  Exits
non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expressions  # noqa: E402
from run import tail  # noqa: E402
from workloads import WORKLOADS, GroupAudit, StencilOrder, SymmetryDecide, CliSession  # noqa: E402


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def bench(workload, trace, cwd=None):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "7",
                           "--seconds", "0.001", "--trace", str(trace)],
                          cwd=cwd or os.getcwd(), capture_output=True, text=True, timeout=600)


def test_runs(spec):
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(name, trace)
            check(proc.returncode == 0, f"{name} trace={trace} exits 0 ({proc.stderr[-300:]!r})")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} trace={trace} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace} every op passes its oracle")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace} emits exactly the {key} metrics with their units")
            values = [v["value"] for v in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                  f"{name} trace={trace} metric values are finite numbers")
            if trace == 0:
                check(all(v > 0 for v in values), f"{name} end-to-end metrics are non-zero")
                report = json.loads(lines[-2][len("report: "):])
                env = report["environment"]
                check(all(env.get(k) is not None for k in ("python", "numpy", "nproc", "blas", "seed")),
                      f"{name} report records the environment")
            elif name == "symmetry-decide":
                m = {k: v["value"] for k, v in result["metrics"].items()}
                gap = abs(m["trace.self_ms_sum"] - m["trace.untraced_op_ms"])
                check(gap <= abs(m["trace.overhead_ms"]) + 0.1 * m["trace.untraced_op_ms"],
                      "span self times account for the untraced op time within the overhead")


def test_refuses_without_source():
    base = os.path.join(os.getcwd(), ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(dir=base)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(os.getcwd(), "BENCHMARK.json"), bare)
        proc = bench("symmetry-decide", 0, cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout, "refuses to run without src/signflip")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_symmetry_oracle():
    rng = np.random.default_rng(0)
    wl = SymmetryDecide()
    op, expect = wl._real(rng, 5, "generic", True)
    basis = np.linalg.eigh(expect["sym"])[1].T
    check(wl.check(op, expect, (True, basis, 0.0, 1e-8)) is None, "symmetry oracle accepts an eigh basis")
    check(wl.check(op, expect, (False, basis, 0.0, 1e-8)) == "wrong_answer", "symmetry oracle rejects a wrong verdict")
    check(wl.check(op, expect, (True, np.eye(5), 0.0, 1e-8)) == "wrong_answer",
          "symmetry oracle rejects a basis that does not diagonalize")
    op, expect = wl._complex(rng, "non-normal", 4)
    check(wl.check(op, expect, (False, expect["w"])) is None, "normality oracle accepts the supplied basis")
    check(wl.check(op, expect, (True, expect["w"])) == "wrong_answer", "normality oracle rejects a wrong verdict")


def test_stencil_oracle():
    wl = StencilOrder()
    case = expressions.make_case(np.random.default_rng(1), 3, 4)
    op, expect = wl._op(case)
    scales = np.array(expressions.SCALES)
    rows = np.column_stack([scales, case.s_exact, np.zeros(5), np.zeros(5), case.hquad])
    check(wl.check(op, expect, (rows, 4.0, [])) is None, "stencil oracle accepts the exact values")
    bad = rows.copy()
    bad[0, 1] *= 1.0 + 1e-4
    check(wl.check(op, expect, (bad, 4.0, [])) == "wrong_answer", "stencil oracle rejects S off by 1e-4")
    check(wl.check(op, expect, (rows, 3.85, [])) == "wrong_answer", "stencil oracle rejects an order off by 0.15")


def test_group_oracle():
    wl = GroupAudit()
    rng = np.random.default_rng(2)
    v = GroupAudit._perturbed(rng, np.linalg.qr(rng.standard_normal((6, 6)))[0])
    op = {"kind": "audit", "v": v, "exhaustive": True}
    # Exhaustive audit computed here by brute force over all 2^6 patterns.
    elems = {}
    for bits in range(64):
        rows = v[[i for i in range(6) if bits >> i & 1]]
        elems[bits] = np.eye(6) - 2.0 * rows.T @ rows
    fro = np.linalg.norm
    inv = max(fro(g @ g - np.eye(6)) for g in elems.values())
    comm = max(fro(a @ b - b @ a) for a in elems.values() for b in elems.values())
    clos = max(fro(elems[p] @ elems[q] - elems[p ^ q]) for p in elems for q in elems)
    gens = [(i, np.eye(6) - 2.0 * np.outer(v[i], v[i])) for i in (0, 3, 5)]
    good = (64, inv, comm, clos, clos <= 1e-8, True, gens)
    check(wl.check(op, v, good) is None, "audit oracle accepts brute-force group-law errors")
    check(wl.check(op, v, (64, inv * 3, comm, clos, clos <= 1e-8, True, gens)) == "wrong_answer",
          "audit oracle rejects an error above the Gram-residual bound")
    check(wl.check(op, v, (64, inv / 3, comm, clos, clos <= 1e-8, True, gens)) == "wrong_answer",
          "audit oracle rejects an audit that misses the all-flip element")
    check(wl.check({"kind": "commutes"}, True, False) == "wrong_answer", "commutation oracle rejects a wrong verdict")


def test_cli_oracle():
    wl = CliSession()
    demo = {"code": 0, "demo": True}
    ok = "\n".join(["S(h) = 1"] + ["PASS gate"] * 6) + "\n"
    check(wl.check({}, demo, (0, ok, "")) is None, "cli oracle accepts a demo with six PASS lines")
    check(wl.check({}, demo, (0, ok.replace("PASS", "FAIL", 1), "")) == "wrong_answer", "cli oracle rejects a FAIL gate")
    check(wl.check({}, demo, (1, ok, "")) == "wrong_code", "cli oracle rejects a wrong exit code")
    check(wl.check({}, {"code": (2, 3)}, (1, "", "Traceback (most recent call last):\n")) == "traceback",
          "cli oracle rejects a traceback")


def test_tail():
    value, pct, count = tail([float(v) for v in range(1, 21)])
    check((value, pct, count) == (10.0, 50.0, 20), "tail keeps ten samples beyond the reported percentile")


def main():
    if not os.path.isfile(os.path.join("src", "signflip", "__init__.py")):
        print("error: run from the root of a signflip checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    test_tail()
    test_symmetry_oracle()
    test_stencil_oracle()
    test_group_oracle()
    test_cli_oracle()
    test_refuses_without_source()
    test_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
