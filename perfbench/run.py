"""signflip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the worker imports signflip from ``src/``.
One closed-loop client (a worker process) runs rounds of ops, each op issued
after the previous one returns.  The number of rounds is ``--seconds`` over
the workload's nominal round time, so every run measures the same whole
rounds for about ``--seconds``.
Inputs come from ``--seed`` and are made, like the oracle checks, outside the
timed region.  The last line of stdout is the result object; the line before
it (``report: {...}``) records the environment, the failure breakdown and
the known-defect probes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every round
twice in the same worker, untraced and traced, and prints the per-layer
metrics, the tracing overhead and the start-up breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from tracing import span_names
from worker import REFERENCE_CAL_S, read_frame, write_frame
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 7  # fresh interpreters per run; setup_s is their median
STARTUPS = 5  # samples per start-up layer metric in a traced run
CAUSES = ("raised", "traceback", "wrong_code", "wrong_answer")


class Worker:
    """A started worker process.

    ``setup_s`` runs from spawn to the worker's ready frame, scaled to the
    reference speed by the calibration loop the worker times right after.
    """

    def __init__(self, root, workload):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")], cwd=root, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            write_frame(self.proc.stdin, {"workload": workload.name, "warmup": workload.warmup(), "root": root})
            hello = read_frame(self.proc.stdout)
            self.raw_setup_s = time.perf_counter() - t0
            self.setup_s = self.raw_setup_s * REFERENCE_CAL_S / read_frame(self.proc.stdout)["cal"]
            expected = os.path.join(root, "src", "signflip")
            if os.path.dirname(os.path.abspath(hello["signflip"])) != expected:
                raise RuntimeError(f"worker imported signflip from {hello['signflip']}, not {expected}")
        except BaseException:
            self.kill()
            raise

    def call(self, msg):
        write_frame(self.proc.stdin, msg)
        return read_frame(self.proc.stdout)

    def close(self):
        final = self.call({"exit": True})
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Tally:
    """Latency, outcome and cause counts of the checked ops.

    Times are kept at the reference machine speed: each op's wall and CPU
    time are multiplied by REFERENCE_CAL_S over the mean of the calibration
    loop timed just before and just after it.  The raw wall times are kept
    too, for the report.
    """

    def __init__(self):
        self.ok_lat, self.raw_ok_lat, self.attempted, self.failed = [], [], 0, 0
        self.by_slot = {}  # slot -> ([wall s], [cpu s]) of every attempt, normalized
        self.causes = dict.fromkeys(CAUSES, 0)
        self.examples = []

    def add(self, workload, ops, res):
        cal = res["cal"]
        for i, ((op, expect), lat, cpu, out, exc) in enumerate(
                zip(ops, res["lat"], res["cpu"], res["outs"], res["excs"])):
            speed = REFERENCE_CAL_S / (0.5 * (cal[i] + cal[i + 1]))
            cause = "raised" if exc is not None else workload.check(op, expect, out)
            self.attempted += 1
            walls, cpus = self.by_slot.setdefault(op.get("slot"), ([], []))
            walls.append(lat * speed)
            cpus.append(cpu * speed)
            if cause is None:
                self.ok_lat.append(lat * speed)
                self.raw_ok_lat.append(lat)
                continue
            self.failed += 1
            self.causes[cause] += 1
            if len(self.examples) < 5:
                self.examples.append({"op": op["kind"], "cause": cause, "detail": exc or _describe(op)})

    def median_round(self):
        """Wall and CPU seconds of a typical round: per-slot medians, summed.

        Every round has the same slots, so the median over rounds of each
        slot discards transient stalls of a shared machine; the sum is the
        time of one round of the fixed mix.
        """
        walls = sum(statistics.median(w) for w, _ in self.by_slot.values())
        cpus = sum(statistics.median(c) for _, c in self.by_slot.values())
        return walls, cpus, len(self.by_slot)

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
                "by_cause": self.causes, "examples": self.examples}


def _describe(op):
    if op["kind"] == "cli":
        return " ".join(a if len(a) < 40 else a[:37] + "..." for a in op["argv"])
    shape = next((v.shape for v in op.values() if isinstance(v, np.ndarray)), None)
    return f"{op['kind']} {shape}"


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it."""
    lat = sorted(latencies)
    k = max(len(lat) - 11, 0)
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat)


def median_setup(root, workload, first):
    workers = [first]
    for _ in range(SETUPS - 1):
        w = Worker(root, workload)
        try:
            workers.append(w)
            w.close()
        finally:
            w.kill()
    return statistics.median(w.setup_s for w in workers), [w.raw_setup_s for w in workers]


def startup_layers(root):
    """Interpreter start, NumPy import and signflip's own import time, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    interp, numpy_ms, own_ms = [], [], []
    for _ in range(STARTUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import signflip"], cwd=root, env=env,
                              check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        numpy_ms.append(cumulative["numpy"] / 1e3)
        own_ms.append((cumulative["signflip"] - cumulative["numpy"]) / 1e3)
    return {"startup.interpreter_ms": statistics.median(interp),
            "startup.numpy_import_ms": statistics.median(numpy_ms),
            "startup.signflip_import_ms": statistics.median(own_ms)}


def environment(root, seed, final):
    def git_sha():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(), "src_sha256": digest.hexdigest(), "python": platform.python_version(),
        "numpy": final["numpy"], "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": final["blas_threads"], "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "signflip", "__init__.py")):
        print("error: run from the root of a signflip checkout (src/signflip not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    worker = None
    try:
        worker = Worker(root, workload)
        result, report = measure(root, workload, worker, args, tmp)
        final = worker.close()
        if args.trace:
            result["metrics"].update(layer_metrics(final, report))
            result["metrics"].update({k: {"value": v, "unit": "ms"} for k, v in startup_layers(root).items()})
        else:
            setup_s, samples = median_setup(root, workload, worker)
            rss = final["maxrss_kb"] / 1024.0
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
            result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
            report["raw"]["setup_samples_s"] = samples
        report["environment"] = environment(root, args.seed, final)
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    print("report: " + json.dumps(report, default=float))
    print(json.dumps(result))
    return 0


def measure(root, workload, worker, args, tmp):
    """Run a fixed number of rounds and check every op.

    The count is the budget over the workload's nominal round time, so a run
    lasts about ``--seconds`` and every run of a workload has the same ops
    and the same tail percentile.  A run whose timed ops pass three times
    the budget stops early, so a slow program cannot overrun.
    """
    tally = Tally()
    timed = 0.0
    rounds = 0
    inproc = bool(args.trace)  # traced CLI ops run cli.main in-process
    budget = args.seconds / 2 if args.trace else args.seconds
    target = max(1, round(budget / workload.ROUND_S))
    traced_ms = 0.0
    cal = []
    while rounds < target and timed < 3 * budget:
        rng = np.random.default_rng([args.seed % 2**64, 0, rounds])
        ops = workload.round(rng, rounds, tmp)
        msg = {"ops": [op for op, _ in ops], "inproc": inproc}
        if args.trace:
            # Alternate which pass goes first so warm caches favour neither.
            order = (False, True) if rounds % 2 == 0 else (True, False)
            res = {t: worker.call(dict(msg, trace=t)) for t in order}
            plain, traced = res[False], res[True]
            traced_ms += sum(traced["lat"]) * 1e3
            tally.add(workload, ops, traced)
        else:
            plain = worker.call(dict(msg, trace=False))
            tally.add(workload, ops, plain)
        timed += sum(plain["lat"])
        cal += plain["cal"]
        rounds += 1

    report = {"workload": workload.name, "rounds": rounds, "ops": tally.attempted, "timed_s": timed,
              "calibration_ms": {"median": statistics.median(cal) * 1e3, "reference": REFERENCE_CAL_S * 1e3},
              "failures": tally.summary()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": {}}
    if args.trace:
        report["untraced_op_ms"] = timed / tally.attempted * 1e3
        report["traced_op_ms"] = traced_ms / tally.attempted
        return result, report

    probes = workload.probes(np.random.default_rng([args.seed % 2**64, 1]), tmp)
    known = Tally()
    if probes:
        known.add(workload, probes, worker.call({"ops": [op for op, _ in probes], "inproc": False, "trace": False}))
    report["known_defects"] = known.summary()
    # With no correct op there is no latency to report; `correct` is false then.
    p, pct, count = tail(tally.ok_lat) if tally.ok_lat else (0.0, 0.0, 0)
    report["tail"] = {"percentile": pct, "samples": count}
    m = result["metrics"]
    correct_frac = len(tally.ok_lat) / tally.attempted
    round_wall, round_cpu, slots = tally.median_round()
    m["ops_per_s"] = {"value": correct_frac * slots / round_wall, "unit": "1/s"}
    m["op_p50_ms"] = {"value": statistics.median(tally.ok_lat or [0.0]) * 1e3, "unit": "ms"}
    m["op_tail_ms"] = {"value": p * 1e3, "unit": "ms"}
    m["cpu_ms_per_op"] = {"value": round_cpu / slots * 1e3, "unit": "ms"}
    m["correct_frac"] = {"value": correct_frac, "unit": "ratio"}
    report["raw"] = {"ops_per_s": len(tally.ok_lat) / timed,
                     "op_p50_ms": statistics.median(tally.raw_ok_lat or [0.0]) * 1e3}
    return result, report


def layer_metrics(final, report):
    ops = report["ops"]
    out = {}
    for name in span_names():
        calls, self_s, errors = final["spans"].get(name, (0, 0.0, 0))
        out[f"{name}.calls"] = {"value": calls / ops, "unit": "count"}
        out[f"{name}.self_ms"] = {"value": self_s / ops * 1e3, "unit": "ms"}
        out[f"{name}.errors"] = {"value": errors, "unit": "count"}
    counts = final["counts"]
    out["expr.nodes"] = {"value": counts.get("expr.nodes", 0) / ops, "unit": "count"}
    out["signgroup.enumerate_group.elements"] = {
        "value": counts.get("signgroup.enumerate_group.elements", 0) / ops, "unit": "count"}
    scales = counts.get("stencil.scales", 0)
    out["stencil.above_floor_frac"] = {"value": counts.get("stencil.above_floor", 0) / scales if scales else 0.0,
                                       "unit": "ratio"}
    self_sum = sum(final["spans"].get(n, (0, 0.0, 0))[1] for n in span_names()) / ops * 1e3
    out["trace.untraced_op_ms"] = {"value": report["untraced_op_ms"], "unit": "ms"}
    out["trace.overhead_ms"] = {"value": report["traced_op_ms"] - report["untraced_op_ms"], "unit": "ms"}
    out["trace.self_ms_sum"] = {"value": self_sum, "unit": "ms"}
    return out


if __name__ == "__main__":
    sys.exit(main())
