"""Benchmark worker: a fresh interpreter that imports signflip and runs ops.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It talks over stdin/stdout in length-prefixed pickle frames and sends
nothing else there (fd 1 is redirected to /dev/null after start-up, so stray
prints cannot corrupt the protocol).  Frames from ``run.py``:

* the first frame: ``{"workload", "warmup", "root"}``; the worker imports
  signflip, runs the warm-up op untimed and answers ``{"signflip": path}``,
  then ``{"cal": seconds}``, the median of three calibration loops;
* ``{"ops": [...], "trace": bool, "inproc": bool}``: runs the ops in order,
  one at a time, and answers with each op's wall and CPU time, its output
  or exception, and the calibration loop's time before and after each op;
* ``{"exit": True}``: answers with peak memory, span statistics and the
  environment, then exits.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import os
import pickle
import resource
import struct
import subprocess
import sys
import time
import traceback

_HEADER = struct.Struct("<Q")
# A fixed pure-Python loop timed next to every op measures how fast the shared
# machine runs the interpreter at that moment; its median on the reference
# machine (a shared 2-CPU x86-64 VM) is REFERENCE_CAL_S.
CAL_ITERATIONS = 50_000
REFERENCE_CAL_S = 3.5e-3


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    t0, acc = time.perf_counter(), 0
    for i in range(CAL_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def read_frame(stream):
    head = stream.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise EOFError("peer closed the pipe")
    return pickle.loads(stream.read(_HEADER.unpack(head)[0]))


def write_frame(stream, obj):
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(data)) + data)
    stream.flush()


def _cpu_seconds(children: bool) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    total = own.ru_utime + own.ru_stime
    if children:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += kids.ru_utime + kids.ru_stime
    return total


def blas_threads():
    """OpenBLAS thread count of the loaded NumPy, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    """Executes ops against the imported signflip package."""

    def __init__(self, root: str):
        import numpy
        import signflip

        self.np = numpy
        self.sf = signflip
        self.root = root
        self.env = dict(os.environ)

    def run(self, op, inproc: bool):
        sf = self.sf
        kind = op["kind"]
        if kind == "symmetry":
            r = sf.symmetry_via_equivariance(op["a"])
            return (r.verdict, r.basis, r.max_commutator, r.tol)
        if kind == "normality":
            r = sf.normality_via_equivariance(op["a"], op["w"])
            return (r.verdict, r.basis)
        if kind == "stencil":
            f = sf.parse(op["text"], op["n"])
            inp = sf.StencilInput(f, op["x"], op["h"], sf.SignPattern.from_string(op["s1"]),
                                  sf.SignPattern.from_string(op["s2"]))
            rep = sf.order_estimate(inp)
            rows = [[r.scale, r.four_point, r.second_diff_1, r.second_diff_2, r.hquad] for r in rep.rows]
            return (self.np.array(rows), rep.fitted_order, [w.kind for w in rep.warnings])
        if kind == "audit":
            g = sf.conjugated_group(op["v"])
            a = sf.group_properties_check(g, exhaustive=op["exhaustive"])
            sample = sorted({0, g.n // 2, g.n - 1})
            gens = [(i, g.generators[i].matrix) for i in sample]
            return (a.order, a.involution_max_err, a.commutation_max_err, a.closure_max_err,
                    a.closure_ok, a.exhaustive, gens)
        if kind == "equivariant":
            return sf.is_equivariant(op["a"], op["v"], exhaustive=True)
        if kind == "commutes":
            return sf.commutes_with_sign_group(op["b"], exhaustive=True)
        if kind == "cli":
            if inproc:
                from signflip import cli

                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(op["argv"]))
                return (code, out.getvalue(), err.getvalue())
            proc = subprocess.run([sys.executable, "-m", "signflip.cli", *op["argv"]], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, timeout=120)
            return (proc.returncode, proc.stdout, proc.stderr)
        raise ValueError(f"unknown op kind {kind!r}")

    def round(self, ops, inproc: bool, children: bool):
        lat, cpu, outs, excs, cal = [], [], [], [], [calibrate()]
        clock = time.perf_counter
        for op in ops:
            cpu0, start = _cpu_seconds(children), clock()
            try:
                out, exc = self.run(op, inproc), None
            except Exception as e:  # the op's failure is the measurement
                out, exc = None, f"{type(e).__name__}: {str(e)[:200]}"
            lat.append(clock() - start)
            cpu.append(_cpu_seconds(children) - cpu0)
            outs.append(out)
            excs.append(exc)
            cal.append(calibrate())
        return {"lat": lat, "cpu": cpu, "outs": outs, "excs": excs, "cal": cal}


def main():
    proto_in = sys.stdin.buffer
    proto_out = os.fdopen(os.dup(1), "wb")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    hello = read_frame(proto_in)
    runner = Runner(hello["root"])
    children = hello["workload"] == "cli-session"
    runner.run(hello["warmup"], inproc=False)
    write_frame(proto_out, {"signflip": runner.sf.__file__})
    write_frame(proto_out, {"cal": sorted(calibrate() for _ in range(3))[1]})

    tracer = None
    while True:
        msg = read_frame(proto_in)
        if msg.get("exit"):
            break
        if msg["trace"]:
            if tracer is None:
                from signflip import cli  # noqa: F401  (so cli.main is wrapped too)

                from tracing import Tracer

                tracer = Tracer()
            tracer.install()
        try:
            res = runner.round(msg["ops"], msg["inproc"], children)
        finally:
            if msg["trace"]:
                tracer.remove()
        write_frame(proto_out, res)

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    write_frame(proto_out, {
        "maxrss_kb": kids.ru_maxrss if children else own.ru_maxrss,
        "spans": tracer.stats if tracer else {},
        "counts": tracer.counts if tracer else {},
        "numpy": runner.np.__version__,
        "blas_threads": blas_threads(),
    })


if __name__ == "__main__":
    try:
        main()
    except EOFError:
        sys.exit(1)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
