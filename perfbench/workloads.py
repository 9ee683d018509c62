"""The four workloads: seeded inputs, fixed warm-up ops, known-defect probes and oracles.

An op is a dict the worker executes (``kind`` plus arguments).  Every op is
paired with an ``expect`` value the oracle needs; neither the inputs nor the
oracles call signflip.  Each round holds the same mix of sizes, so runs with
different seeds measure the same work and differ only in the drawn entries.

``check`` returns ``None`` for a correct result or the failure cause:
``raised`` (set by the caller), ``traceback``, ``wrong_code`` or
``wrong_answer``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

EPS = np.finfo(float).eps
BASIS_TOL = 1e-8  # signflip.signgroup.BASIS_TOL
CLOSURE_TOL = 1e-8  # signflip.signgroup.CLOSURE_TOL


def random_orthogonal(rng, n, dtype=float):
    m = rng.standard_normal((n, n))
    if dtype is complex:
        m = m + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def shuffled(rng, ops):
    """Tag each op with its slot (position in the fixed round) and shuffle the order."""
    for slot, (op, _) in enumerate(ops):
        op["slot"] = slot
    return [ops[i] for i in rng.permutation(len(ops))]


def _fro(m) -> float:
    return float(np.linalg.norm(m))


def _eigen_basis_ok(basis, a) -> bool:
    """Rows of ``basis`` diagonalize self-adjoint ``a`` with the eigh spectrum."""
    n = a.shape[0]
    scale = max(_fro(a), np.finfo(float).tiny)
    gram = basis @ basis.conj().T - np.eye(n)
    if _fro(gram) > 1e-12 * n:
        return False
    b = basis @ a @ basis.conj().T
    off = b - np.diag(np.diag(b))
    if _fro(off) > 1e-10 * scale:
        return False
    ref = np.linalg.eigh(a)[0]
    return float(np.max(np.abs(np.sort(np.diag(b).real) - ref))) <= 1e-10 * scale


# ---------------------------------------------------------------- symmetry-decide


class SymmetryDecide:
    """Symmetry and normality verdicts; Jacobi eigensolves dominate."""

    name = "symmetry-decide"
    ROUND_S = 1.2  # wall time of one round on the reference machine
    # The real ops of a round: n on a log-uniform grid over 4..MAX_EIGEN_N,
    # 4 exactly symmetric and 5 perturbed, spectra spread over the sizes.
    REAL = ((4, "generic", True), (6, "clustered", False), (8, "repeated", True), (11, "generic", False),
            (16, "clustered", True), (23, "repeated", False), (32, "generic", True), (45, "clustered", False),
            (64, "repeated", False))
    # (kind, n) of the complex ops in every round.
    COMPLEX = (("hermitian", 11), ("hermitian", 32), ("normal", 23), ("non-normal", 23), ("non-normal", 8))
    # The seed decides correctly for 2^k A on this span; outside it the
    # known scale defects live, which the probes cover.
    TIMED_K = (-12, 440)
    PROBE_K = (-34, -100, -300, 600)

    @staticmethod
    def _spectrum(rng, n, kind):
        if kind == "clustered":
            centers = rng.standard_normal(max(1, n // 3))
            return centers[np.arange(n) % len(centers)] * (1.0 + 1e-9 * rng.standard_normal(n))
        if kind == "repeated":
            return rng.choice(rng.standard_normal(3), size=n)
        return rng.standard_normal(n)

    def _real(self, rng, n, spectrum, symmetric, k=0):
        q = random_orthogonal(rng, n)
        s = q.T @ np.diag(self._spectrum(rng, n, spectrum)) @ q
        s = 0.5 * (s + s.T)
        a = s
        if not symmetric:
            e = rng.standard_normal((n, n))
            a = s + 10.0 ** rng.uniform(-2, 0) * _fro(s) * e / _fro(e)
        op = {"kind": "symmetry", "a": np.ldexp(a, k)}
        return op, {"truth": symmetric, "sym": 0.5 * (a + a.T)}

    def _complex(self, rng, kind, n):
        w = random_orthogonal(rng, n, complex)
        if kind == "hermitian":
            a = w.conj().T @ np.diag(rng.standard_normal(n)) @ w
            a = 0.5 * (a + a.conj().T)
            return {"kind": "normality", "a": a, "w": None}, {"truth": True, "herm": a}
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = w.conj().T @ np.diag(d) @ w
        if kind == "non-normal":
            e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = a + 10.0 ** rng.uniform(-2, 0) * _fro(a) * e / _fro(e)
        return {"kind": "normality", "a": a, "w": w}, {"truth": kind == "normal", "w": w}

    def warmup(self):
        a = np.add.outer(np.arange(8.0), np.arange(8.0)) + np.diag(np.arange(8.0) ** 2)
        return {"kind": "symmetry", "a": a}

    def round(self, rng, r, tmp):
        scaled = int(rng.integers(len(self.REAL)))
        ops = []
        for idx, (n, spectrum, symmetric) in enumerate(self.REAL):
            k = int(rng.integers(self.TIMED_K[0], self.TIMED_K[1] + 1)) if idx == scaled else 0
            ops.append(self._real(rng, n, spectrum, symmetric, k))
        ops += [self._complex(rng, kind, n) for kind, n in self.COMPLEX]
        return shuffled(rng, ops)

    def probes(self, rng, tmp):
        ks = list(self.PROBE_K) + [int(k) for k in rng.integers(-900, 901, size=4)]
        return [self._real(rng, 6, "generic", sym, k) for k in ks for sym in (True, False)]

    def check(self, op, expect, out):
        if op["kind"] == "symmetry":
            verdict, basis = out[0], out[1]
            ok = verdict == expect["truth"] and _eigen_basis_ok(basis, expect["sym"])
        else:
            verdict, basis = out
            if expect.get("w") is not None:
                ok = verdict == expect["truth"] and np.array_equal(basis, expect["w"])
            else:
                ok = verdict == expect["truth"] and _eigen_basis_ok(basis, expect["herm"])
        return None if ok else "wrong_answer"


# ---------------------------------------------------------------- stencil-order


class StencilOrder:
    """Parse plus order estimate on seeded expressions; tree walks dominate."""

    name = "stencil-order"
    ROUND_S = 0.45  # wall time of one round on the reference machine
    # (n, random terms): term counts log-uniform over 2..640, each n in 2..8
    # once.  Each expression also has n(n+1)/2 quadratic and n quartic terms.
    SLOTS = ((5, 2), (8, 5), (2, 13), (7, 36), (3, 94), (6, 245), (4, 640))
    PROBE_TERMS = (1200, 3000)  # past the recursion limit of the tree walks

    def _op(self, case):
        op = {"kind": "stencil", "text": case.text, "n": case.n, "x": case.x, "h": case.h,
              "s1": case.s1, "s2": case.s2}
        return op, case

    def warmup(self):
        return {"kind": "stencil", "text": "x1*x2*x3^2 + x1^2 - 3*x2^2 + x2*sin(x1) - x2^2*x3^2", "n": 3,
                "x": np.array([1.0, 1.0, 1.0]), "h": np.array([0.2, 0.05, 0.1]), "s1": "+++", "s2": "-++"}

    def round(self, rng, r, tmp):
        from expressions import make_case

        return shuffled(rng, [self._op(make_case(rng, n, k)) for n, k in self.SLOTS])

    def probes(self, rng, tmp):
        from expressions import long_sum

        out = []
        for terms in self.PROBE_TERMS:
            n = int(rng.integers(2, 5))
            op = {"kind": "stencil", "text": long_sum(rng, n, terms), "n": n,
                  "x": rng.uniform(0.5, 1.5, size=n), "h": rng.uniform(0.05, 0.2, size=n),
                  "s1": "+" * n, "s2": "-" + "+" * (n - 1)}
            out.append((op, None))
        return out

    def check(self, op, expect, out):
        if expect is None:  # probe: any result counts, only an exception fails
            return None
        rows, fitted, warnings = out
        ok = (
            rows.shape == (len(expect.s_exact), 5)
            and np.all(np.abs(rows[:, 1] - expect.s_exact) <= expect.s_tol)
            and np.all(np.abs(rows[:, 4] - expect.hquad) <= 1e-10 * _fro(expect.hess) * np.sum(
                (rows[:, [0]] * expect.h) ** 2, axis=1))
            and abs(fitted - 4.0) <= 0.1
            and not warnings
        )
        return None if ok else "wrong_answer"


# ---------------------------------------------------------------- group-audit


class GroupAudit:
    """Group construction and law audits; the 4^n exhaustive audit dominates."""

    name = "group-audit"
    ROUND_S = 2.5  # wall time of one round on the reference machine
    EXHAUSTIVE_N = (6, 7, 8, 9, 10)
    GENERATOR_N = (13, 18, 25, 34, 47, 64)
    EQUIVARIANCE_N = (6, 7, 8, 9, 10)

    @staticmethod
    def _perturbed(rng, v):
        e = rng.standard_normal(v.shape)
        first_order = _fro(e @ v.T + v @ e.T)
        return v + rng.uniform(0.1, 0.5) * BASIS_TOL / first_order * e

    def warmup(self):
        u = np.arange(1.0, 7.0)
        return {"kind": "audit", "v": np.eye(6) - 2.0 * np.outer(u, u) / (u @ u), "exhaustive": True}

    def round(self, rng, r, tmp):
        sizes = self.EXHAUSTIVE_N + self.GENERATOR_N
        ops = []
        for idx, n in enumerate(sizes):
            v = random_orthogonal(rng, n)
            if idx % 2:
                v = self._perturbed(rng, v)
            ops.append(({"kind": "audit", "v": v, "exhaustive": n in self.EXHAUSTIVE_N}, v))
        # Each n has one commuting and one non-commuting case; which check
        # gets which alternates with n.
        truths = [(k // 2 + k) % 2 == 0 for k in range(2 * len(self.EQUIVARIANCE_N))]
        for idx, n in enumerate(self.EQUIVARIANCE_N):
            v = random_orthogonal(rng, n)
            a = v.T @ np.diag(rng.standard_normal(n)) @ v
            if not truths[2 * idx]:
                e = rng.standard_normal((n, n))
                a = a + 10.0 ** rng.uniform(-3, 0) * _fro(a) * e / _fro(e)
            ops.append(({"kind": "equivariant", "a": a, "v": v}, bool(truths[2 * idx])))
            b = np.diag(rng.standard_normal(n))
            if not truths[2 * idx + 1]:
                i, j = rng.choice(n, size=2, replace=False)
                b[i, j] = 10.0 ** rng.uniform(-3, 0) * np.max(np.abs(b))
            ops.append(({"kind": "commutes", "b": b}, bool(truths[2 * idx + 1])))
        return shuffled(rng, ops)

    def probes(self, rng, tmp):
        return []

    def check(self, op, expect, out):
        if op["kind"] != "audit":
            return None if out == expect else "wrong_answer"
        v = expect
        n = v.shape[0]
        order, inv, comm, clos, closure_ok, exhaustive, gens = out
        # Every group-law error is 4 V^T P E Q V for projectors P, Q and the
        # Gram residual E = V V^T - I, so it is at most 8 (1 + |E|_2) |E|_F.
        gram = v @ v.T - np.eye(n)
        slack = 4.0 * n * n * EPS
        upper = 8.0 * (1.0 + np.linalg.norm(gram, 2)) * _fro(gram) + slack
        if op["exhaustive"]:  # the all-flip element squares to I + 4 V^T E V
            lower = 4.0 * _fro(v.T @ gram @ v) - slack
        else:  # generator i squares to I + 4 E_ii v_i^T v_i
            lower = 4.0 * float(np.max(np.abs(np.diag(gram)) * np.sum(v * v, axis=1))) - slack
        ok = (
            order == 2 ** n
            and exhaustive == op["exhaustive"]
            and max(inv, comm, clos) <= upper
            and inv >= lower
            and closure_ok == (clos <= CLOSURE_TOL)
            and all(_fro(g - (np.eye(n) - 2.0 * np.outer(v[i], v[i]))) <= slack for i, g in gens)
        )
        return None if ok else "wrong_answer"


# ---------------------------------------------------------------- cli-session


def _write_matrix(path, m):
    """Matrix text file in the documented format, written without signflip."""

    def entry(z):
        if np.iscomplexobj(m):
            z = complex(z)
            return f"{z.real!r}{'-' if math.copysign(1.0, z.imag) < 0 else '+'}{abs(z.imag)!r}i"
        return repr(float(z))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# benchmark input\n{m.shape[0]}\n")
        for row in m:
            fh.write(" ".join(entry(z) for z in row) + "\n")


def _values_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("values:"):
            return np.array([float(t) for t in line.split()[1:]])
    return None


class CliSession:
    """Sequential ``python -m signflip.cli`` processes; start-up dominates."""

    name = "cli-session"
    ROUND_S = 2.4  # wall time of one round on the reference machine
    DEMO_GATES = 6
    NESTING = 1200

    def _file(self, tmp, tag, m):
        path = os.path.join(tmp, f"{tag}.txt")
        _write_matrix(path, m)
        return path

    def warmup(self):
        return {"kind": "cli", "argv": ["demo"]}

    def round(self, rng, r, tmp):
        from expressions import make_case

        def n():
            return int(rng.integers(2, 9))

        ops = [({"kind": "cli", "argv": ["demo"]}, {"code": 0, "demo": True})]
        for truth in (True, False):
            sd = SymmetryDecide()
            op, exp = sd._real(rng, n(), "generic", truth)
            path = self._file(tmp, f"check-{truth}", op["a"])
            ops.append(({"kind": "cli", "argv": ["check", path]}, {"code": 0 if truth else 1, "symmetric": truth}))
        for cplx in (False, True):
            size = n()
            w = random_orthogonal(rng, size, complex if cplx else float)
            a = w.conj().T @ np.diag(rng.standard_normal(size)) @ w
            a = 0.5 * (a + a.conj().T)
            path = self._file(tmp, f"eig-{cplx}", a)
            for js in (False, True):
                argv = ["eig", path] + (["--json"] if js else [])
                ops.append(({"kind": "cli", "argv": argv}, {"code": 0, "eig": a, "json": js}))
        case = make_case(rng, 3, int(rng.integers(2, 7)))
        ops.append(({"kind": "cli", "argv": [
            "stencil", "--f", case.text, "--n", "3", "--x=" + ",".join(repr(float(v)) for v in case.x),
            "--h=" + ",".join(repr(float(v)) for v in case.h), f"--s1={case.s1}", f"--s2={case.s2}"]},
            {"code": 0, "fitted": True}))
        size = int(rng.integers(2, 7))
        q = random_orthogonal(rng, size)
        group_file = self._file(tmp, "group", q.T @ np.diag(np.arange(1.0, size + 1) * 1.5) @ q)
        ops.append(({"kind": "cli", "argv": ["group", group_file]}, {"code": 0, "order": 2 ** size}))
        bad = os.path.join(tmp, "bad.txt")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("2\n1.0 2.0\n3.0 x\n")
        ops.append(({"kind": "cli", "argv": ["check", bad]}, {"code": 2}))
        ops.append(({"kind": "cli", "argv": ["stencil", "--f", "x1 + * x2", "--n", "2", "--x", "1,1",
                                              "--h", "0.1,0.1", "--s1", "++", "--s2=-+"]}, {"code": 2}))
        return shuffled(rng, ops)

    def probes(self, rng, tmp):
        deep = "(" * self.NESTING + "x1" + ")" * self.NESTING
        m = random_orthogonal(rng, 3, complex)
        herm = self._file(tmp, "probe-hermitian", 0.5 * (m + m.conj().T))
        return [
            ({"kind": "cli", "argv": ["stencil", "--f", deep, "--n", "1", "--x", "1", "--h", "0.1",
                                      "--s1", "+", "--s2=-"]}, {"code": (2, 3)}),
            ({"kind": "cli", "argv": ["check", herm]}, {"code": (0, 1, 2)}),
        ]

    def check(self, op, expect, out):
        code, stdout, stderr = out
        if "Traceback (most recent call last)" in stderr:
            return "traceback"
        want = expect["code"]
        if code not in (want if isinstance(want, tuple) else (want,)):
            return "wrong_code"
        return None if self._answer_ok(expect, stdout) else "wrong_answer"

    def _answer_ok(self, expect, stdout):
        lines = stdout.splitlines()
        if expect.get("demo"):
            verdicts = [ln.split()[0] for ln in lines if ln.startswith(("PASS", "FAIL"))]
            return verdicts == ["PASS"] * self.DEMO_GATES
        if "symmetric" in expect:
            return f"symmetric: {'yes' if expect['symmetric'] else 'no'}" in lines
        if "eig" in expect:
            a = expect["eig"]
            ref = np.linalg.eigh(a)[0]
            if expect["json"]:
                doc = json.loads(stdout)
                vals = np.array(doc["values"])
                rows = np.array([[complex(str(z).replace("i", "j")) for z in row] for row in doc["V"]])
                return (vals.shape == ref.shape and float(np.max(np.abs(vals - ref))) <= 1e-10 * _fro(a)
                        and _eigen_basis_ok(rows, a))
            vals = _values_line(stdout)
            return vals is not None and vals.shape == ref.shape and float(
                np.max(np.abs(vals - ref))) <= 1e-5 * float(np.max(np.abs(ref)))
        if expect.get("fitted"):
            fitted = [float(ln.split(":")[1]) for ln in lines if ln.startswith("fitted order:")]
            return len(fitted) == 1 and abs(fitted[0] - 4.0) <= 0.1 and "warnings: none" in lines
        if "order" in expect:
            return (f"order: {expect['order']}" in lines and "audit mode: full" in lines
                    and any(ln.startswith("closure max error:") and ln.endswith("(ok)") for ln in lines))
        return True


WORKLOADS = {w.name: w for w in (SymmetryDecide(), StencilOrder(), GroupAudit(), CliSession())}
