"""Spans at signflip's module boundaries, installed from outside the package.

Each traced function is replaced, in every signflip module that holds it
(``signflip.linalg.symmetric_eigen`` and ``signflip.signgroup.symmetric_eigen``
alike), by a wrapper that records calls, exceptions and self time: the
span's duration minus the time covered by spans it caused.  Spans nest on
one stack because ops run one at a time.  Counters record work sizes where
the work happens.  ``install``/``remove`` swap the wrappers in and out, so
the untraced passes run the original functions.
"""

from __future__ import annotations

import functools
import sys
import time

# Traced functions by defining module (the metric prefix).
TARGETS = {
    "linalg": ("symmetric_eigen", "hermitian_eigen", "commutator_norm", "is_orthogonal", "is_unitary"),
    "signgroup": ("conjugated_group", "max_generator_commutator", "symmetry_via_equivariance",
                  "normality_via_equivariance", "group_properties_check", "is_equivariant",
                  "commutes_with_sign_group", "enumerate_group"),
    "expr": ("parse", "evaluate", "hessian"),
    "stencil": ("order_estimate", "four_point_stencil", "second_difference", "degeneracy_check"),
    "matio": ("read_matrix",),
    "cli": ("main",),
}


def span_names():
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def count_nodes(root) -> int:
    """Size of an expression AST, walked without recursion."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(c for c in (getattr(node, a, None) for a in ("child", "left", "right")) if c is not None)
    return count


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in span_names()}  # calls, self seconds, errors
        self.counts = {"expr.nodes": 0, "signgroup.enumerate_group.elements": 0,
                       "stencil.above_floor": 0, "stencil.scales": 0}
        self._stack: list[float] = []
        self._patches = []
        modules = [m for name, m in list(sys.modules.items()) if name == "signflip" or name.startswith("signflip.")]
        for short, fns in TARGETS.items():
            home = sys.modules.get(f"signflip.{short}")
            if home is None:
                continue
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{short}.{fn}", original)
                for mod in modules:
                    if getattr(mod, fn, None) is original:
                        self._patches.append((mod, fn, original, wrapper))
        self._evaluate = sys.modules["signflip.expr"].evaluate
        self._floor_coeff = sys.modules["signflip.stencil"].NOISE_FLOOR_COEFF

    def install(self):
        for mod, fn, _, wrapper in self._patches:
            setattr(mod, fn, wrapper)

    def remove(self):
        for mod, fn, original, _ in self._patches:
            setattr(mod, fn, original)

    def _after(self, name, result, args):
        if name == "expr.parse":
            self.counts["expr.nodes"] += count_nodes(result.root)
        elif name == "stencil.order_estimate":
            inp = args[0]
            floor = self._floor_coeff * max(1.0, abs(self._evaluate(inp.f, inp.x)))
            self.counts["stencil.above_floor"] += sum(abs(r.four_point) > floor for r in result.rows)
            self.counts["stencil.scales"] += len(result.rows)

    def _wrap(self, name, fn):
        stat, stack, clock = self.stats[name], self._stack, time.perf_counter

        def enter():
            stack.append(0.0)
            return clock()

        def leave(t0, failed):
            dt = clock() - t0
            stat[1] += dt - stack.pop()
            stat[2] += failed
            if stack:
                stack[-1] += dt

        if name == "signgroup.enumerate_group":  # a generator: time each next()
            elements = "signgroup.enumerate_group.elements"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(t0, 0)
                        return
                    except BaseException:
                        leave(t0, 1)
                        raise
                    leave(t0, 0)
                    self.counts[elements] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            t0 = enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(t0, 1)
                raise
            leave(t0, 0)
            self._after(name, result, args)
            return result

        return wrapper
