"""Span tracer over the public functions of the ``nrb`` modules.

``Tracer.install`` wraps each listed function (and the constructors of
``LinearProgram`` and ``RumInstance``) and rebinds every attribute of
every loaded ``nrb`` module that refers to it, so aliases such as
``nrb.rum.solve_lp`` or the names imported into ``nrb.cli`` are covered.
A span is (name, start, end, parent, op id); spans stay in memory and
are written out when the run ends.  ``parse_rational`` is only counted:
it runs once per coefficient, and a span per call would swamp the rest.
Work the tracer does for its own counters runs inside a ``trace`` span,
so it is not charged to the layer that called the traced function.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("main",),
    "measures": (
        "mixture", "expectation", "l1_distance", "kr_distance",
        "point_space_from_json", "prob_vector_from_json",
    ),
    "simplex": ("solve_lp", "verify_optimal", "verify_infeasibility"),
    "duality": (
        "min_set_distance", "gordan_decide", "member_gap",
        "check_bounded_separation", "contamination_feasible",
    ),
    "pooling": (
        "pool_min_eps_additive", "pool_min_eps_genest",
        "pool_min_eps_normalized", "check_condition_C",
        "check_condition_Cstar", "check_condition_CM", "check_event_minmax",
    ),
    "rum": (
        "instance_from_mixture", "build_matrix", "rum_min_eps",
        "rum_residual_min_eps", "check_eps_arsp", "check_eps_arsp_star",
        "evaluate_arsp", "evaluate_arsp_star",
    ),
    "blockmarschak": ("bm_polynomials", "bm_negative_norm", "hoffman_ratio"),
    "oracle": (
        "vertex_distance", "grid_max_gap", "exhaustive_rum_check",
        "brute_force_lp",
    ),
}
CONSTRUCTORS = {"simplex": "LinearProgram", "rum": "RumInstance"}
COUNTED = {"rational": "parse_rational"}

# (unit, better) of every per-layer metric, in report order
PER_LAYER = {
    "cli.self_ms": ("ms", "lower"),
    "rational.parse_calls": ("count", "lower"),
    "measures.self_ms": ("ms", "lower"),
    "simplex.lp_build_ms": ("ms", "lower"),
    "simplex.solve_self_ms": ("ms", "lower"),
    "simplex.verify_ms": ("ms", "lower"),
    "simplex.solve_calls": ("count", "lower"),
    "simplex.repeat_solve_share": ("1", "lower"),
    "simplex.lp_rows": ("count", "lower"),
    "simplex.lp_cols": ("count", "lower"),
    "simplex.lp_nonzeros": ("count", "lower"),
    "simplex.max_bits": ("count", "lower"),
    "duality.self_ms": ("ms", "lower"),
    "pooling.self_ms": ("ms", "lower"),
    "pooling.event_ms": ("ms", "lower"),
    "rum.self_ms": ("ms", "lower"),
    "rum.build_matrix_ms": ("ms", "lower"),
    "rum.build_matrix_calls": ("count", "lower"),
    "rum.repeat_build_share": ("1", "lower"),
    "rum.evaluate_ms": ("ms", "lower"),
    "rum.instance_ms": ("ms", "lower"),
    "blockmarschak.self_ms": ("ms", "lower"),
    "oracle.self_ms": ("ms", "lower"),
    "trace.overhead_share": ("1", "lower"),
}

# span name -> per-layer self-time metric it is charged to
_SELF_TIME = {
    "cli.main": "cli.self_ms",
    "simplex.LinearProgram": "simplex.lp_build_ms",
    "simplex.solve_lp": "simplex.solve_self_ms",
    "simplex.verify_optimal": "simplex.verify_ms",
    "simplex.verify_infeasibility": "simplex.verify_ms",
    "pooling.check_condition_CM": "pooling.event_ms",
    "pooling.check_event_minmax": "pooling.event_ms",
    "rum.build_matrix": "rum.build_matrix_ms",
    "rum.evaluate_arsp": "rum.evaluate_ms",
    "rum.evaluate_arsp_star": "rum.evaluate_ms",
    "rum.RumInstance": "rum.instance_ms",
    "rum.instance_from_mixture": "rum.instance_ms",
}
for _name in ("rum_min_eps", "rum_residual_min_eps", "check_eps_arsp",
              "check_eps_arsp_star"):
    _SELF_TIME[f"rum.{_name}"] = "rum.self_ms"
for _layer in ("measures", "duality", "pooling", "blockmarschak", "oracle"):
    for _name in TRACED[_layer]:
        _SELF_TIME.setdefault(f"{_layer}.{_name}", f"{_layer}.self_ms")


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length())
         for v in values or ()),
        default=0,
    )


def _rum_key(inst) -> tuple:
    return inst.alternatives, frozenset(inst.choice.items())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.max_bits = 0
        self._seen_lps: set = set()
        self._seen_rums: set = set()
        self._undo: list = []

    # -- recording

    def new_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen_lps.clear()
        self._seen_rums.clear()

    def _open(self, name: str) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op_id)

    def span(self, name: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx, parent = tracer._open(name)
            start = time.perf_counter()
            try:
                if before is not None:
                    tracer._bookkeep(before, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    tracer._bookkeep(after, result)
                return result
            finally:
                tracer._close(idx, parent, name, start)

        wrapper.__wrapped__ = fn
        return wrapper

    def _bookkeep(self, hook, value) -> None:
        idx, parent = self._open("trace")
        start = time.perf_counter()
        try:
            hook(value)
        finally:
            self._close(idx, parent, "trace", start)

    def _before_solve(self, args) -> None:
        lp = args[0]
        self.counts["solves"] += 1
        self.counts["rows"] += len(lp.constraints)
        self.counts["cols"] += lp.n_variables
        self.counts["nonzeros"] += sum(
            1 for coeffs, _, _ in lp.constraints for c in coeffs if c
        )
        if lp in self._seen_lps:
            self.counts["repeat_solves"] += 1
        self._seen_lps.add(lp)

    def _after_solve(self, sol) -> None:
        self.max_bits = max(
            self.max_bits,
            _bits(sol.primal), _bits(sol.dual), _bits(sol.farkas),
        )

    def _before_build(self, args) -> None:
        key = _rum_key(args[0])
        self.counts["builds"] += 1
        if key in self._seen_rums:
            self.counts["repeat_builds"] += 1
        self._seen_rums.add(key)

    def _counter(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["parse_calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation

    def install(self) -> None:
        replace = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"nrb.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                before = after = None
                if (layer, name) == ("simplex", "solve_lp"):
                    before, after = self._before_solve, self._after_solve
                elif (layer, name) == ("rum", "build_matrix"):
                    before = self._before_build
                replace[id(fn)] = (fn, self.span(f"{layer}.{name}", fn, before, after))
        for layer, name in COUNTED.items():
            fn = getattr(sys.modules[f"nrb.{layer}"], name)
            replace[id(fn)] = (fn, self._counter(fn))
        for module_name, mod in list(sys.modules.items()):
            if module_name != "nrb" and not module_name.startswith("nrb."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))
        for layer, cls_name in CONSTRUCTORS.items():
            cls = getattr(sys.modules[f"nrb.{layer}"], cls_name)
            init = cls.__init__
            cls.__init__ = self.span(f"{layer}.{cls_name}", init)
            self._undo.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results

    def per_layer(self, n_ops: int, overhead_share: float) -> dict:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            metric = _SELF_TIME.get(name)
            if metric is not None:
                totals[metric] += end - start - child_time[i]
        c = self.counts
        solves = c["solves"]
        out = {}
        for metric in PER_LAYER:
            if metric.endswith("_ms"):
                out[metric] = 1000 * totals[metric] / n_ops
        out.update({
            "rational.parse_calls": c["parse_calls"] / n_ops,
            "simplex.solve_calls": solves / n_ops,
            "simplex.repeat_solve_share": c["repeat_solves"] / solves if solves else 0.0,
            "simplex.lp_rows": c["rows"] / solves if solves else 0.0,
            "simplex.lp_cols": c["cols"] / solves if solves else 0.0,
            "simplex.lp_nonzeros": c["nonzeros"] / solves if solves else 0.0,
            "simplex.max_bits": self.max_bits,
            "rum.build_matrix_calls": c["builds"] / n_ops,
            "rum.repeat_build_share": (
                c["repeat_builds"] / c["builds"] if c["builds"] else 0.0
            ),
            "trace.overhead_share": overhead_share,
        })
        return {k: out[k] for k in PER_LAYER}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
