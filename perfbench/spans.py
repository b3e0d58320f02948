"""Per-layer tracing of one spincas CLI call, installed from outside the package.

``install()`` replaces the public functions listed in ``LAYERS`` and
``RECORDS`` with wrappers that record a span per call (name, parent span,
start, end) in memory.  It rebinds every reference the package holds to the
original function: module attributes such as ``casimir.invariant_I``, names a
module imported with ``from .casimir import invariant_I``, and values of
module-level dicts such as ``report._SUITE_RUNNERS``.  No file of the package
is changed.

``Tracer.metrics()`` turns the spans into the per-layer metrics:

* ``<layer>.<fn>.calls`` and ``<layer>.<fn>.s`` -- call count and the time
  inside the outermost calls (a recursive call is not counted twice);
* ``kernels.<fn>.nnz_out`` (for ``mat_rank``, whose output is a number,
  ``nnz_in``), ``kernels.mat_mul.madds`` and ``kernels.mat_mul.ns_per_madd``
  -- work counts measured at the kernel boundary, outside the kernel's own
  timed interval;
* ``records.<fn>.s`` -- self time of each verification function: its span
  minus the part its child spans cover;
* ``<layer>.self_s`` -- summed self time of every span of the layer, and
  ``cli.self_s``, the part of the traced call no span covers.

child.py scales every time by the call's host-speed factor (pace.py).
"""

from __future__ import annotations

import importlib
import json
import sys
from bisect import bisect_right
from itertools import accumulate
from time import perf_counter

# layer -> (module, public functions timed as spans)
LAYERS = {
    "kernels": ("_backend", ("mat_mul", "mat_kron", "mat_lincomb", "mat_rank")),
    "linalg": ("linalg", ("first_difference", "poly_eval", "partial_trace")),
    "clifford": ("clifford", ("build_gamma", "rotation_generators", "antisym_gamma")),
    "casimir": ("casimir", ("split_casimir_rho", "invariant_I")),
    "spectra": ("spectra", ("sector_spectral", "rho_projectors")),
    "ybe": ("ybe", ("ybe_point", "full_r_matrix_parts", "RMatrixFamily.evaluate")),
    "oracles": ("oracles", ("commutator_table",)),
    "report": (
        "report",
        (
            "gamma_suite",
            "oracle_suite",
            "invariants_suite",
            "spectra_suite",
            "colour_suite",
            "ybe_suite",
            "render_report",
        ),
    ),
}

# called too often for a span each: counted only, their time stays in the caller
COUNTED = {"oracles": ("oracles", ("structure_constant",))}

# the verification functions the suites call, one record each
RECORDS = {
    "clifford": ("integrity_report",),
    "oracles": ("algebra_integrity", "defining_rep_check", "weight_consistency"),
    "casimir": (
        "verify_recurrences",
        "polynomial_consistency",
        "lemma_duality_sweep",
        "ad_invariance_check",
        "coproduct_consistency",
    ),
    "spectra": (
        "projector_axioms",
        "char_identity_rho",
        "eigenvalue_consistency",
        "power_trace_check",
        "duality_pair_identities",
        "sector_minimal_identities",
        "permutation_symmetry",
        "rho_family_check",
    ),
    "colour": ("ladder_consistency", "worked_values"),
    "ybe": (
        "asymptotic_check",
        "tau_ratio_constraints",
        "coefficient_consistency",
        "ybe_check",
        "unitarity_check",
        "symmetry_check",
        "plain_ybe_spot_check",
        "symmetric_part_factorization",
        "chirality_split_check",
        "full_ybe_check",
        "rising_factorial_identity",
    ),
}

# metrics that count work; they must repeat exactly between traced calls
COUNTS = (".calls", ".nnz_out", ".nnz_in", ".madds", "trace.spans")


def metric_unit(name: str) -> str:
    if name.endswith(COUNTS):
        return "count"
    return "ns" if name.endswith(".ns_per_madd") else "s"


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for layer, (_, fns) in LAYERS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.s"]
            if layer == "kernels":
                names.append(f"{layer}.{fn}.nnz_in" if fn == "mat_rank" else f"{layer}.{fn}.nnz_out")
            if fn == "mat_mul":
                names += ["kernels.mat_mul.madds", "kernels.mat_mul.ns_per_madd"]
    for layer, (_, fns) in COUNTED.items():
        names += [f"{layer}.{fn}.calls" for fn in fns]
    for fns in RECORDS.values():
        names += [f"records.{fn}.s" for fn in fns]
    names += [f"{layer}.self_s" for layer in (*LAYERS, "records", "cli")]
    names += ["trace.spans", "trace.bookkeeping_s", "trace.verify_s", "trace.overhead_s"]
    return names


def _nnz(rows) -> int:
    return sum(len(row) for row in rows.values())


def _madds(a_rows, b_rows) -> int:
    """Multiply-adds mat_mul performs: one per (a[i,k], b[k,j]) nonzero pair."""
    lengths = {k: len(row) for k, row in b_rows.items()}
    return sum(lengths.get(k, 0) for arow in a_rows.values() for k in arow)


class Tracer:
    """Spans of one traced call, kept in memory until ``metrics``/``dump``."""

    def __init__(self):
        # (name, parent index, covered start, start, end, covered end, outermost)
        self.spans: list = []
        self.stack = [-1]
        self.active: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def span(self, name: str, fn, kernel: str | None = None):
        spans, stack, active, counts = self.spans, self.stack, self.active, self.counts
        nnz_key = f"{name}.nnz_out" if kernel in ("mat_mul", "mat_kron", "mat_lincomb") else None
        work_key = {"mat_mul": f"{name}.madds", "mat_rank": f"{name}.nnz_in"}.get(kernel)

        def wrapper(*args, **kwargs):
            covered_start = perf_counter()
            if kernel == "mat_mul":
                counts[work_key] = counts.get(work_key, 0) + _madds(args[0], args[1])
            elif kernel == "mat_rank":
                counts[work_key] = counts.get(work_key, 0) + _nnz(args[0])
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            depth = active.get(name, 0)
            active[name] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] = depth
                stack.pop()
                spans[index] = (name, parent, covered_start, start, end, end, depth == 0)
            if nnz_key is not None:
                counts[nnz_key] = counts.get(nnz_key, 0) + _nnz(result)
                spans[index] = (name, parent, covered_start, start, end, perf_counter(), depth == 0)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function and rebind all references to it."""
        targets = []  # (owner, attribute, original, replacement)
        for layer, (module, fns) in LAYERS.items():
            mod = importlib.import_module(f"spincas.{module}")
            for fn in fns:
                owner, attr = _resolve(mod, fn)
                kernel = fn if layer == "kernels" else None
                original = getattr(owner, attr)
                targets.append((owner, attr, original, self.span(f"{layer}.{fn}", original, kernel)))
        for layer, (module, fns) in COUNTED.items():
            mod = importlib.import_module(f"spincas.{module}")
            for fn in fns:
                original = getattr(mod, fn)
                targets.append((mod, fn, original, self.counter(f"{layer}.{fn}", original)))
        for module, fns in RECORDS.items():
            mod = importlib.import_module(f"spincas.{module}")
            for fn in fns:
                original = getattr(mod, fn)
                targets.append((mod, fn, original, self.span(f"records.{fn}", original)))
        replacement = {id(original): new for _, _, original, new in targets}
        for owner, attr, _, new in targets:
            setattr(owner, attr, new)
        for name, mod in list(sys.modules.items()):
            if name != "spincas" and not name.startswith("spincas."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replacement:
                    setattr(mod, attr, replacement[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replacement:
                            value[key] = replacement[id(item)]

    def metrics(self, verify_s: float, pauses=()) -> dict[str, float]:
        """Aggregate the spans of a call that took ``verify_s`` seconds.

        ``pauses`` are the sorted, disjoint intervals in which the call was
        stopped to time the host speed (pace.py); no span starts or ends
        inside one, and their time is taken out of every span.
        """
        if pauses:
            ends = [end for _, end in pauses]
            before = list(accumulate((end - start for start, end in pauses), initial=0.0))

            def clock(t: float) -> float:
                return t - before[bisect_right(ends, t)]

            self.spans = [
                (name, parent, *map(clock, times), outermost)
                for name, parent, *times, outermost in self.spans
            ]
        out = {name: 0 for name in metric_names()}
        covered_by_children = [0.0] * len(self.spans)
        top_covered = 0.0
        bookkeeping = 0.0
        for name, parent, c0, start, end, c1, _ in self.spans:
            bookkeeping += (c1 - c0) - (end - start)
            if parent < 0:
                top_covered += c1 - c0
            else:
                covered_by_children[parent] += c1 - c0
        for index, (name, _, _, start, end, _, outermost) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            self_s = (end - start) - covered_by_children[index]
            out[f"{layer}.self_s"] += self_s
            if layer == "records":
                out[f"{name}.s"] += self_s
                continue
            out[f"{name}.calls"] += 1
            if outermost:
                out[f"{name}.s"] += end - start
        for key, value in self.counts.items():
            out[key] = value
        if out["kernels.mat_mul.madds"]:
            out["kernels.mat_mul.ns_per_madd"] = (
                out["kernels.mat_mul.s"] * 1e9 / out["kernels.mat_mul.madds"]
            )
        out["cli.self_s"] = verify_s - top_covered
        out["trace.spans"] = len(self.spans)
        out["trace.bookkeeping_s"] = bookkeeping
        out["trace.verify_s"] = verify_s
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, parent, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, _, start, end, _, _ in self.spans:
                fh.write(json.dumps([name, parent, round(start, 9), round(end, 9)]) + "\n")


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr
