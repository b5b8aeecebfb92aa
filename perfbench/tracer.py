"""Span tracing of `admz`, installed from outside the library.

`install()` replaces public functions with timing wrappers at the module
attributes their callers look them up through (their call sites), so the
library itself is not edited.  Spans live in memory and are printed as one
`#trace` line at exit.  `layer_metrics()` turns those lines into per-layer
numbers; a layer whose functions no longer exist is reported as absent.

Run as a script, it is a traced `admz` command line:

    python3 perfbench/tracer.py --op 0 classify --level -1/2 --format json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from operator import attrgetter

TRACE_PREFIX = "#trace "


def _kernel_counts(counts, args, result):
    m = args[0]
    counts["nullspace.system_rows"] += m.nrows
    counts["nullspace.system_cols"] += m.ncols
    counts["nullspace.system_nnz"] += len(m.entries)
    counts["nullspace.rank"] += m.ncols - len(result)
    bits = [max(c.numerator.bit_length(), c.denominator.bit_length()) for v in result for c in v]
    counts["nullspace.max_coeff_bits"] = max([counts["nullspace.max_coeff_bits"], *bits])


def _basis_counts(counts, args, result):
    counts["affine.basis_dim"] += len(result)


def _matrix_counts(counts, args, result):
    counts["affine.assemble_nnz"] += len(result.entries)


# (span name, call-site module, attribute, count hook).  The call site is the
# module whose globals the caller reads: zhu imports kernel_basis, fin_ad and
# friends by name, while fin_ad reaches fin_product through usl2's globals.
# Names in COUNT_ONLY are counted, not timed, because a span per cache hit
# would cost more than the hit.  Recursive hot paths (act_mono, the
# lru-cached monomial products) are deliberately left unwrapped.
COUNT_ONLY = {"zhu.compute_Q"}
TARGETS = [
    ("affine.enum", "admz.affine", "VacuumModule.weight_space_basis", _basis_counts),
    ("affine.assemble", "admz.affine", "operator_matrix", _matrix_counts),
    ("affine.certify", "admz.affine", "VacuumModule.act", None),
    ("nullspace.kernel", "admz.zhu", "kernel_basis", _kernel_counts),
    ("usl2.product", "admz.zhu", "fin_product", None),
    ("usl2.product", "admz.usl2", "fin_product", None),
    ("usl2.ad", "admz.zhu", "fin_ad", None),
    ("usl2.project", "admz.zhu", "project_cartan", None),
    ("zhu.image", "admz.zhu", "zhu_image_F", None),
    ("zhu.mff", "admz.zhu", "mff_epsilon", None),
    ("zhu.descend", "admz.zhu", "descend_to_weight_zero", None),
    ("zhu.p2", "admz.zhu", "compute_p2", None),
    ("zhu.p1", "admz.zhu", "compute_p1", None),
    ("zhu.classify", "admz.zhu", "classify_category_O", None),
    ("zhu.compute_Q", "admz.zhu", "compute_Q", None),
    ("zhu.compute_Q", "admz.weight_modules", "compute_Q", None),
    ("exact_core.roots", "admz.zhu", "poly_root_check", None),
    ("exact_core.proportional", "admz.zhu", "poly_proportional", None),
    ("weight_modules.classify", "admz.weight_modules", "classify_weight_modules", None),
    ("weight_modules.annihilate", "admz.weight_modules", "q_annihilates_E", None),
]

# per-layer metric -> span whose self time it is
SELF_TIME_METRICS = {
    "affine.enum_s": "affine.enum",
    "affine.assemble_s": "affine.assemble",
    "affine.certify_s": "affine.certify",
    "nullspace.kernel_s": "nullspace.kernel",
    "usl2.product_s": "usl2.product",
    "usl2.ad_s": "usl2.ad",
    "usl2.project_s": "usl2.project",
    "zhu.image_s": "zhu.image",
    "zhu.mff_s": "zhu.mff",
    "zhu.descend_s": "zhu.descend",
    "zhu.p2_s": "zhu.p2",
    "zhu.p1_s": "zhu.p1",
    "zhu.classify_self_s": "zhu.classify",
    "exact_core.roots_s": "exact_core.roots",
    "exact_core.proportional_s": "exact_core.proportional",
    "weight_modules.classify_s": "weight_modules.classify",
    "weight_modules.annihilate_s": "weight_modules.annihilate",
    "cli.self_s": "cli.main",
}
# per-layer metric -> span whose number of calls it is
CALL_METRICS = {
    "nullspace.kernel_calls": "nullspace.kernel",
    "usl2.product_calls": "usl2.product",
    "usl2.ad_calls": "usl2.ad",
    "weight_modules.annihilate_calls": "weight_modules.annihilate",
}
# per-layer count metric -> span names it needs
COUNT_METRICS = {
    "affine.basis_dim": ("affine.enum",),
    "affine.assemble_nnz": ("affine.assemble",),
    "affine.memo_entries": ("affine.enum", "affine.certify"),
    "nullspace.system_rows": ("nullspace.kernel",),
    "nullspace.system_cols": ("nullspace.kernel",),
    "nullspace.system_nnz": ("nullspace.kernel",),
    "nullspace.max_coeff_bits": ("nullspace.kernel",),
}


class Recorder:
    """Spans [name, start, end, parent index, op id] and counters of one process."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {
            "nullspace.system_rows": 0,
            "nullspace.system_cols": 0,
            "nullspace.system_nnz": 0,
            "nullspace.rank": 0,
            "nullspace.max_coeff_bits": 0,
            "affine.basis_dim": 0,
            "affine.assemble_nnz": 0,
            "zhu.compute_Q.calls": 0,
        }
        self.absent: list[str] = []
        self.modules: dict[int, object] = {}

    def span(self, name: str, fn, hook=None, method=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [name, 0.0, 0.0, parent, self.op]
            self.spans.append(record)
            self.stack.append(idx)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if method:
                self.modules[id(args[0])] = args[0]
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for name, module_name, attr, hook in TARGETS:
            owner_path, _, leaf = attr.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = attrgetter(owner_path)(module) if owner_path else module
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name in COUNT_ONLY:
                wrapped = self.counter(name, fn)
            else:
                wrapped = self.span(name, fn, hook, method=bool(owner_path))
            setattr(owner, leaf, wrapped)

    def dump(self) -> str:
        counts = dict(self.counts)
        try:
            counts["affine.memo_entries"] = sum(len(m._memo) for m in self.modules.values())
        except AttributeError:
            pass  # the memo was renamed or removed: reported as absent
        record = {"spans": self.spans, "counts": counts, "absent": self.absent}
        return TRACE_PREFIX + json.dumps(record, separators=(",", ":"))


def _absent_spans(absent: list[str]) -> set[str]:
    """Span names none of whose call sites exist any more."""
    missing = set(absent)
    present = {n for n, m, a, _ in TARGETS if f"{m}.{a}" not in missing}
    return {n for n, *_ in TARGETS if n not in present}


def layer_metrics(records: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer numbers summed over the traced processes of one pass.

    Returns (metrics, absent metric names).
    """
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    absent_spans: set[str] = set()
    for rec in records:
        spans = rec["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _parent, _op), inner in zip(spans, child_time):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - inner
            calls[name] = calls.get(name, 0) + 1
        for key, value in rec["counts"].items():
            if key == "nullspace.max_coeff_bits":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        absent_spans |= _absent_spans(rec["absent"])

    metrics: dict[str, float] = {}
    absent: list[str] = []
    for metric, span in SELF_TIME_METRICS.items():
        if span in absent_spans:
            absent.append(metric)
        else:
            metrics[metric] = self_time.get(span, 0.0)
    for metric, span in CALL_METRICS.items():
        if span in absent_spans:
            absent.append(metric)
        else:
            metrics[metric] = calls.get(span, 0)
    for metric, needs in COUNT_METRICS.items():
        if absent_spans.intersection(needs) or any(metric not in r["counts"] for r in records):
            absent.append(metric)
        else:
            metrics[metric] = counts.get(metric, 0)
    if "nullspace.kernel" in absent_spans:
        absent.append("nullspace.rank_per_row")
    else:
        rows = counts.get("nullspace.system_rows", 0)
        metrics["nullspace.rank_per_row"] = counts.get("nullspace.rank", 0) / rows if rows else 0.0
    if absent_spans.intersection(("zhu.image", "zhu.compute_Q")):
        absent.append("zhu.q_cache_hit_ratio")
    else:
        q_calls = counts.get("zhu.compute_Q.calls", 0)
        metrics["zhu.q_cache_hit_ratio"] = 1 - calls.get("zhu.image", 0) / q_calls if q_calls else 0.0
    return metrics, absent


def _main(argv: list[str]) -> None:
    op = int(argv[argv.index("--op") + 1])
    cli_args = argv[argv.index("--op") + 2 :]
    recorder = Recorder(op)
    recorder.install()
    from admz import cli

    main = recorder.span("cli.main", cli.main)
    try:
        main(cli_args)
    finally:
        sys.stdout.flush()
        print(recorder.dump(), flush=True)


if __name__ == "__main__":
    _main(sys.argv[1:])
