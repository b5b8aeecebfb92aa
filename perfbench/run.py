"""Pipeline benchmark for admz: workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload kernel-mid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Operations run as child processes of this driver, one at a time and each
single-threaded: a closed loop with one client.  A run repeats whole passes
over the workload's operation stream while another pass fits in --seconds
(at least one pass).  Every answer goes through gate.py.  The last stdout line is a
JSON object {correct, attempted, failed, metrics}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from tracer.py.
See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gate
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = ROOT / ".bench_results" / "summary.json"
DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text())

PY = sys.executable
CLI = "import sys; from admz.cli import main; sys.exit(main())"  # the `admz` console script
OP_TIMEOUT_S = 120  # per child process; a kill counts as a failed operation
SETUP_SAMPLES = 15

CLASSIFY_WORKLOADS = {
    "kernel-mid": ("-1/3",),
    "ladder-small": ("1", "-1/2", "1/2", "-4/3", "-2/3", "-5/4", "3/2", "-8/5", "-12/7"),
    "integer-high": ("25", "30", "35", "40"),
}
DENSE_LEVELS = ("-1/2", "1/2", "-4/3", "-2/3", "-5/4", "3/2", "-8/5", "-12/7")
DENSE_ROUNDS_PER_BATCH = 50  # a batch asks every level this many times
DENSE_BATCHES_PER_PASS = 8
WORKLOADS = (*CLASSIFY_WORKLOADS, "dense-queries")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "queries_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{m: "s" for m in tracer.SELF_TIME_METRICS},
    **{m: "count" for m in (*tracer.CALL_METRICS, *tracer.COUNT_METRICS)},
    "nullspace.max_coeff_bits": "bits",
    "nullspace.rank_per_row": "ratio",
    "zhu.q_cache_hit_ratio": "ratio",
    "tracing.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Child:
    """A child process that is killed at OP_TIMEOUT_S and reaped with wait4."""

    def __init__(self, argv: list[str], interactive: bool = False):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE if interactive else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
            env=child_env(),
            text=True,
        )
        self.timed_out = False
        self.timer = threading.Timer(OP_TIMEOUT_S, self._kill)
        self.timer.start()
        self.code = self.wall_s = self.rss_mb = None

    def _kill(self):
        self.timed_out = True
        self.proc.kill()

    def ask(self, request: dict) -> dict | None:
        """One request/reply round trip; None if the child died."""
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            return json.loads(self.proc.stdout.readline())
        except (BrokenPipeError, json.JSONDecodeError):
            return None

    def finish(self) -> str:
        """Close input, read the rest of the output, reap; returns that output."""
        if self.proc.stdin:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        self.timer.cancel()
        self.timer.join()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - self.start
        self.rss_mb = usage.ru_maxrss / 1024
        return out

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out


def split_trace(out: str) -> tuple[str, dict | None]:
    body, sep, tail = out.rpartition(tracer.TRACE_PREFIX)
    if not sep:
        return out, None
    return body, json.loads(tail)


@dataclass
class Pass:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    batch_rates: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    sample: tuple | None = None  # a passing answer, for the gate self-test


def classify_pass(levels, rng, traced: bool) -> Pass:
    result = Pass()
    order = list(levels)
    rng.shuffle(order)
    for op, level in enumerate(order):
        if traced:
            argv = [PY, str(BENCH_DIR / "tracer.py"), "--op", str(op)]
        else:
            argv = [PY, "-c", CLI]
        child = Child(argv + ["classify", "--level", level, "--format", "json"])
        out = child.finish()
        result.attempted += 1
        result.wall_s += child.wall_s
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        problems = []
        if not child.ok:
            limit = " (time limit)" if child.timed_out else ""
            problems.append(f"exit {child.code}{limit}: {out[-400:]}")
        else:
            try:
                body, trace = split_trace(out)
                report = json.loads(body)
            except json.JSONDecodeError as exc:
                problems.append(f"unreadable output: {exc}")
            else:
                problems = gate.check_report(level, report, DIGESTS.get(level))
                if traced:
                    result.traces.append(trace)
                if not problems and result.sample is None:
                    result.sample = ("classify", level, report)
        if problems:
            result.failed += 1
            result.problems.append(f"classify {level}: " + "; ".join(problems))
    return result


def dense_batch(rng, S_of) -> list:
    """One batch: every level DENSE_ROUNDS_PER_BATCH times, in seeded order.

    Half the r values come from S, half are random rationals; mu is never
    an integer and neither is r - mu, so every E(r, mu) is irreducible.
    """
    queries = []
    for rnd in range(DENSE_ROUNDS_PER_BATCH):
        order = list(enumerate(DENSE_LEVELS))
        rng.shuffle(order)
        for i, level in order:
            if (rnd + i) % 2 == 0:
                r = rng.choice(S_of[level])
            else:
                r = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            while True:
                mu = Fraction(rng.randint(-30, 30), rng.randint(2, 9))
                if mu.denominator != 1 and (r - mu).denominator != 1:
                    break
            queries.append([level, str(r), str(mu)])
    return queries


def dense_pass(rng, traced: bool) -> Pass:
    result = Pass()
    S_of = {level: gate.expected_S(*gate.level_pq(level)) for level in DENSE_LEVELS}
    argv = [PY, str(BENCH_DIR / "dense_child.py")] + (["--trace"] if traced else [])
    child = Child(argv, interactive=True)
    op = len(DENSE_LEVELS)
    reply = child.ask({"fill": list(DENSE_LEVELS), "op": 0})
    result.attempted += len(DENSE_LEVELS)
    if reply is None:
        result.failed += len(DENSE_LEVELS)
    for _ in range(DENSE_BATCHES_PER_PASS if reply else 0):
        queries = dense_batch(rng, S_of)
        t0 = time.perf_counter()
        reply = child.ask({"batch": queries, "op": op})
        elapsed = time.perf_counter() - t0
        answers = reply["answers"] if reply else []
        result.attempted += len(queries)
        failed = gate.count_dense_failures(queries, answers, S_of)
        result.failed += failed
        op += len(queries)
        if not reply:
            break
        result.batch_rates.append(len(queries) / elapsed)
        if failed:
            result.problems.append(f"dense batch at op {op}: {failed} answers disagree with T")
        elif result.sample is None:
            result.sample = ("dense", queries, answers, S_of)
    out = child.finish()
    if not child.ok:
        result.failed += 1
        result.problems.append(f"dense child exit {child.code}: {out[-400:]}")
    elif traced:
        result.traces.append(split_trace(out)[1])
    result.wall_s = child.wall_s
    result.rss_mb = child.rss_mb
    return result


def run_passes(workload: str, rng, seconds: float, traced: bool) -> list[Pass]:
    """Whole passes for at most `seconds`: a pass starts only if one more of
    the last pass's length still fits.  The first pass always runs."""
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() + passes[-1].wall_s <= deadline:
        if workload == "dense-queries":
            passes.append(dense_pass(rng, traced))
        else:
            passes.append(classify_pass(CLASSIFY_WORKLOADS[workload], rng, traced))
    return passes


def setup_samples(n: int) -> tuple[list[float], float]:
    """Wall times of fresh interpreters importing admz and admz.cli."""
    times, rss = [], 0.0
    for _ in range(n + 1):  # the first one may compile bytecode; dropped
        child = Child([PY, "-c", "import admz, admz.cli"])
        out = child.finish()
        if not child.ok:
            raise RuntimeError(f"importing admz failed: {out[-400:]}")
        times.append(child.wall_s)
        rss = max(rss, child.rss_mb)
    return times[1:], rss


def environment() -> dict:
    child = Child([PY, "-c", "import admz; print(admz.default_backend())"])
    backend = child.finish().strip()
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "admz_backend": backend if child.ok else "unavailable",
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def gate_self_test(passes: list[Pass]) -> list[str]:
    """What the gate let through when fed an altered copy of a passing answer."""
    sample = next((p.sample for p in passes if p.sample), None)
    if sample is None:
        return ["no passing operation to feed the gate self-test"]
    if sample[0] == "classify":
        _, level, report = sample
        caught = gate.catches_moved_root(level, report, DIGESTS[level])
        return [] if caught else ["report with one root of p2 moved"]
    caught = gate.catches_flipped_answer(*sample[1:])
    return [] if caught else ["dense answer flipped"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run. Returns (result object, human-readable lines)."""
    rng = random.Random(f"{workload}:{seed}")
    lines = []
    metrics = {}
    if not trace:
        setup, setup_rss = setup_samples(SETUP_SAMPLES)
        passes = run_passes(workload, rng, seconds, traced=False)
        measured = passes
        run_times = [p.wall_s for p in passes]
        if workload == "dense-queries":
            rates = [r for p in passes for r in p.batch_rates] or [0.0]  # [0.0]: every batch failed
            qps, qps_note = statistics.median(rates), f"median over batches, {quartiles(rates)}"
        else:
            ops = sum(p.attempted for p in passes)
            qps, qps_note = ops / sum(run_times), f"{ops} operations"
        values = {
            "setup_s": (statistics.median(setup), quartiles(setup)),
            "run_s": (statistics.median(run_times), f"median over passes, {quartiles(run_times)}"),
            "queries_per_s": (qps, qps_note),
            "peak_rss_mb": (max([setup_rss] + [p.rss_mb for p in passes]), "largest child"),
        }
        for name, (value, note) in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            lines.append(f"{workload}  {name} = {value:.6g} {END_TO_END_UNITS[name]}  ({note})")
    else:
        plain = run_passes(workload, rng, seconds / 2, traced=False)
        traced = run_passes(workload, rng, seconds / 2, traced=True)
        measured = plain + traced
        per_pass = [tracer.layer_metrics(p.traces) for p in traced]
        absent = sorted({name for _, gone in per_pass for name in gone})
        for name in sorted(set().union(*(m for m, _ in per_pass))):
            value = statistics.median(m[name] for m, _ in per_pass)
            metrics[name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
        overhead = statistics.median(p.wall_s for p in traced) - statistics.median(
            p.wall_s for p in plain
        )
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            lines.append(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
        lines.extend(f"{workload}  {name} = absent (wrapped function no longer exists)" for name in absent)
        lines.append(f"{workload}  traced passes: {len(traced)}, untraced passes: {len(plain)}")

    attempted = sum(p.attempted for p in measured)
    failed = sum(p.failed for p in measured)
    lines.append(f"{workload}  ops_failed_ratio = {failed / attempted:.6g}  ({failed}/{attempted})")
    escaped = gate_self_test(measured)
    for problem in [q for p in measured for q in p.problems] + [f"gate self-test: {e}" for e in escaped]:
        lines.append(f"{workload}  FAILED {problem}")
    result = {
        "correct": failed == 0 and not escaped,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def run_all(seed: int, seconds: float, env: dict) -> int:
    summary = {"environment": env, "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (False, True):
            result, lines = run_workload(workload, seed, seconds, trace)
            print("\n".join(lines), flush=True)
            entry["per_layer" if trace else "end_to_end"] = result
            ok = ok and result["correct"]
        summary["workloads"][workload] = entry
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {RESULTS.relative_to(ROOT)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "admz" / "__init__.py").is_file():
        print(f"error: no admz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env), flush=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, env)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
