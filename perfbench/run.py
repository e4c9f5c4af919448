"""Benchmark of ``chowlab verify``: fixed workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload rings-deg8 --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --record               # re-record perfbench/expect/
    python3 -m unittest discover -s perfbench -p "test_*.py"   # harness self-test

Every timed repetition is a fresh interpreter (perfbench/child.py) that puts
this checkout's ``src`` first on ``sys.path``, imports ``chowlab.cli`` and
runs the workload's ``verify`` calls through ``chowlab.cli.main``, because a
user pays import and every cache on each CLI call.  The seed permutes the
order of the calls in each repetition, so no change can profit from a call
order that warms a module-level cache.  One client, one thread, closed loop:
repetitions run back to back until ``--seconds`` is spent (at least
MIN_REPS of them).

Each report is checked against perfbench/expect/<workload>.json, which holds
every case's (id, params, pass, informational outcome) recorded at the
commit that added it; ``details`` is left out so that work counters added to
it later do not break the check.  A repetition fails on a non-zero exit, a
timeout, a failing case or any difference from the expectation.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
perfbench/tracer.py, after checking that the traced reports equal the
untraced ones, that per-layer counts repeat exactly, and that every layer the
workload should reach was reached.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; a table and the
environment record go to stderr.  Exit status: 0 correct, 1 a check failed
(result still printed), 2 the harness could not run (nothing printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
EXPECT_DIR = BENCH_DIR / "expect"

MIN_REPS = 3
SETUP_PER_REP = 1  # set-up-only processes per repetition, besides the repetition's own
SETUP_TIMEOUT_S = 30.0
REP_TIMEOUT_S = 90.0  # about ten times the slowest workload's repetition
RUN_LIMIT_S = 150.0  # no repetition starts or runs past this point of a run


@dataclass(frozen=True)
class Workload:
    calls: tuple[tuple[str, ...], ...]
    layers: tuple[str, ...]  # layers the traced run must reach
    heaviest: tuple[str, ...]  # predicted layer group with the largest self time


def _verify(suites, *options):
    return tuple(("verify", suite) + options for suite in suites)


# Why these workloads: verify-default is the command every user runs and
# touches every layer (mostly F_{p^2} arithmetic in counts and i2i at p=3,
# n=4).  rings-deg8 stands in for the --max-degree 8 / --max-r 4 stress
# ladders: vectorize and ZSpan on wide integer rows, no finite-field work.
# witt-n5 is finite-field enumeration driven by the prime-field quadratic
# form (QuadraticSpace.polar), no algebra work, so an F_{p^2} speed-up should
# move verify-default and leave witt-n5 unchanged.  motives-smoke is the
# sub-second configuration of the harness self-test.
WORKLOADS = {
    "verify-default": Workload(_verify(["all"]), tracer.LAYERS, ("finitefields",)),
    "rings-deg8": Workload(
        _verify(["lemmaS", "codim2", "weil", "primerchik", "odd911"], "--max-degree", "8"),
        ("algebra", "linalg", "invariants", "weil", "grassmann", "motives", "suites", "cli"),
        ("algebra", "linalg"),
    ),
    "witt-n5": Workload(
        _verify(["i2i", "counts"], "--max-n", "5", "--max-p", "2"),
        ("linalg", "finitefields", "motives", "suites", "cli"),
        ("finitefields",),
    ),
    "motives-smoke": Workload(_verify(["motives"]), ("motives", "suites", "cli"), ("cli",)),
}

END_TO_END = (
    ("verify_s", "s"),
    ("verify_p75_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(Exception):
    """The benchmark could not run at all; no result is printed."""


def _child_env() -> dict:
    drop = ("CHOWLAB_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(calls, trace: bool, timeout: float):
    """Run one child process; return (its JSON result, None) or (None, why it failed)."""
    spec = {"src": str(SRC), "calls": [list(c) for c in calls], "trace": trace}
    spec["t0"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            env=_child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.2f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}"
    return json.loads(proc.stdout.splitlines()[-1]), None


def case_keys(report: dict) -> list:
    """The compared part of a verify report: (id, params, pass, informational outcome)."""
    return [
        [c["id"], c["params"], c["pass"], c["details"].get("outcome") if c.get("informational") else None]
        for c in report["cases"]
    ]


def call_key(argv) -> str:
    return " ".join(argv)


def gate(result: dict, expected: dict) -> str | None:
    """Why a repetition's reports are wrong, or None when they are right."""
    for call in result["calls"]:
        key = call_key(call["argv"])
        if call["exit"] != 0:
            return f"{key}: exit {call['exit']}: {call['stderr'].strip()[-300:]}"
        report = json.loads(call["report"])
        failing = [c["id"] for c in report["cases"] if not c["pass"]]
        if failing:
            return f"{key}: failing cases {failing[:5]}"
        if case_keys(report) != expected.get(key):
            return f"{key}: report differs from the recorded expectation"
    return None


def _reports(result: dict) -> dict:
    out = {}
    for call in result["calls"]:
        report = json.loads(call["report"])
        report.pop("elapsed", None)
        out[call_key(call["argv"])] = report
    return out


def _upper_quartile(samples: list) -> float:
    # the highest percentile that a run's 3 to 20 repetitions estimate without
    # resting on a single sample
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def _verify_s(result: dict) -> float:
    return sum(call["wall_s"] for call in result["calls"])


def load_expected(name: str) -> dict:
    path = EXPECT_DIR / f"{name}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read expectation {path}: {exc}") from exc


def _warm_up() -> None:
    # compiles src to .pyc so that compilation does not land in setup_s
    result, error = spawn([], False, SETUP_TIMEOUT_S)
    if result is None:
        raise HarnessError(f"warm-up process failed: {error}")


class Run:
    """Bookkeeping shared by the untraced and the traced run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, expected: dict, rep_timeout: float | None):
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.expected = expected
        self.rep_timeout = rep_timeout or REP_TIMEOUT_S
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: dict[int, str] = {}  # repetition number -> why it failed
        self.timed_out = False

    def more(self, done: int, cost_s: float, minimum: int = MIN_REPS) -> bool:
        """Start another repetition (or pair)? At least ``minimum``, then while time is left."""
        if self.timed_out:
            return False
        elapsed = time.monotonic() - self.start
        if elapsed + min(self.rep_timeout, 1.0) > RUN_LIMIT_S:
            return False
        return done < minimum or elapsed + cost_s <= self.seconds

    def order(self):
        calls = list(self.workload.calls)
        self.rng.shuffle(calls)
        return calls

    def rep(self, calls, trace: bool):
        """One checked repetition; returns the child result or None when it failed."""
        self.attempted += 1
        budget = RUN_LIMIT_S - (time.monotonic() - self.start)
        result, error = spawn(calls, trace, min(self.rep_timeout, budget))
        if result is None:
            self.timed_out = error.startswith("timed out")
            self.failures[self.attempted] = error
            return None
        error = gate(result, self.expected)
        if error is not None:
            self.failures[self.attempted] = error
        return result


def measure(name: str, seed: int, seconds: float, expected: dict, rep_timeout: float | None = None):
    """The untraced run: end-to-end metrics."""
    _warm_up()
    run = Run(name, seed, seconds, expected, rep_timeout)
    setups, results, walls = [], [], []
    while run.more(len(walls), statistics.fmean(walls) if walls else 0.0):
        began = time.monotonic()
        # set-up-only processes spread over the run see the same machine as the repetitions
        for _ in range(SETUP_PER_REP):
            result, error = spawn([], False, SETUP_TIMEOUT_S)
            if result is None:
                raise HarnessError(f"set-up process failed: {error}")
            setups.append(result["setup_s"])
        result = run.rep(run.order(), False)
        walls.append(time.monotonic() - began)
        if result is not None:
            results.append(result)
    verify = [_verify_s(r) for r in results]
    setups += [r["setup_s"] for r in results]
    values = {
        "verify_s": statistics.median(verify) if verify else 0.0,
        "verify_p75_s": _upper_quartile(verify),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results) if results else 0.0,
    }
    notes = {
        "verify_s": f"median of {len(verify)} repetitions",
        "verify_p75_s": f"upper quartile of {len(verify)} repetitions",
        "setup_s": f"median of {len(setups)} processes",
        "peak_rss_mb": f"median of {len(results)} repetitions",
    }
    return run, values, notes, {}


def _counts(snapshot: dict):
    return (
        {k: v[0] for k, v in snapshot["buckets"].items()},
        snapshot["counters"],
    )


def measure_traced(name: str, seed: int, seconds: float, expected: dict, rep_timeout: float | None = None):
    """The traced run: pairs of untraced and traced repetitions, per-layer metrics."""
    _warm_up()
    run = Run(name, seed, seconds, expected, rep_timeout)
    plain_s, traced_s, snapshots, walls = [], [], [], []
    while run.more(len(walls), statistics.fmean(walls) if walls else 0.0, minimum=1):
        began = time.monotonic()
        calls = run.order()
        plain = run.rep(calls, False)
        traced = run.rep(calls, True) if plain is not None else None
        walls.append(time.monotonic() - began)
        if plain is None or traced is None:
            continue
        snapshot = traced["trace"]
        problems = []
        if _reports(traced) != _reports(plain):
            problems.append("traced reports differ from untraced ones")
        missing = set(run.workload.layers) - tracer.layers_reached(snapshot)
        if missing:
            problems.append(f"layers not reached: {sorted(missing)}")
        if snapshots and _counts(snapshot) != _counts(snapshots[0]):
            problems.append("per-layer counts differ between traced repetitions")
        if problems:
            run.failures.setdefault(run.attempted, "; ".join(problems))
            continue
        plain_s.append(_verify_s(plain))
        traced_s.append(_verify_s(traced))
        snapshots.append(snapshot)
    values = dict.fromkeys((m for m, _ in tracer.METRICS), 0.0)
    layer_s = {}
    if snapshots:
        units = dict(tracer.METRICS)
        per_rep = [tracer.metrics(s) for s in snapshots]
        for metric in per_rep[0]:
            samples = [m[metric] for m in per_rep]
            values[metric] = statistics.median(samples) if units[metric] == "s" else samples[0]
        values["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
        layer_s = {
            layer: statistics.median(tracer.layer_self_seconds(s)[layer] for s in snapshots)
            for layer in tracer.LAYERS
        }
    notes = {"trace.overhead_ratio": f"traced over untraced verify_s, {len(snapshots)} pairs"}
    return run, values, notes, layer_s


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _probe_s() -> float:
    """Seconds for a fixed pure-Python loop: shows how fast the host runs Python
    at the moment, which the load average of a shared virtual machine does not."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _layer_lines(name: str, layer_s: dict) -> list[str]:
    total = sum(layer_s.values()) or 1.0
    ranked = sorted(layer_s.items(), key=lambda kv: -kv[1])
    lines = ["  self time by layer: " + ", ".join(f"{k} {v:.3f} s ({v / total:.0%})" for k, v in ranked)]
    group = WORKLOADS[name].heaviest
    group_s = sum(layer_s[k] for k in group)
    others = max((v for k, v in layer_s.items() if k not in group), default=0.0)
    verdict = "match" if group_s > others else "MISMATCH"
    lines.append(f"  predicted heaviest {'+'.join(group)} at {group_s:.3f} s vs next layer {others:.3f} s: {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record perfbench/expect/ and exit")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "chowlab" / "cli.py").is_file():
            raise HarnessError(f"no chowlab sources under {SRC}")
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        return report(args.workload, args.seed, args.seconds, bool(args.trace), load_expected(args.workload))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def report(name: str, seed: int, seconds: float, trace: bool, expected: dict, rep_timeout: float | None = None) -> int:
    """Run one workload, print the table and environment to stderr and the result line to stdout."""
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loadavg_before": os.getloadavg(),
        "probe_s_before": _probe_s(),
    }
    measure_fn = measure_traced if trace else measure
    run, values, notes, layer_s = measure_fn(name, seed, seconds, expected, rep_timeout)
    env["loadavg_after"] = os.getloadavg()
    env["probe_s_after"] = _probe_s()
    units = dict(tracer.METRICS if trace else END_TO_END)
    failed = len(run.failures)
    correct = failed == 0 and run.attempted > 0
    lines = [f"perfbench {name} seed={seed} trace={int(trace)}: {run.attempted} repetitions, {failed} failed"]
    for metric, unit in units.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        lines.append(f"  {metric:32s} {values[metric]:12.6g} {unit}{note}")
    fail_ratio = failed / run.attempted if run.attempted else 1.0
    lines.append(f"  {'fail_ratio':32s} {fail_ratio:12.6g} ratio  ({failed}/{run.attempted})")
    if layer_s:
        lines += _layer_lines(name, layer_s)
    for number, failure in sorted(run.failures.items()):
        lines.append(f"  FAILED repetition {number}: {failure}")
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps({"env": env}), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def record() -> int:
    """Write perfbench/expect/<workload>.json from one run of each workload at this commit."""
    EXPECT_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        result, error = spawn(workload.calls, False, 10 * REP_TIMEOUT_S)
        if result is None:
            raise HarnessError(f"{name}: {error}")
        expected = {}
        for call in result["calls"]:
            report_json = json.loads(call["report"])
            if call["exit"] != 0 or not report_json["pass"]:
                raise HarnessError(f"{name}: {call_key(call['argv'])} does not pass; not recording")
            expected[call_key(call["argv"])] = case_keys(report_json)
        path = EXPECT_DIR / f"{name}.json"
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"recorded {path.relative_to(ROOT)}: {sum(map(len, expected.values()))} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
