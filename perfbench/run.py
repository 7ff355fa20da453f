"""postliemi benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Loop model: closed, one caller, single thread.  Each pass runs every task of
the workload once, in order, in a fresh interpreter (``worker.py``), so the
library's memo tables start cold as they do for a command-line user.
Passes run one at a time; after the first ``MIN_PASSES`` another starts
only while the measuring time allows a pass of the length just seen, so
every median below has at least ``MIN_PASSES`` samples.

Before the passes, ``SETUP_PROBES`` extra processes build the inputs and
stop; with the set-up of every pass they give the median ``setup_s``.

Every task's printed text is hashed and compared with ``reference.json``,
together with its checks total; a suite with violations, a task that
raises, a missing task and a mutated structure-constant table whose
residual list comes back empty all fail.  Any failure makes the exit
status 1.  ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a reader, with sample counts and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_PASSES = 3
DEADLINE_S = 170  # the whole command must end well within 180 s


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()

    def spawn(self, mode: str) -> dict:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time before a pass could start")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), mode],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass did not finish within the time left") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} pass printed no result")
        out = json.loads(lines[-1])
        out["setup_s"] = out.pop("first_call") - t0
        return out


# -- correctness -------------------------------------------------------------


def load_reference(workload: str, seed: int) -> list:
    """The expected ``(task, checks, digest)`` list for this seed."""
    ref = json.loads((HERE / "reference.json").read_text())
    entry = ref["workloads"][workload]
    own = entry["by_class"][str(seed % ref["seed_classes"])]
    return [(name, *(own.get(name) or entry["shared"][name])) for name in entry["tasks"]]


def task_failures(result: dict, expected: list) -> tuple:
    """(failed task count, messages) for one pass; a missing task fails."""
    msgs = [f"raised: {e}" for e in result["errors"]]
    got = {t["name"]: t for t in result["tasks"]}
    failed = 0
    for name, checks, dig in expected:
        t = got.get(name)
        if t is None:
            msg = "missing"
        elif t["violations"]:
            msg = f"{t['violations']} violations"
        elif t["checks"] != checks:
            msg = f"checks {t['checks']}, reference {checks}"
        elif t["digest"] != dig:
            msg = f"output digest {t['digest']}, reference {dig}"
        elif name.startswith("mutated.") and not t["checks"]:
            msg = "mutated table passed"
        else:
            continue
        failed += 1
        msgs.append(f"{name}: {msg}")
    extra = sorted(set(got) - {name for name, _, _ in expected})
    msgs += [f"{name}: not in the reference" for name in extra]
    return failed + len(extra), msgs


# -- metrics -----------------------------------------------------------------


def end_to_end(passes: list, setups: list) -> dict:
    """name -> (value, note on the samples)"""
    # A task's latency is its median over the passes; the row percentiles are
    # taken across the workload's distinct tasks, so row_p90_ms reports the
    # slow rows, not the slow moments of a shared machine.
    by_task: dict = {}
    for p in passes:
        for t in p["tasks"]:
            by_task.setdefault(t["name"], []).append(t["seconds"] * 1000)
    lat = [statistics.median(v) for v in by_task.values()]
    n = len(lat)
    # a task that raised has no latency; a run with none left is failed anyway
    lat = lat or [0.0]
    return {
        "wall_s": (
            statistics.median(p["wall_s"] for p in passes),
            f"median of {len(passes)} passes: " + " ".join(f"{p['wall_s']:.3f}" for p in passes),
        ),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (
            statistics.median(p["peak_rss_mb"] for p in passes),
            f"median of {len(passes)} passes",
        ),
        "row_p50_ms": (statistics.median(lat), f"over {n} task medians"),
        "row_p90_ms": (
            statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0],
            f"over {n} task medians",
        ),
    }


def per_layer(names: list, plain: dict, traced: dict) -> dict:
    t = traced["trace"]
    values = {}
    for name in names:
        head, _, kind = name.rpartition(".")
        if name == "trace.overhead_ratio":
            v = traced["wall_s"] / plain["wall_s"]
        elif kind == "self_s":
            v = t["self_s"].get(head, 0.0)
        elif kind == "raised":
            v = t["raised"].get(head, 0)
        elif kind == "calls":
            v = t["calls"].get(head, 0)
        elif kind == "repeat_ratio":
            v = t["repeat_ratio"].get(head, 0.0)
        elif kind == "s":
            v = t["inclusive_s"].get(head, 0.0)
        else:
            v = t["sizes"].get(name, 0)
        if kind in ("calls", "repeat_ratio") and head not in t["calls"]:
            print(f"warning: no traced boundary {head!r} for {name}", file=sys.stderr)
        values[name] = (v, "one traced pass")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "postliemi" / "__init__.py").is_file():
            raise BenchError("no library at src/postliemi in this checkout")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        expected = load_reference(args.workload, args.seed)
        runner = Runner(args.workload, args.seed)
        setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        passes = []
        traced = None
        begin = time.monotonic()
        if args.trace:
            passes.append(runner.spawn("plain"))
            traced = runner.spawn("trace")
        else:
            while True:
                passes.append(runner.spawn("plain"))
                elapsed = time.monotonic() - begin
                if len(passes) >= MIN_PASSES and elapsed + passes[-1]["wall_s"] > seconds:
                    break
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    checked = passes + ([traced] if traced else [])
    failed, failures = 0, []
    for p in checked:
        n, msgs = task_failures(p, expected)
        failed += n
        failures += msgs
    attempted = len(expected) * len(checked)
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    setups += [p["setup_s"] for p in checked]
    if args.trace:
        metrics = spec["per_layer"]
        values = per_layer([m["name"] for m in metrics], passes[0], traced)
    else:
        metrics = spec["end_to_end"]
        values = end_to_end(passes, setups)
    units = {m["name"]: m["unit"] for m in metrics}

    print(
        f"workload {args.workload}, seed {args.seed}: {len(checked)} passes of "
        f"{len(expected)} tasks; closed loop, one caller, fresh process per pass; "
        f"python {platform.python_version()}, nproc {os.cpu_count()}"
    )
    width = max(len(n) for n in values)
    for name, (v, note) in values.items():
        print(f"  {name:<{width}}  {v:.6g} {units[name]}  ({note})")
    print(f"  {'fail_ratio':<{width}}  {failed / attempted:.6g}  ({failed} of {attempted} tasks)")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in values.items()},
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
