"""One benchmark pass in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (build the inputs, then stop before the first timed
call), ``plain`` (one untraced pass) or ``trace`` (one traced pass).  The
last line of standard output is one JSON object.  Times are read from
``time.monotonic``, which is system-wide on Linux, so the parent can
subtract its own reading taken just before it started this process.

The library is imported from ``src/`` of the checkout this file sits in and
nowhere else: a checkout without it must fail, not measure some other copy.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def advance(it):
    """Run one task: the work happens inside the group's ``next()``."""
    return next(it, None)


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import postliemi

    where = Path(postliemi.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"postliemi imported from {where}, not from {src}")


def run_pass(workload: str, seed: int, mode: str) -> dict:
    import_library()
    import workloads

    wl = workloads.build(workload, seed)
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    first_call = time.monotonic()
    if mode == "setup":
        return {"first_call": first_call}

    tasks = []
    errors = []
    start = time.perf_counter()
    prev = start
    task_id = 0
    for layer, group, factory in wl.groups:
        it = factory()
        step = tracer.wrap_root(advance, layer, group) if tracer else advance
        while True:
            if tracer:
                tracer.task = task_id
            try:
                item = step(it)
            except Exception as exc:  # the task failed; report it, go on with the next group
                errors.append(f"{group}: {type(exc).__name__}: {exc}")
                break
            now = time.perf_counter()
            if item is None:
                break
            name, text, checks, violations = item
            tasks.append(
                {
                    "name": name,
                    "seconds": now - prev,
                    "checks": checks,
                    "violations": violations,
                    "digest": digest(text),
                }
            )
            prev = now
            task_id += 1
    wall = time.perf_counter() - start
    out = {
        "first_call": first_call,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tasks": tasks,
        "errors": errors,
    }
    if tracer:
        out["trace"] = tracer.summary()
        out["trace"]["sizes"] = wl.sizes
        tracer.write(OUT_DIR / f"spans-{workload}", seed)
    return out


def main(argv: list) -> int:
    if len(argv) != 3 or argv[2] not in ("setup", "plain", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run_pass(argv[0], int(argv[1]), argv[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
