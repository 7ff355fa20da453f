"""Record ``reference.json``: the checks total and output digest of every task.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one untraced pass per workload and input set (``SEED_CLASSES`` of
them), one after another, and stores, for each task, ``[checks, digest]``.  Tasks whose record
is the same for every input set are stored once under ``shared``.  It
refuses to record a suite with violations or a mutated structure-constant
table that any check lets through, since that reference would certify a
broken result.  Rerun it only when an output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_library()
from workloads import SEED_CLASSES, WORKLOADS  # noqa: E402


def one_pass(wl: str, cls: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), wl, str(cls), "plain"]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{wl} input set {cls}: pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{wl} input set {cls}: {result['wall_s']:.1f} s", file=sys.stderr)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    ref["seed_classes"] = SEED_CLASSES
    for wl in args.workloads:
        results = {cls: one_pass(wl, cls) for cls in range(SEED_CLASSES)}
        per_class = {}
        for cls, r in results.items():
            if r["errors"]:
                raise SystemExit(f"{wl} input set {cls}: {r['errors']}")
            for t in r["tasks"]:
                if t["violations"]:
                    raise SystemExit(f"{wl} input set {cls}: {t['name']} has violations")
                if t["name"].startswith("mutated.") and not t["checks"]:
                    raise SystemExit(f"{wl} input set {cls}: {t['name']} let the mutation through")
            per_class[cls] = {t["name"]: [t["checks"], t["digest"]] for t in r["tasks"]}
        names = [t["name"] for t in results[0]["tasks"]]
        shared = {n: per_class[0][n] for n in names if all(per_class[c][n] == per_class[0][n] for c in per_class)}
        ref["workloads"][wl] = {
            "tasks": names,
            "shared": shared,
            "by_class": {
                str(c): {n: v for n, v in rows.items() if n not in shared} for c, rows in per_class.items()
            },
        }
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
