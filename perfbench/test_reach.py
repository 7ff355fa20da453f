"""Reach check for the tracer: every listed boundary is seen where it should be.

    python3 -m pytest perfbench/test_reach.py

Each workload runs one traced pass in a fresh process.  A boundary that
reports zero calls on the workload assigned to it means a wrapper missed
its call sites (say, a binding copied by ``from .x import y`` that was not
rebound).  The predicted layers must also hold most of the self time, which
catches time leaking to the harness spans because an entry point went
unwrapped.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

REACH = {
    "words": (
        {"enveloping"},
        [
            "enveloping.ext_action_word",
            "enveloping.star_word",
            "enveloping.pbw_normal_form",
            "enveloping.coshuffle",
            "enveloping.sym_add",
            "enveloping.tensor_add",
            "enveloping.dual_coproduct_letter",
        ],
    ),
    "lie": (
        {"postlie", "derivations", "polyalg"},
        [
            "postlie.triangleright",
            "postlie.bracket",
            "postlie.diamond",
            "postlie.btr",
            "postlie.add",
            "derivations.diamond",
            "derivations.compose_commutator",
            "derivations.apply_to_monomial",
            "group.convolve",
        ],
    ),
    "tables": (
        {"representation", "polyalg"},
        [
            "representation.psi_word",
            "representation.rho_bar_word",
            "representation.coaction_contributions",
            "polyalg.multiply",
            "polyalg.add",
            "group.gamma_apply",
            "multiindex.direction_keys",
            "multiindex.enumerate_below_value",
            "enveloping.dual_coproduct_letter",
        ],
    ),
    "coords": (
        {"coordinates"},
        [
            "coordinates.check_null_torsion",
            "coordinates.check_constant_torsion",
            "coordinates.check_flat",
        ],
    ),
}


def traced_pass(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, "0", "trace"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(REACH))
def test_reach(workload):
    layers, boundaries = REACH[workload]
    result = traced_pass(workload)
    assert not result["errors"]
    trace = result["trace"]
    missed = [b for b in boundaries if not trace["calls"].get(b)]
    assert not missed, f"no calls seen on {workload}: {missed}"
    self_s = trace["self_s"]
    share = sum(self_s.get(layer, 0.0) for layer in layers) / sum(self_s.values())
    assert share > 0.5, f"{sorted(layers)} hold {share:.0%} of the self time on {workload}: {self_s}"
