"""The benchmark's pinned invocations, replayed in process: every
invocation of perfbench/workloads.py's PINNED, and its SETUP_PROBE, must
exit with its pinned code and write the bytes of its pinned SHA-256.
The pins are read from the benchmark by import, so they have one source.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from qortho.cli import run

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

INVOCATIONS = [inv for invs in workloads.PINNED.values() for inv in invs]
INVOCATIONS.append(workloads.SETUP_PROBE)


@pytest.mark.parametrize("inv", INVOCATIONS, ids=[i.name for i in INVOCATIONS])
def test_pinned_invocation_matches_its_digest(inv, tmp_path):
    out = tmp_path / "report.json"
    assert run(inv.argv + ["--out", str(out)]) == inv.exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == inv.sha256
