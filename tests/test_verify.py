"""The bundled verification suites must all be green."""

import os
import subprocess
import sys

import pytest

from linext.verify import SUITES, verify_eq7


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_suite_passes(suite_id):
    results = SUITES[suite_id]()
    assert results, suite_id
    failures = [(r.name, r.detail) for r in results if not r.passed]
    assert failures == []


def test_eq7_checks_distant_commutation():
    """B_4 has height 4, so tau_1 and tau_3 commute on each of its 24 maximal chains;
    a row names commutation only when it checked some distant pair."""
    results = verify_eq7()
    detail = next(r.detail for r in results if r.name == "B_4: tau_i^2 = 1 and commutation")
    assert int(detail.split()[0]) > 0
    for r in results:
        if r.detail.endswith("distant-pair checks"):
            assert r.name.endswith("and commutation") == (int(r.detail.split()[0]) > 0), r.name


def test_run_verifications_rejects_unknown_suite_ids():
    root = os.path.join(os.path.dirname(__file__), "..")
    script = os.path.join(root, "scripts", "run_verifications.py")
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, script, "nosuch"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nosuch" in proc.stderr and "thm1" in proc.stderr
