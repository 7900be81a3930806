"""The bundled verification suites must all be green."""

import os
import subprocess
import sys

import pytest

from linext import chains, verify
from linext.cli import main
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


# (module verify reads the route from, route, a wrong map, owning suite, the
# row suffix that must fail): the second routes each suite runs
BROKEN_ROUTES = [
    (verify, "evacuate_by_freezing", lambda P, w: w, "promotion", "freezing = word evacuation"),
    (verify, "dual_evacuate_via_dual", lambda P, w: w, "promotion", "evac on P* = dual evac"),
    (verify, "rotate_blocks", lambda blocks: tuple(t for b in blocks for t in b), "promotion",
     "block rotation = promotion"),
    (chains, "signed_delta_power", lambda w: w, "crosspoly", "delta^(n+1) = gamma gamma*"),
    (chains, "promote_chains", lambda Q, v: v, "eq7", "linear delta = +-promotion"),
    (verify, "antichain_cuts_all_chains", lambda P, A: len(A) == 1, "thm3", "cutting antichains"),
]


@pytest.mark.parametrize("module,route,wrong,suite_id,row", BROKEN_ROUTES,
                         ids=[case[1] for case in BROKEN_ROUTES])
def test_a_broken_second_route_fails_its_suite(module, route, wrong, suite_id, row, monkeypatch):
    assert all(r.passed for r in SUITES[suite_id]())
    monkeypatch.setattr(module, route, wrong)
    failed = [r.name for r in SUITES[suite_id]() if not r.passed]
    assert failed and all(name.endswith(row) for name in failed), failed


def test_cli_verify_promotion_exits_1_when_freezing_is_broken(monkeypatch, capsys):
    assert main(["verify", "promotion"]) == 0
    monkeypatch.setattr(verify, "evacuate_by_freezing", lambda P, w: w)
    assert main(["verify", "promotion"]) == 1
    assert "freezing = word evacuation\tFAIL" in capsys.readouterr().out
