"""Opt-in sweep of whole fields beyond the pinned contract: every enumerated
input of (2, 49), (3, 7) and (3, 11), 42,233 in all.  A plain `pytest`
deselects it; run it with `pytest -m sweep` (about 2.5 min on 2 cores)."""

import pytest

from weilsf import DEFAULT_PRECISION, WeilError
from weilsf.cli import _verify_one, enumerate_weil

from conftest import field_digest

pytestmark = pytest.mark.sweep

# (g, q) -> field_digest(g, q), as in tests/test_golden.py
SWEEP_DIGESTS = {
    (2, 49): (3711, "135f0b8d2a542bfde5d4c65a86d75b37993ac74e2336356c4050060a22f6de29"),
    (3, 7): (7979, "3eb229f6c5d521a76b9f0f667384439b3a5d52abfa25cd5c59a4a6ef97f19fa2"),
    (3, 11): (30543, "501c39d7f740dd6f93edd98dd7d3dbd20f7bdd9513a5c7d82bc84ae725d42f02"),
}


@pytest.mark.parametrize("g,q", sorted(SWEEP_DIGESTS))
def test_verify_agrees_on_every_input(g, q):
    # structural and numeric answers agree on every input: no mismatch,
    # no partial or unrealizable input and no error
    statuses = {}
    for P in enumerate_weil(g, q):
        try:
            status = _verify_one(P, DEFAULT_PRECISION)["status"]
        except WeilError as exc:
            status = type(exc).__name__
        statuses[status] = statuses.get(status, 0) + 1
    assert statuses == {"ok": SWEEP_DIGESTS[g, q][0]}


@pytest.mark.parametrize("g,q", sorted(SWEEP_DIGESTS))
def test_report_matches_field_digests(g, q):
    assert field_digest(g, q) == SWEEP_DIGESTS[g, q]
