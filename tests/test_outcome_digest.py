"""Smoke test of ``tools/outcome_digest.py``.

The digest tool is the byte-identity evidence for a kernel refactor:
two checkouts print the same file or they differ.  That evidence only
holds if a case digests to the same value every time it runs, and if
different cases digest differently.  A few grid cases — every kernel,
both fleet kinds, both checkpoint kinds and one raising case — are run
twice here through the tool's own ``case_digest``.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "outcome_digest.py"
_spec = importlib.util.spec_from_file_location("outcome_digest", _TOOL)
outcome_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outcome_digest)

CASES = [
    "cluster/1pool/nockpt/bf=0/spare=1",
    "cluster/3pool-reliability/interval/bf=1/spare=0",
    "service/1pool/dp/bf=1/hold=0.05/lat=0.1",
    "tenancy/1pool/interval/hold=1.0/lat=0.0/fair-admission",
    "tenancy/3pool-tenant_affinity/nockpt/hold=0.05/lat=0.1/weighted-elastic",
    "raise/cluster-max-events",
]
GRID = {name: case for name, *case in outcome_digest._grid()}
HEX64 = re.compile(r"[0-9a-f]{64}")


@pytest.fixture(scope="module")
def digests():
    """``name -> [(sha, note), (sha, note)]``: each case run twice."""
    return {
        name: [outcome_digest.case_digest(*GRID[name]) for _ in range(2)]
        for name in CASES
    }


class TestCaseDigest:
    def test_cases_are_in_the_grid(self):
        assert set(CASES) <= set(GRID)

    @pytest.mark.parametrize("name", CASES)
    def test_repeat_runs_digest_equal(self, digests, name):
        (sha, note), again = digests[name]
        assert HEX64.fullmatch(sha)
        assert (sha, note) == again

    def test_cases_digest_differently(self, digests):
        shas = [runs[0][0] for runs in digests.values()]
        assert len(set(shas)) == len(shas)

    def test_only_the_raising_case_has_a_note(self, digests):
        for name, [(_, note), _] in digests.items():
            if name.startswith("raise/"):
                assert note.startswith("raises RuntimeError: ")
                assert "replications unfinished after 50 events" in note
            else:
                assert note == ""
