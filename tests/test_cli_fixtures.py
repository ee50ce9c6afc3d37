"""Golden CLI reports: every committed fixture must be reproduced byte for byte.

``tests/fixtures/cli/cases.json`` lists each case's argv and exit code; the
expected stdout is ``<name>.out`` next to it.  The fixtures were captured from
the implementation that built all three output formats per command, before
the reports were rendered from one record, and are never regenerated: they pin
the json, csv and pretty bytes (float reprs, composite-index labels such as
``"1,10"``, csv line endings) across refactors.  Argv entries ending in
``.json`` name polynomial files in the fixture directory.
"""

import io
import json
from pathlib import Path

import pytest

from bellkron.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "cli"
CASES = json.loads((FIXTURES / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_report_matches_golden_bytes(case):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in case["argv"]]
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == case["code"]
    assert out.getvalue().encode() == (FIXTURES / f"{case['name']}.out").read_bytes()
