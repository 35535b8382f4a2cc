"""Every CLI report in ``tests/golden`` is reproduced byte for byte, with the
same exit code and stderr (``tests/golden/make_golden.py`` writes them)."""

import json
from pathlib import Path

import pytest

from current1d.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, capsys, monkeypatch):
    monkeypatch.delenv("CURRENT1D_LOG", raising=False)
    case = CASES[name]
    code = main([str(GOLDEN / a) if a.endswith(".json") else a for a in case["argv"]])
    out, err = capsys.readouterr()
    assert code == case["code"]
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert err == case["stderr"]
