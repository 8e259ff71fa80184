"""The model's numbers against ``golden_values.json``, written by
``tools/golden.py`` at an earlier commit: the 32 variants' losses and
gradient summaries and the read paths' errors and validation losses must
agree to a relative 1e-10. A change that only reorders a sum passes; a
changed initialization, op or constant does not."""

import importlib.util
import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_values.json")
RTOL = 1e-10


def _golden_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numbers_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = _golden_tool().values()
    assert list(got) == list(want)
    moved = [
        label
        for label, numbers in want.items()
        if len(got[label]) != len(numbers)
        or not np.allclose(got[label], numbers, rtol=RTOL, atol=0.0)
    ]
    assert not moved, f"{len(moved)} of {len(want)} entries moved, first {moved[:5]}"
