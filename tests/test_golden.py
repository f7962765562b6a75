"""Stage values against the pinned ones of golden.json (see golden.py)."""

import json

from golden import ATOL, PATH, RTOL, compute


def test_stage_values_match_golden():
    pinned = json.loads(PATH.read_text())
    values = compute()
    assert values.keys() == pinned.keys()
    moved = {name: (pinned[name], value) for name, value in values.items()
             if not abs(value - pinned[name]) <= max(RTOL * abs(pinned[name]),
                                                    ATOL)}
    assert not moved, f"(pinned, now) of moved values: {moved}"
