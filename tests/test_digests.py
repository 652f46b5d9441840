"""The pinned digests in tests/data/digests.json, recomputed (see make_digests.py)."""
import json

import pytest

import make_digests


def test_outputs_match_pinned_digests(tmp_path):
    with open(make_digests.DIGESTS, encoding="ascii") as fh:
        recorded = json.load(fh)
    here = make_digests.environment()
    if any(recorded[key] != value for key, value in here.items()):
        pytest.fail(
            f"digests were recorded with numpy {recorded['numpy']} on {recorded['machine']};"
            f" this is numpy {here['numpy']} on {here['machine']}: check the bits by hand and"
            " regenerate them with `PYTHONPATH=src python tests/make_digests.py`"
        )
    record = {**here, "digests": make_digests.compute(str(tmp_path))}
    assert make_digests.mismatches(recorded, record) == []
