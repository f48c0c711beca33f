"""The parity referee: every rounded entry of golden.json, recomputed."""

import json

import referee


def test_rounded_outcomes_match_the_golden_file():
    golden = json.loads(referee.GOLDEN.read_text(encoding="utf-8"))
    assert referee.without_digests(referee.compute()) \
        == referee.without_digests(golden)
