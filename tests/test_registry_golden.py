"""Bit-exact lock on every registry sample: values and term counts.

``tests/data/registry_golden.json`` holds, per sample in registry order, the
case id, ``repr`` of both sides and ``terms_used`` of a warm registry pass
(every cached elliptic context already built, so the counts do not depend
on which tests ran first).  A change that moves values or counts on purpose
regenerates the file with ``PYTHONPATH=src python tests/test_registry_golden.py``
and says so in CHANGES.md.
"""

import json
from pathlib import Path

from qelliptic.harness import run_registry
from qelliptic.registry import registry

GOLDEN = Path(__file__).parent / "data" / "registry_golden.json"


def snapshot() -> list[list]:
    run_registry(registry())  # fill the context caches
    report = run_registry(registry())
    return [
        [rec.case_id, repr(rec.lhs), repr(rec.rhs), rec.terms_used]
        for result in report.results
        for rec in result.records
    ]


def test_registry_values_and_terms_are_bit_identical_to_golden():
    expected = json.loads(GOLDEN.read_text())
    got = snapshot()
    assert len(got) == len(expected) == 342
    mismatches = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not mismatches, mismatches[:5]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in snapshot()) + "\n]\n"
    )
