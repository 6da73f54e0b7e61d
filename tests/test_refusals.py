"""Lock on which registry samples are refused, and by which exception type,
past the registry's shallow nomes.

``tests/data/refusals.json`` lists, for six sample overrides (r = 0.05, 0.01
and 0.002, q = 0.95, -0.9 and 0.9i), every error record of a registry pass
as ``[override, case id, sample index, exception type]``.  The type is the
failure's cause: a ``PoleError`` is a vanishing denominator and nothing
else, an ``OverflowError`` a value or an argument past what a double
resolves.  A change that moves a refusal on purpose regenerates the file
with ``PYTHONPATH=src python tests/test_refusals.py`` and says so in
CHANGES.md.
"""

import json
from pathlib import Path

from qelliptic.harness import run_registry
from qelliptic.registry import registry

REFUSALS = Path(__file__).parent / "data" / "refusals.json"

OVERRIDES = {
    "r=0.05": {"r": 0.05},
    "r=0.01": {"r": 0.01},
    "r=0.002": {"r": 0.002},
    "q=0.95": {"q": 0.95},
    "q=-0.9": {"q": -0.9},
    "q=0.9j": {"q": 0.9j},
}


def snapshot() -> list[list]:
    return [
        [label, rec.case_id, index, rec.error.partition(":")[0]]
        for label, override in OVERRIDES.items()
        for result in run_registry(registry(), sample_override=override).results
        for index, rec in enumerate(result.records)
        if rec.error
    ]


def test_refusals_match_the_table_exactly():
    expected = {tuple(row) for row in json.loads(REFUSALS.read_text())}
    got = {tuple(row) for row in snapshot()}
    # (new refusals, refusals that went away)
    assert (sorted(got - expected), sorted(expected - got)) == ([], [])
    # at r = 0.002 K ~ 8e-14 at the negated nome: u/K ~ 4e12 is refused as
    # unresolved, and K by the AGM from the context's own k' has no pole
    assert not [row for row in got if row[0] == "r=0.002" and row[3] == "PoleError"]


if __name__ == "__main__":
    REFUSALS.write_text("[\n" + ",\n".join(json.dumps(row) for row in snapshot()) + "\n]\n")
