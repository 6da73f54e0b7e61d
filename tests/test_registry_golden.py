"""Bit-exact lock on every registry sample: values and term counts.

``tests/data/registry_golden.json`` holds, per sample in registry order, the
case id, ``repr`` of both sides and ``terms_used`` of a warm registry pass
(every cached elliptic context already built, so the counts do not depend
on which tests ran first).  A change that moves values or counts on purpose
regenerates the file with ``PYTHONPATH=src python tests/test_registry_golden.py``
and says so in CHANGES.md; ``... test_registry_golden.py --diff`` first prints
how far each sample would move, without writing the file.
"""

import json
import sys
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


def _move(new: str, old: str) -> float:
    """Relative move of a ``repr``-ed complex value (absolute where old is 0)."""
    a, b = complex(new), complex(old)
    return abs(a - b) / abs(b) if b else abs(a)


def print_diff() -> None:
    """Print each sample's lhs/rhs move and terms_used change, then a summary."""
    expected = json.loads(GOLDEN.read_text())
    got = snapshot()
    print(f"{'case':16} {'lhs move':>10} {'rhs move':>10} {'terms':>13}")
    largest = (0.0, "none")
    moved = 0
    for (case, lhs, rhs, terms), (_, old_lhs, old_rhs, old_terms) in zip(got, expected):
        lhs_move, rhs_move = _move(lhs, old_lhs), _move(rhs, old_rhs)
        print(f"{case:16} {lhs_move:10.2e} {rhs_move:10.2e} {old_terms:6d} -> {terms:<6d}")
        if lhs_move or rhs_move:
            moved += 1
            largest = max(largest, (max(lhs_move, rhs_move), case))
    print(f"samples {len(got)} (golden {len(expected)}); values moved in {moved}; "
          f"largest move {largest[0]:.2e} ({largest[1]}); "
          f"terms_used {sum(row[3] for row in expected)} -> {sum(row[3] for row in got)}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print_diff()
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            "[\n" + ",\n".join(json.dumps(row) for row in snapshot()) + "\n]\n"
        )
