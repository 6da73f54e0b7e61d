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
    assert len(got) == len(expected) == 347
    mismatches = [(g, e) for g, e in zip(got, expected) if g != e]
    assert not mismatches, mismatches[:5]


def _move(new: str, old: str) -> float:
    """Relative move of a ``repr``-ed complex value (absolute where old is 0)."""
    a, b = complex(new), complex(old)
    return abs(a - b) / abs(b) if b else abs(a)


def _keyed(rows: list[list]) -> dict[tuple[str, int], list]:
    """Rows by (case id, index of the sample within its case)."""
    seen: dict[str, int] = {}
    keyed = {}
    for row in rows:
        i = seen[row[0]] = seen.get(row[0], -1) + 1
        keyed[row[0], i] = row
    return keyed


def print_diff() -> None:
    """Print each sample's lhs/rhs move and terms_used change, paired by
    (case id, sample index), then the added and removed samples and a summary."""
    expected = _keyed(json.loads(GOLDEN.read_text()))
    got = _keyed(snapshot())
    print(f"{'case':16} {'sample':>6} {'lhs move':>10} {'rhs move':>10} {'terms':>13}")
    largest = (0.0, "none")
    moved = 0
    for key, (_, lhs, rhs, terms) in got.items():
        if key not in expected:
            continue
        _, old_lhs, old_rhs, old_terms = expected[key]
        lhs_move, rhs_move = _move(lhs, old_lhs), _move(rhs, old_rhs)
        print(f"{key[0]:16} {key[1]:6d} {lhs_move:10.2e} {rhs_move:10.2e} "
              f"{old_terms:6d} -> {terms:<6d}")
        if lhs_move or rhs_move:
            moved += 1
            largest = max(largest, (max(lhs_move, rhs_move), key[0]))
    added = [key for key in got if key not in expected]
    removed = [key for key in expected if key not in got]
    for label, keys, rows in (("added", added, got), ("removed", removed, expected)):
        for key in keys:
            print(f"{label} {key[0]} sample {key[1]}: {rows[key]}")
    print(f"samples {len(got)} (golden {len(expected)}); added {len(added)}, removed {len(removed)}; "
          f"values moved in {moved}; largest move {largest[0]:.2e} ({largest[1]}); "
          f"terms_used {sum(row[3] for row in expected.values())} -> "
          f"{sum(row[3] for row in got.values())}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print_diff()
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            "[\n" + ",\n".join(json.dumps(row) for row in snapshot()) + "\n]\n"
        )
