"""Committed numbers of the tier-1 workload configs.

Each record in ``tests/golden/`` holds what one config's run wrote: every
value of its ``summary.json`` except ``wall_clock_s``, and every row of
every CSV.  The test reruns the config and compares numbers at 1e-12
relative, strings, booleans and the layout exactly.

A change that is meant to move these numbers rewrites the records with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md what moved and why.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from fpplab.scenarios import run_scenario

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

# (workload, config) under perfbench/workloads; the record is
# tests/golden/<workload>-<config>.json
CONFIGS = [
    ("oracle-fits", "lemma-gain"),
    ("oracle-fits", "lemma-loss"),
    ("oracle-fits", "linear-decay"),
    ("oracle-fits", "regularity-loss"),
    ("smoke", "linear-decay"),
    ("smoke", "smalldata"),
    ("convergence-3d", "convergence"),
]


def run_record(workload: str, config: str, out: Path) -> dict:
    """Run one workload config into `out` and return its record."""
    doc = json.loads((REPO / "perfbench" / "workloads" / workload / f"{config}.json").read_text())
    run_scenario(doc, output_dir=out, quiet=True)
    summary = json.loads((out / "summary.json").read_text())
    del summary["wall_clock_s"]
    csv = {}
    for path in sorted(out.glob("*.csv")):
        header, *rows = path.read_text().splitlines()
        csv[path.name] = {"header": header,
                          "rows": [[float(x) for x in row.split(",")] for row in rows]}
    return {"summary": summary, "csv": csv}


def differences(want, got, where="") -> list:
    """Where `got` departs from `want`: a number by more than RTOL relative,
    anything else at all."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: length {len(want)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, f"{where}[{i}]")]
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (want, got))
    if numbers:
        if (math.isnan(want) and math.isnan(got)) or math.isclose(want, got, rel_tol=RTOL):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {want!r} != {got!r}"]


@pytest.mark.parametrize("workload,config", CONFIGS, ids=[f"{w}-{c}" for w, c in CONFIGS])
def test_run_matches_its_record(workload, config, tmp_path):
    want = json.loads((GOLDEN / f"{workload}-{config}.json").read_text())
    found = differences(want, run_record(workload, config, tmp_path))
    assert not found, f"{len(found)} values moved, the first: " + "; ".join(found[:5])


def test_every_record_has_a_config():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{w}-{c}.json" for w, c in CONFIGS)


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for workload, config in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            record = run_record(workload, config, Path(tmp))
        path = GOLDEN / f"{workload}-{config}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
