"""Committed numbers of the tier-1 workload configs.

Each record in ``tests/golden/`` holds what one config's run wrote: every
value of its ``summary.json`` and every row of every CSV.  The test reruns
the config and compares numbers at 1e-12 relative, strings, booleans and
the layout exactly.

A change that is meant to move these numbers rewrites the records with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md what moved and why.  Records of the configs in
SLOW_CONFIGS take too long for the tier-1 suite; CI compares them with

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.check_slow()"
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
# about 2.5 s each: compared by check_slow(), not by the tier-1 test
SLOW_CONFIGS = [
    ("smalldata-1d", "smalldata"),
]


def run_record(workload: str, config: str, out: Path) -> dict:
    """Run one workload config into `out` and return its record."""
    doc = json.loads((REPO / "perfbench" / "workloads" / workload / f"{config}.json").read_text())
    run_scenario(doc, output_dir=out, quiet=True)
    summary = json.loads((out / "summary.json").read_text())
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


def moved(workload: str, config: str, out: Path) -> str:
    """What a fresh run of the config, into `out`, moved from its record,
    or "" when nothing did."""
    want = json.loads((GOLDEN / f"{workload}-{config}.json").read_text())
    found = differences(want, run_record(workload, config, out))
    return f"{len(found)} values moved, the first: " + "; ".join(found[:5]) if found else ""


@pytest.mark.parametrize("workload,config", CONFIGS, ids=[f"{w}-{c}" for w, c in CONFIGS])
def test_run_matches_its_record(workload, config, tmp_path):
    found = moved(workload, config, tmp_path)
    assert not found, found


def test_every_record_has_a_config():
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(
        f"{w}-{c}.json" for w, c in CONFIGS + SLOW_CONFIGS)


def test_every_recorded_verdict_follows_the_rule():
    # pass iff lo <= value <= hi for the bounds given, a NaN value failing:
    # the rule of RunSummary.check, applied to each record's own numbers
    for path in sorted(GOLDEN.glob("*.json")):
        summary = json.loads(path.read_text())["summary"]
        for v in summary["verdicts"]:
            lo, hi, value = v["lo"], v["hi"], v["value"]
            assert lo is not None or hi is not None, (path.name, v["name"])
            rule = not math.isnan(value) and (lo is None or lo <= value) and (
                hi is None or value <= hi)
            assert v["pass"] is rule, (path.name, v["name"])
        assert summary["all_pass"] is all(v["pass"] for v in summary["verdicts"]), path.name


def check_slow():
    """Compare every SLOW_CONFIGS run with its record; exit 1 if any moved."""
    failed = False
    for workload, config in SLOW_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            found = moved(workload, config, Path(tmp))
        print(f"{workload}-{config}: {found or 'matches its record'}")
        failed = failed or bool(found)
    if failed:
        sys.exit(1)


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for workload, config in CONFIGS + SLOW_CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            record = run_record(workload, config, Path(tmp))
        path = GOLDEN / f"{workload}-{config}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
