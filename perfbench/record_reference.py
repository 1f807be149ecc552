"""Record the discrete outputs of every pool input into reference.json.

Usage, from the repository root:  python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted, and only when the pool in
workloads.py changes: the benchmark fails any op whose choice-sequence digest,
final counts, classification, trapped or best set, or oracle counts differ from
what this script recorded. Each recorded output must also pass the independent
checks, so a wrong output cannot become the reference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from infotrap import ConvergenceError, scenarios  # noqa: E402


def record(workload: workloads.Workload, work: Path) -> dict:
    entries = {}
    for item in workload.items():
        scenario = scenarios.parse_scenario(item.doc)
        try:
            result = workloads.run_op(item, scenario, work)
        except ConvergenceError:
            entries[item.name] = {"error": "ConvergenceError"}
            continue
        out = workloads.summarize(item, result, work)
        entries[item.name] = {k: out[k] for k in workloads.DISCRETE if k in out}
        problems = Checker(entries).check(item, out)
        if problems:
            raise SystemExit(f"{workload.name}/{item.name}: " + "; ".join(problems))
    return entries


def main() -> None:
    doc = {"pool_seed": workloads.POOL_SEED, "workloads": {}}
    state = HERE.parent / ".perfbench"
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state, prefix="record-") as tmp:
        for name in workloads.BUILDERS:
            doc["workloads"][name] = record(workloads.BUILDERS[name](), Path(tmp))
            failing = [k for k, v in doc["workloads"][name].items() if "error" in v]
            print(f"{name}: {len(doc['workloads'][name])} inputs, {len(failing)} raise", flush=True)
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
