"""Schema and smoke check of the benchmark itself.

Usage, from the repository root:  python3 perfbench/selfcheck.py

1. BENCHMARK.json has exactly the documented keys, within their limits.
2. Each listed workload runs for one second, untraced and traced, prints a
   result line whose metrics are exactly the listed ones with their units, is
   correct, and fails no op.
3. In a directory holding only BENCHMARK.json and the benchmark's paths, the
   command exits non-zero without printing a result.

Exits non-zero and names every problem when a check fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
METRIC_KEYS = {"name", "unit", "better"}


def schema_problems(doc: dict) -> list[str]:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != expected:
        return [f"keys {sorted(doc)} != {sorted(expected)}"]
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in cmd)):
        problems.append("command: 1 to 32 strings of at most 200 characters")
    elif any(a.startswith("/") or ".." in a.split("/") for a in cmd):
        problems.append("command: no absolute path and no '..'")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths: 1 to 16 directories")
    for p in paths:
        if not (isinstance(p, str) and PATH.fullmatch(p) and ".." not in p.split("/")
                and (ROOT / p).is_dir()):
            problems.append(f"paths: {p!r} is not a relative directory of the repository")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    names: list[str] = []
    if not 2 <= len(doc["workloads"]) <= 8:
        problems.append("workloads: 2 to 8")
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append(f"workload {w.get('name')!r}: exactly a name and a one-line why")
        names.append(w["name"])
    for section, keys, lo, hi in (
        ("end_to_end", METRIC_KEYS | {"bound"}, 1, 16),
        ("per_layer", METRIC_KEYS, 1, 128),
    ):
        if not lo <= len(doc[section]) <= hi:
            problems.append(f"{section}: {lo} to {hi} metrics")
        for m in doc[section]:
            if set(m) != keys:
                problems.append(f"{section} {m.get('name')!r}: keys {sorted(keys)}")
                continue
            if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
                problems.append(f"{section} {m['name']!r}: bad unit or direction")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']!r}: bound must be in (0, 0.25]")
            names.append(m["name"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end: needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    for n in names:
        if not NAME.fullmatch(n) or names.count(n) > 1:
            problems.append(f"name {n!r}: bad characters or used twice")
    if len(json.dumps(doc)) > 64 * 1024:
        problems.append("BENCHMARK.json is over 64 KiB")
    return problems


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def smoke_problems(doc: dict) -> list[str]:
    problems = []
    for w in doc["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = run(doc["command"] + args, ROOT)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                problems.append(f"{where}: attempted must be a whole number >= 1")
            want = {m["name"]: m["unit"] for m in doc[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units {got} != {want}")
            for k, v in result["metrics"].items():
                value = v["value"]
                if not (isinstance(value, (int, float)) and math.isfinite(value)):
                    problems.append(f"{where}: {k} is not a finite number")
                elif trace == 0 and value <= 0:
                    problems.append(f"{where}: end-to-end metric {k} is {value}")
    return problems


def bare_problems(doc: dict) -> list[str]:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench", prefix="bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in doc["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        w = doc["workloads"][0]["name"]
        proc = run(doc["command"] + ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["in a directory without the program, the benchmark did not fail cleanly"]
    return []


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = schema_problems(doc)
    if not problems:
        problems = smoke_problems(doc) + bare_problems(doc)
    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
