"""Smoke check of the benchmark itself, at tiny input sizes.

    python3 benchmarks/smoke.py

Runs every workload untraced and traced for five seconds each and checks
that no operation failed, that every metric BENCHMARK.json names is
printed with its unit, that end-to-end values are positive, and that each
per-layer metric is non-zero on the workloads whose code path it measures.
It also checks that the benchmark refuses to run without the bibdex
sources. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import COMPARE_KEYS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_EVERY_WORKLOAD = (
    "cli.main.s",
    "cli.interp_start_ms",
    "cli.import_ms",
    "profiles.parse_profile_json.s",
    "profiles.parse_profile_json.bytes",
    "profiles.parse_profile_json.calls",
    "trace.spans",
)
# per-layer metrics that must be non-zero in a traced run of each workload;
# a run measures whole rotations of the CLI cases, so each case runs
APPLIES = {
    "big_author": _EVERY_WORKLOAD
    + (
        "profiles.parse_citation_csv.s",
        "profiles.parse_citation_csv.bytes",
        "metrics.CitationVector.s",
        "metrics.h_index.s",
        "metrics.h_index.papers",
        "metrics.full_report.s",
        "metrics.full_report.calls",
        "report.compare.none.s",
        "report.compare.none.rows",
        "report.render_markdown.s",
        "cli.main.md.s",
        "cli.main.json.s",
    ),
    "many_authors": _EVERY_WORKLOAD
    + tuple(
        f"report.compare.{key}.{m}"
        for key in COMPARE_KEYS
        for m in ("s", "rows")
    )
    + (
        "metrics.full_report.s",
        "metrics.full_report.calls",
        "report.render_markdown.s",
        "report.render_csv.s",
        "profiles.ProfileStore.load.s",
        "profiles.ProfileStore.load.calls",
        "cli.main.md.s",
        "cli.main.csv.s",
        "cli.main.json.s",
    ),
    "store_churn": _EVERY_WORKLOAD
    + (
        "metrics.CitationVector.s",
        "profiles.serialize_profile.s",
        "profiles.serialize_profile.bytes",
        "profiles.ProfileStore.save.s",
        "profiles.ProfileStore.save.calls",
        "profiles.ProfileStore.load.s",
        "profiles.ProfileStore.load.calls",
        "profiles.ProfileStore.load.errors",
        "profiles.ProfileStore.names.s",
    ),
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: error_rate {result['failed']}/{result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    differ = set(got) ^ {m["name"] for m in wanted}
    if differ:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(differ)}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {entry['unit']} != {m['unit']}")
        must_be_positive = not trace or m["name"] in APPLIES[workload]
        if must_be_positive and not entry["value"] > 0:
            problems.append(f"{where}: {m['name']} = {entry['value']}")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    """Run from a directory holding only BENCHMARK.json and the benchmark."""
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "store_churn", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_sources(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
