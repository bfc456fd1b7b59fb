#!/usr/bin/env python3
"""Lint the committed BENCH_*.json perf baselines at the repo root.

Extends PR 2's anti-debug-baseline guarantee from the recording path
(bench/run_benchmarks.sh refuses to write a debug-stamped file) to the
committed artifacts themselves: CI runs this on every push, so a hand-edited
or stale-toolchain baseline cannot land either.

Checks, per file:
  * parses as JSON with the Google-Benchmark layout: a `context` object and a
    non-empty `benchmarks` array;
  * `context.quml_build_type` == "release" (the stamp bench_common.hpp embeds
    from the quml library's own NDEBUG state) and
    `context.library_build_type` != "debug";
  * schema consistency: every benchmark entry carries the required keys
    (name, iterations, real_time, cpu_time, time_unit), units are valid
    Google-Benchmark units, and one benchmark family (the name up to the
    first '/') never mixes units between its data points;
  * wall-clock rates: a `*_per_sec` counter (a Google-Benchmark kIsRate
    counter) is divided by the entry's time base, which is main-thread CPU
    time unless the benchmark uses UseRealTime().  When the work runs on
    other threads that CPU time is mostly waiting, and the rate is inflated
    by real_time/cpu_time.  An entry whose name lacks `/real_time` while its
    cpu_time is below half its real_time is flagged;
  * provenance: BENCH_<name>.json matches a bench/bench_<name>.cpp source,
    and every bench source has a committed baseline;
  * documentation: the file is referenced from README.md (the benchmark
    inventory table), so a baseline cannot exist undocumented.

Usage: check_bench_json.py [FILE...]
  With no FILE, lints every BENCH_*.json at the repo root with all checks.
  With FILEs, lints just those files, without the provenance and README
  cross-checks.

Exit status: 0 clean, 1 with findings (one line each), 2 usage/environment.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REQUIRED_CONTEXT_KEYS = ("date", "host_name", "library_build_type", "quml_build_type")
REQUIRED_BENCHMARK_KEYS = ("name", "iterations", "real_time", "cpu_time", "time_unit")
VALID_TIME_UNITS = ("ns", "us", "ms", "s")


def lint_file(path: Path, readme_text: str | None) -> list[str]:
    problems: list[str] = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable or invalid JSON ({exc})"]

    context = doc.get("context")
    if not isinstance(context, dict):
        return [f"{path.name}: missing Google-Benchmark 'context' object"]
    for key in REQUIRED_CONTEXT_KEYS:
        if key not in context:
            problems.append(f"{path.name}: context lacks '{key}'")

    build_type = context.get("quml_build_type")
    if build_type != "release":
        problems.append(
            f"{path.name}: quml_build_type is {build_type!r}, committed baselines "
            "must be recorded from a Release quml build (bench/run_benchmarks.sh)"
        )
    if context.get("library_build_type") == "debug":
        problems.append(
            f"{path.name}: library_build_type is 'debug' — libbenchmark itself was "
            "a debug build; re-record with a release toolchain"
        )

    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        problems.append(f"{path.name}: 'benchmarks' is missing or empty")
        benchmarks = []
    family_units: dict[str, set[str]] = {}
    for i, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            problems.append(f"{path.name}: benchmarks[{i}] is not an object")
            continue
        for key in REQUIRED_BENCHMARK_KEYS:
            if key not in entry:
                problems.append(
                    f"{path.name}: benchmarks[{i}] ({entry.get('name', '?')}) lacks '{key}'"
                )
        unit = entry.get("time_unit")
        if unit is not None:
            if unit not in VALID_TIME_UNITS:
                problems.append(
                    f"{path.name}: benchmarks[{i}] has unknown time_unit {unit!r}"
                )
            family = str(entry.get("name", "")).split("/", 1)[0]
            family_units.setdefault(family, set()).add(unit)
        problems.extend(lint_rate(path.name, i, entry))
    for family, units in sorted(family_units.items()):
        if len(units) > 1:
            problems.append(
                f"{path.name}: family '{family}' mixes time units {sorted(units)}"
            )

    if readme_text is not None and path.name not in readme_text:
        problems.append(
            f"{path.name}: not referenced from README.md (add it to the benchmark "
            "inventory table)"
        )
    return problems


def lint_rate(file_name: str, index: int, entry: dict) -> list[str]:
    """Flags a rate counter timed by main-thread CPU while the work ran elsewhere."""
    name = str(entry.get("name", ""))
    rates = sorted(key for key in entry if key.endswith("_per_sec"))
    real, cpu = entry.get("real_time"), entry.get("cpu_time")
    # stddev/cv aggregates compare spreads, not times.
    if not rates or "/real_time" in name or entry.get("aggregate_name") in ("stddev", "cv"):
        return []
    if not isinstance(real, (int, float)) or not isinstance(cpu, (int, float)):
        return []
    if cpu >= 0.5 * real:
        return []
    return [
        f"{file_name}: benchmarks[{index}] ({name}) reports {', '.join(rates)} over "
        f"cpu_time {cpu:g} but real_time is {real:g}: the rate is inflated "
        f"{real / cpu:.1f}x; time it with ->UseRealTime()"
    ]


def main() -> int:
    if len(sys.argv) > 1:
        problems = [p for arg in sys.argv[1:] for p in lint_file(Path(arg), None)]
        for line in problems:
            print(f"FAIL {line}")
        if problems:
            return 1
        print(f"OK {len(sys.argv) - 1} file(s)")
        return 0

    root = Path(__file__).resolve().parent.parent
    readme = root / "README.md"
    if not readme.is_file():
        print("error: README.md not found next to tools/", file=sys.stderr)
        return 2
    readme_text = readme.read_text()

    bench_jsons = sorted(root.glob("BENCH_*.json"))
    bench_sources = sorted((root / "bench").glob("bench_*.cpp"))
    problems: list[str] = []

    if not bench_jsons:
        problems.append("no BENCH_*.json baselines found at the repo root")

    recorded = {p.stem.removeprefix("BENCH_") for p in bench_jsons}
    implemented = {p.stem.removeprefix("bench_") for p in bench_sources}
    for name in sorted(recorded - implemented):
        problems.append(
            f"BENCH_{name}.json: no matching bench/bench_{name}.cpp — stale baseline?"
        )
    for name in sorted(implemented - recorded):
        problems.append(
            f"bench/bench_{name}.cpp: no committed BENCH_{name}.json baseline — "
            "record one with bench/run_benchmarks.sh"
        )

    for path in bench_jsons:
        problems.extend(lint_file(path, readme_text))

    if problems:
        for line in problems:
            print(f"FAIL {line}")
        print(f"\n{len(problems)} problem(s) across {len(bench_jsons)} baseline file(s)")
        return 1
    print(f"OK {len(bench_jsons)} BENCH_*.json baselines: release-stamped, "
          "schema-consistent, matched to bench sources, referenced from README")
    return 0


if __name__ == "__main__":
    sys.exit(main())
