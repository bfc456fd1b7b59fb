#!/usr/bin/env python3
"""Self-test of tools/check_bench_json.py's wall-clock rate check.

    check_bench_json_test.py TOOL FIXTURE

FIXTURE holds one benchmark whose jobs_per_sec was divided by main-thread CPU
time (cpu_time far below real_time, no /real_time in the name): the lint must
exit 1 naming it.  The same entry renamed with the /real_time suffix must
lint clean, so the failure is the rate check and nothing else.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def lint(tool: str, path: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, tool, str(path)], capture_output=True, text=True)


def main() -> int:
    tool, fixture = sys.argv[1], Path(sys.argv[2])
    defect = lint(tool, fixture)
    print(defect.stdout, end="")
    if defect.returncode != 1 or "UseRealTime" not in defect.stdout:
        print(f"expected exit 1 with a UseRealTime finding, got exit {defect.returncode}")
        return 1
    doc = json.loads(fixture.read_text())
    for entry in doc["benchmarks"]:
        entry["name"] += "/real_time"
    with tempfile.TemporaryDirectory() as tmp:
        fixed = Path(tmp) / fixture.name
        fixed.write_text(json.dumps(doc))
        clean = lint(tool, fixed)
    print(clean.stdout, end="")
    if clean.returncode != 0:
        print(f"expected the /real_time twin to lint clean, got exit {clean.returncode}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
