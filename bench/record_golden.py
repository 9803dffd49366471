"""Record bench/golden.json: the SHA-256 of every report any seed can request.

Usage, from the root of a checkout:  python3 bench/record_golden.py [WORKLOAD...]

Runs every op of the named workloads (default: all) once through the CLI and
stores the digest of its structured report.  An op whose report fails the
benchmark's checks is not recorded; the script then exits 1 and names it.
Reports must stay byte-identical across commits, so re-record only when a
workload's inputs change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter

from gen import WORK_DIR, WORKLOADS, all_ops
from run import GOLDEN, ROOT, check_report, cli_argv, spawn


def main(workloads: list[str]) -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    bad = []
    for workload in workloads or WORKLOADS:
        for op in all_ops(workload):
            op.write(ROOT)
            p = spawn(cli_argv(op), perf_counter() + 600)
            why = f"exit code {p.exit}" if p.exit != 0 \
                else check_report(op, json.loads(p.stdout))
            print(f"{op.key}: {p.wall:.2f} s {why or 'ok'}", file=sys.stderr)
            if why is None:
                golden[op.key] = hashlib.sha256(p.stdout).hexdigest()
            else:
                bad.append(f"{op.key}: {why}")
    GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n")
    for line in bad:
        print(f"NOT RECORDED {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
