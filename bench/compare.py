#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py``.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Prints each metric of both runs and the relative change.  Runs of
different workloads, trace modes or search backends are not comparable:
the command refuses them with exit status 2.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    """The header and summary records of a results file."""
    run: dict = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if "workload" in record or record.get("summary"):
                run.update(record)
    return run


def comparable(base: dict, new: dict) -> str | None:
    """Why the two runs cannot be compared, or ``None`` when they can."""
    for what, a, b in (
        ("workload", base["workload"], new["workload"]),
        ("trace mode", base["trace"], new["trace"]),
        ("backend", base["env"]["backend"], new["env"]["backend"]),
    ):
        if a != b:
            return f"{what} differs: {a} vs {b}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (load(path) for path in argv)
    reason = comparable(base, new)
    if reason is not None:
        print(f"compare: refused, {reason}", file=sys.stderr)
        return 2
    print(f"{base['workload']} (backend {base['env']['backend']}): "
          f"commit {base['env']['commit']} vs {new['env']['commit']}")
    for name, a in base["metrics"].items():
        b = new["metrics"].get(name)
        change = f"{(b - a) / a:+.1%}" if b is not None and a else "n/a"
        print(f"  {name:<26} {a:>12.4f} {b if b is not None else float('nan'):>12.4f}  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
