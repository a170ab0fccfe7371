"""Compare result records of two versions of the code.

    python3 perfbench/run.py --workload all --seed 1 --out before.jsonl
    ... (change the code) ...
    python3 perfbench/run.py --workload all --seed 1 --out after.jsonl
    python3 perfbench/compare.py before.jsonl after.jsonl

Records are paired by (workload, trace mode, seed).  A pair whose run
fingerprints differ in anything but the code's identity (commit and
source digest) — machine size, Python or numpy version, C compiler,
protocol cores that ran — is refused: the exit code is 2 and nothing is
compared.  Otherwise every metric's median over the paired seeds is
printed for both sides.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def load(path: Path) -> dict[tuple, dict]:
    records = {}
    for line in path.read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            key = (r["workload"], r["trace"], r["fingerprint"]["seed"])
            records[key] = r
    return records


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="compare benchmark records")
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    args = ap.parse_args(argv)
    before, after = load(args.before), load(args.after)
    keys = sorted(set(before) & set(after))
    if not keys:
        print("compare: no (workload, trace, seed) in both files",
              file=sys.stderr)
        return 2
    for key in keys:
        differ = common.comparable(before[key]["fingerprint"],
                                   after[key]["fingerprint"])
        if differ:
            print(f"compare: refusing {key}: fingerprints differ in "
                  f"{', '.join(differ)}", file=sys.stderr)
            return 2
    groups: dict[tuple, list[tuple]] = {}
    for key in keys:
        groups.setdefault(key[:2], []).append(key)
    for (workload, trace), members in sorted(groups.items()):
        metrics = before[members[0]]["metrics"]
        for name, m in metrics.items():
            a = common.median([before[k]["metrics"][name]["value"]
                               for k in members])
            b = common.median([after[k]["metrics"][name]["value"]
                               for k in members
                               if name in after[k]["metrics"]])
            change = f"{(b - a) / a:+.1%}" if a else "n/a"
            print(f"{workload:<11} {name:<28} {a:>14.6g} -> {b:<14.6g} "
                  f"{m['unit']:<6} {change}  ({len(members)} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
