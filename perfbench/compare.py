"""Compare two perfbench result files metric by metric.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Refuses, with exit code 2, when the two stamps differ in anything but the
revision and source digest: results taken with another backend, thread
count, CPU count, Python, NumPy or SciPy version, workload or seed are not
comparable.
"""

from __future__ import annotations

import json
import sys

# Stamp fields that name the code under test; comparing them is the point.
_CODE_KEYS = {"revision", "source_sha256"}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (json.loads(open(path).read()) for path in argv)
    keys = (set(before["stamp"]) | set(after["stamp"])) - _CODE_KEYS
    differ = sorted(k for k in keys
                    if before["stamp"].get(k) != after["stamp"].get(k))
    if differ:
        for key in differ:
            print(f"stamp differs: {key}: {before['stamp'].get(key)!r} vs "
                  f"{after['stamp'].get(key)!r}", file=sys.stderr)
        print("refusing to compare results with different stamps",
              file=sys.stderr)
        return 2
    print(f"revision {before['stamp']['revision']} -> "
          f"{after['stamp']['revision']}")
    for name in sorted(set(before["metrics"]) | set(after["metrics"])):
        a = before["metrics"].get(name)
        b = after["metrics"].get(name)
        if a is None or b is None:
            print(f"{name:40s} only in {'after' if a is None else 'before'}")
            continue
        change = (f"{(b['value'] - a['value']) / a['value']:+.1%}"
                  if a["value"] else "")
        print(f"{name:40s} {a['value']:12.6g} {b['value']:12.6g} "
              f"{a['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
