"""Check the benchmark's outputs against the digests pinned in
``bench_digests.json``: the ``output_sha256`` and ``known_defects`` of each
workload, per generator seed.

    python3 perfbench/run.py --workload all --seed 1 --seconds 2 > perfbench.out
    python3 tests/check_bench_digests.py perfbench.out

Every workload pinned for the seed must show both passes (``--trace 0`` and
``1``) in the ``record`` lines, each with the pinned values; otherwise this
names each mismatch and exits 1.  A change that moves a pinned value updates
the file and says why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "bench_digests.json"


def mismatches(output: str, pinned: dict) -> list[str]:
    records = [json.loads(line[len("record "):]) for line in output.splitlines()
               if line.startswith("record ")]
    if not records:
        return ["no record lines"]
    problems, seen = [], set()
    for record in records:
        seed, workload = str(record["seed"]), record["workload"]
        want = pinned.get(seed, {}).get(workload)
        if want is None:
            problems.append(f"seed {seed} {workload}: nothing pinned")
            continue
        seen.add((seed, workload, record["trace"]))
        got = {key: record[key] for key in want}
        if got != want:
            problems.append(f"seed {seed} {workload} trace {record['trace']}: {got}, pinned {want}")
    for seed in sorted({seed for seed, _, _ in seen}):
        problems += [f"seed {seed} {workload} trace {trace}: no record"
                     for workload in sorted(pinned[seed]) for trace in (0, 1)
                     if (seed, workload, trace) not in seen]
    return problems


def main(argv: list[str]) -> int:
    problems = mismatches(Path(argv[0]).read_text(encoding="utf-8"),
                          json.loads(PINNED.read_text(encoding="utf-8")))
    for problem in problems:
        print(f"check_bench_digests: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
