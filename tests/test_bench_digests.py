"""The check of the benchmark's record lines against the pinned digests."""

import json

from check_bench_digests import PINNED, mismatches


def records(seed, pinned, **changed):
    lines = ["cs-prepare sent_per_s 1 sent/s"]
    for workload, want in sorted(pinned[str(seed)].items()):
        for trace in (0, 1):
            record = {"workload": workload, "seed": seed, "trace": trace, "batches": 3, **want}
            record.update(changed.get(f"{workload}:{trace}", {}))
            lines.append("record " + json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_every_workload_is_pinned_at_seeds_1_and_7():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted(pinned) == ["1", "7"]
    assert all(sorted(p) == ["cs-postprocess", "cs-prepare", "de-split-roundtrip"]
               for p in pinned.values())


def test_pinned_records_pass():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert mismatches(records(1, pinned) + records(7, pinned), pinned) == []


def test_each_mismatch_is_named():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    output = records(1, pinned, **{"cs-prepare:1": {"output_sha256": "0" * 64},
                                   "de-split-roundtrip:0": {"known_defects": {"x": 1}}})
    problems = mismatches(output, pinned)
    assert len(problems) == 2
    assert problems[0].startswith("seed 1 cs-prepare trace 1: ")
    assert problems[1].startswith("seed 1 de-split-roundtrip trace 0: ")


def test_missing_pass_and_unpinned_seed_fail():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    output = "\n".join(line for line in records(7, pinned).splitlines()
                       if '"trace": 1' not in line or "cs-postprocess" not in line)
    assert mismatches(output, pinned) == ["seed 7 cs-postprocess trace 1: no record"]
    unpinned = records(7, pinned).replace('"seed": 7', '"seed": 3')
    assert mismatches(unpinned, pinned)[0] == "seed 3 cs-postprocess: nothing pinned"
    assert mismatches("", pinned) == ["no record lines"]
