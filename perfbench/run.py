"""Benchmark of the morphmt CLI: three batch workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cs-prepare --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` runs the workload's CLI stages as separate processes
(``python -m morphmt.cli`` with ``PYTHONPATH`` set to the checkout's
``src``) in a closed loop for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` reports the per-layer metrics: it times the stages
untraced, then drives them in process through ``cli.main`` with every
public library function wrapped (see ``tracer.py``).  ``--workload all``
runs both passes of every workload and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people and record the run (git SHA, Python,
``nproc``, seed, output SHA-256).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import string
import subprocess
import sys
import threading
import time
import types
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up repeats at least this often and for at least this long.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
STARTUP_REPEATS = 5
# Every run ends well inside three minutes, whatever --seconds asks for.
RUN_DEADLINE_S = 170.0
CALIBRATION_SAMPLES = 5
CALIBRATION_REFERENCE_S = 0.040


# ---------------------------------------------------------------------------
# Machine-speed calibration
# ---------------------------------------------------------------------------
#
# On a shared host the CPU speed a process gets drifts by tens of percent
# over tens of seconds, and CPU time drifts with wall time, so neither can
# be read as the program's speed.  A fixed pure-Python job doing the kind
# of work the toolkit does (string building, dict updates, regex matching,
# sorting) is timed before set-up, after set-up and after every batch job;
# the timing metrics are scaled by its median slowness over the run.  The
# job is benchmark code, so no change to morphmt can move it.


@functools.cache
def _calibration_words() -> tuple[str, ...]:
    rng = random.Random(0)
    return tuple(
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 14)))
        for _ in range(12000)
    )


_FEATURES = re.compile(r"^(?:<[^<>]+>)+$")


def _calibration_job() -> int:
    counts: dict[tuple[str, str], int] = {}
    matched = 0
    for word in _calibration_words():
        key = (word, word[:3])
        counts[key] = counts.get(key, 0) + 1
        if _FEATURES.match("<" + word + "><" + word[-2:] + ">"):
            matched += 1
        matched += len(word.split("a"))
    return matched + len(sorted(counts.items()))


def slowness() -> float:
    """Median time of the calibration job over its reference time; above 1 is slow."""
    _calibration_words()
    times = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        _calibration_job()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / CALIBRATION_REFERENCE_S


# ---------------------------------------------------------------------------
# Running stages
# ---------------------------------------------------------------------------


@dataclass
class StageRun:
    command: str
    wall_s: float
    rss_mib: float
    stderr_bytes: int
    exit_code: int


@dataclass
class Batch:
    wall_s: float
    stages: list[StageRun]
    digest: str

    @property
    def ok(self) -> bool:
        return all(s.exit_code == 0 for s in self.stages)


def run_stage(stage, env: dict, deadline: float) -> StageRun:
    """Run one stage as its own process and read its peak RSS with ``wait4``."""
    stderr_path = stage.stdout.with_suffix(".stderr")
    argv = [sys.executable, "-m", "morphmt.cli", *stage.argv]
    with open(stage.stdout, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return StageRun(stage.command, end - start, usage.ru_maxrss / 1024.0,
                    stderr_path.stat().st_size, proc.returncode)


def output_digest(workload) -> str:
    digest = hashlib.sha256()
    for path in workload.outputs:
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes() if path.exists() else b"<missing>")
    return digest.hexdigest()


def run_batch(workload, env: dict, deadline: float) -> Batch:
    """One batch job: every stage, one after another; wall time from the
    start of the first stage to the exit of the last."""
    stages = []
    start = time.perf_counter()
    for stage in workload.stages:
        stages.append(run_stage(stage, env, deadline))
        if stages[-1].exit_code != 0:
            break
    wall = time.perf_counter() - start
    return Batch(wall, stages, output_digest(workload))


def run_batch_in_process(workload, library, tracer) -> tuple[float, list[int]]:
    """The same batch job through ``cli.main`` in this process, traced."""
    codes = []
    start = time.perf_counter()
    with tracer.span("batch"):
        for stage in workload.stages:
            with open(stage.stdout, "w", encoding="utf-8") as out, \
                    open(stage.stdout.with_suffix(".stderr"), "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    tracer.span(f"cli.{stage.command}"):
                codes.append(library.cli.main(list(stage.argv)))
    return time.perf_counter() - start, codes


def loop(seconds: float, deadline: float, body) -> list:
    """Closed loop: run ``body`` again as soon as it returns, for ``seconds``."""
    results = []
    start = time.perf_counter()
    while not results or (
        time.perf_counter() - start < seconds and time.monotonic() < deadline - 30
    ):
        results.append(body())
    return results


# ---------------------------------------------------------------------------
# Run record and determinism
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def code_id() -> str:
    """Hash of the library and benchmark sources that determine the outputs."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def remembered_digest(store: Path, key: str, digest: str) -> str | None:
    """Record ``digest`` under ``key``; return an earlier, different digest if any."""
    known = json.loads(store.read_text()) if store.exists() else {}
    previous = known.get(key)
    if previous is None:
        known[key] = digest
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
    return previous if previous not in (None, digest) else None


# ---------------------------------------------------------------------------
# The two passes
# ---------------------------------------------------------------------------


def setup_repeatedly(workload, library) -> list[float]:
    """Set up again and again (see ``SETUP_REPEATS``); every repeat must write
    the same input bytes."""
    times, digests = [], set()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        workload.setup(library)
        times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted(workload.work.iterdir()))
        ).hexdigest())
    if len(digests) != 1:
        raise RuntimeError("the generators wrote different inputs for one seed")
    return times


def verdict(workload, library, batches: list[Batch], problems: list[str]):
    """Check the outputs once, outside the timed part, and the digests of every batch."""
    check = workload.check(library)
    problems += check.unexplained[:10]
    if len(check.unexplained) > 10:
        problems.append(f"... {len(check.unexplained) - 10} more unexplained failures")
    failed = [b for b in batches if not b.ok or b.digest != batches[0].digest]
    if any(b.ok and b.digest != batches[0].digest for b in batches):
        problems.append("output digest differs between batches of one run")
    key = f"{code_id()}:{workload.name}:{workload.seed}"
    earlier = remembered_digest(ROOT / ".perfbench" / "digests.json", key, batches[0].digest)
    if earlier is not None:
        problems.append(f"output digest {batches[0].digest} differs from an earlier run's {earlier}")
    for b in batches:
        for s in b.stages:
            if s.exit_code != 0:
                problems.append(f"stage {s.command} exited with {s.exit_code}")
    return check, len(failed)


def end_to_end(workload, library, env, seconds: float, deadline: float, record: dict):
    slow = [slowness()]
    setup_times = setup_repeatedly(workload, library)
    slow.append(slowness())

    def batch() -> Batch:
        result = run_batch(workload, env, deadline)
        slow.append(slowness())
        return result

    batches = loop(seconds, deadline, batch)
    problems: list[str] = []
    check, failed = verdict(workload, library, batches, problems)
    # Set-up is scaled by the calibrations around it; the batch jobs by
    # the median over the loop, which follows the slow drift that moves a
    # run's medians while one calibration is too short to follow faster noise.
    setup_factor = (slow[0] + slow[1]) / 2
    factor = statistics.median(slow[1:])
    setup_s = statistics.median(setup_times)
    sent_per_s = statistics.median(workload.sentences / b.wall_s for b in batches)
    record.update(batches=len(batches), output_sha256=batches[0].digest,
                  known_defects=check.known_defects, problems=problems,
                  failed_line_ratio=check.failed_lines / check.lines,
                  raw_setup_s=setup_s, raw_sent_per_s=sent_per_s,
                  setup_slowness=setup_factor, slowness=factor)
    metrics = {
        "setup_s": setup_s / setup_factor,
        "sent_per_s": sent_per_s * factor,
        "peak_rss_mib": statistics.median(max(s.rss_mib for s in b.stages) for b in batches),
        "correct_line_ratio": 1.0 - check.failed_lines / check.lines,
    }
    return metrics, len(batches), failed, not problems


def per_layer(workload, library, env, seconds: float, deadline: float, record: dict):
    import tracer as tracing

    workload.setup(library)
    untraced = loop(seconds / 2, deadline, lambda: run_batch(workload, env, deadline))
    startup = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "morphmt.cli", "--version"], env=env,
                       stdout=subprocess.DEVNULL, check=True)
        startup.append(time.perf_counter() - start)

    tracer = tracing.Tracer(f"{workload.name}-{workload.seed}-{os.getpid()}")
    tracer.install(library.package)
    traced, codes = [], []
    try:
        def traced_batch():
            tracer.reset()
            since = len(tracer.spans)
            wall, stage_codes = run_batch_in_process(workload, library, tracer)
            codes.extend(stage_codes)
            return layer_metrics(tracer, since, wall)

        traced = loop(seconds / 2, deadline, traced_batch)
    finally:
        tracer.uninstall()
    traced_digest = output_digest(workload)
    jobs = jobs_scaling(workload, library) if workload.name == "cs-postprocess" else {}

    problems: list[str] = []
    check, failed = verdict(workload, library, untraced, problems)
    if traced_digest != untraced[0].digest:
        problems.append("in-process output differs from the CLI processes' output")
    if any(codes):
        problems.append(f"in-process stage exit codes {codes}")
    spans_path = ROOT / ".perfbench" / f"spans-{workload.name}-{workload.seed}.jsonl.gz"
    tracer.write(spans_path)
    record.update(batches=len(untraced), traced_batches=len(traced), spans=str(spans_path.relative_to(ROOT)),
                  output_sha256=untraced[0].digest, known_defects=check.known_defects,
                  problems=problems, jobs=jobs.get("jobs"))

    metrics = {}
    for command in ("prepare", "translate", "postprocess", "bleu"):
        runs = [s for b in untraced for s in b.stages if s.command == command]
        metrics[f"cli.{command}.wall_s"] = statistics.median(s.wall_s for s in runs) if runs else 0.0
        if command in ("prepare", "postprocess"):
            metrics[f"cli.{command}.rss_mib"] = statistics.median(s.rss_mib for s in runs) if runs else 0.0
        if command == "postprocess":
            metrics["cli.postprocess.stderr_bytes"] = statistics.median(s.stderr_bytes for s in runs) if runs else 0
    metrics["cli.startup_s"] = statistics.median(startup)
    for name in traced[0]:
        metrics[name] = statistics.median(t[name] for t in traced)
    metrics["pipeline.postprocess.jobs2_speedup"] = jobs.get("speedup", 0.0)
    untraced_wall = statistics.median(b.wall_s for b in untraced)
    metrics["trace.overhead_ratio"] = statistics.median(t["trace.wall_s"] for t in traced) / untraced_wall
    del metrics["trace.wall_s"]
    top = sorted(tracer.times(0)[1].items(), key=lambda kv: -kv[1])[:6]
    record["top_self_s"] = {name: round(s / len(traced), 4) for name, s in top}
    attempted = len(untraced) + len(traced)
    return metrics, attempted, failed + sum(1 for c in codes if c), not problems


def layer_metrics(tracer, since: int, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced batch job."""
    total, self_time = tracer.times(since)
    calls, raised, tally = tracer.calls, tracer.raised, tracer.tally

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rows, max_candidates = 0, 0
    for document in tracer.lexicon_documents:
        surfaces: dict[str, int] = {}
        for line in document.split("\n"):
            columns = line.split("\t")
            if len(columns) == 3 and not line.startswith("#"):
                rows += 1
                if columns[0] != "@mod":
                    surfaces[columns[2]] = surfaces.get(columns[2], 0) + 1
        max_candidates = max([max_candidates, *surfaces.values()])
    tokens = tally["tokens"]
    merges = tally["bpe.learn_bpe.merges"]
    unknown = tally["compounds.unknown_after"] - tally["compounds.unknown_before"]
    return {
        "trace.wall_s": wall,
        "bpe.learn_bpe.s": total["bpe.learn_bpe"],
        "bpe.learn_bpe.self_s": self_time["bpe.learn_bpe"],
        "bpe.learn_bpe.merges": merges,
        "bpe.learn_bpe.types": sum(tracer.learn_bpe_types),
        "bpe.learn_bpe.ms_per_merge": ratio(1000.0 * total["bpe.learn_bpe"], merges),
        "bpe.learn_bpe.calls": calls["bpe.learn_bpe"],
        "bpe.segment_line.s": total["bpe.segment_line"],
        "bpe.apply_bpe.calls": calls["bpe.apply_bpe"],
        "bpe.apply_bpe.tok_per_s": ratio(calls["bpe.apply_bpe"], total["bpe.apply_bpe"]),
        "bpe.apply_bpe.distinct_ratio": ratio(len(tracer.apply_bpe_tokens), calls["bpe.apply_bpe"]),
        "bpe.revert_bpe.calls": calls["bpe.revert_bpe"],
        "bpe.revert_bpe.s": total["bpe.revert_bpe"],
        "morphlex.load_lexicon.s": total["morphlex.load_lexicon"],
        "morphlex.load_lexicon.rows_per_s": ratio(rows, total["morphlex.load_lexicon"]),
        "morphlex.load_lexicon.max_candidates": max_candidates,
        "morphlex.load_lexicon.wall_share": ratio(total["morphlex.load_lexicon"], wall),
        "morphlex.analyze.calls": calls["morphlex.analyze"],
        "morphlex.analyze.s": total["morphlex.analyze"],
        "morphlex.disambiguate.calls": calls["morphlex.disambiguate"],
        "morphlex.disambiguate.s": total["morphlex.disambiguate"],
        "morphlex.disambiguate.failed": raised["morphlex.disambiguate"],
        "morphlex.generate_with_fallback.calls": calls["morphlex.generate_with_fallback"],
        "morphlex.generate_with_fallback.s": total["morphlex.generate_with_fallback"],
        "morphlex.generate_with_fallback.fallback_ratio": ratio(
            tally["morphlex.generate.failures"], calls["morphlex.generate_with_fallback"]),
        "tagsets.is_czech_tag.calls_per_token": ratio(calls["tagsets.is_czech_tag"], tokens),
        "tagsets.is_feature_token.calls_per_token": ratio(calls["tagsets.is_feature_token"], tokens),
        "tagsets.parse_feature_seq.calls": calls["tagsets.parse_feature_seq"],
        "tagsets.parse_czech_tag.calls": calls["tagsets.parse_czech_tag"],
        "interleave.encode.calls": calls["interleave.encode"],
        "interleave.encode.s": total["interleave.encode"],
        "interleave.decode.calls": calls["interleave.decode"],
        "interleave.decode.s": total["interleave.decode"],
        "interleave.decode.error_ratio": ratio(raised["interleave.decode"], calls["interleave.decode"]),
        "compounds.split_compound.calls": calls["compounds.split_compound"],
        "compounds.split_compound.s": total["compounds.split_compound"],
        "compounds.merge_compound.calls": calls["compounds.merge_compound"],
        "compounds.merge_compound.s": total["compounds.merge_compound"],
        "compounds.rejoin_split_tokens.s": total["compounds.rejoin_split_tokens"],
        "compounds.unknown_modifier_ratio": ratio(unknown, tally["compounds.modifiers"]),
        "pipeline.prepare_variant.s": total["pipeline.prepare_variant"],
        "pipeline.prepare_variant.self_s": self_time["pipeline.prepare_variant"],
        "pipeline.postprocess.s": total["pipeline.postprocess"],
        "pipeline.postprocess.self_s": self_time["pipeline.postprocess"],
        "pipeline.translate_external.calls": calls["pipeline.translate_external"],
        "pipeline.translate_external.s": total["pipeline.translate_external"],
        "evaluation.bleu.s": total["evaluation.bleu"],
        "evaluation.bleu.sent_per_s": ratio(tally["evaluation.bleu.sentences"], total["evaluation.bleu"]),
    }


def jobs_scaling(workload, library) -> dict:
    """Time ``pipeline.postprocess`` on the workload's backend output at
    ``jobs=1`` and ``jobs=2`` (never more workers than ``nproc``)."""
    jobs = min(2, nproc())
    lex = library.morphlex.load_lexicon(workload.path("lexicon.tsv").read_text(encoding="utf-8"))
    lines = workload.path("backend.txt").read_text(encoding="utf-8").split("\n")[:-1]
    cfg = library.pipeline.PipelineConfig.for_mode("morphgen")
    times = {}
    for n in (1, jobs):
        start = time.perf_counter()
        library.pipeline.postprocess(lines, cfg, lex, jobs=n)
        times[n] = time.perf_counter() - start
    return {"jobs": jobs, "speedup": times[1] / times[jobs]}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_library():
    """The morphmt package of this checkout, imported from its ``src``."""
    sys.path.insert(0, str(ROOT / "src"))
    names = ("cli", "tagsets", "morphlex", "interleave", "bpe", "compounds", "pipeline", "evaluation")
    package = importlib.import_module("morphmt")
    modules = {name: importlib.import_module(f"morphmt.{name}") for name in names}
    return types.SimpleNamespace(package=package, **modules)


def run_one(args, spec: dict) -> int:
    import workloads

    library = load_library()
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "git_sha": git_sha(), "python": platform.python_version(), "nproc": nproc()}
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, correct = measure(
            workload, library, env, args.seconds, deadline, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["setup"] = workload.info

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace == 0:
        print(f"{args.workload} failed_line_ratio {record['failed_line_ratio']} ratio "
              f"(known defects: {record['known_defects'] or 'none'})")
    for m in wanted:
        print(f"{args.workload} {m['name']} {metrics[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Both passes of every workload, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "morphmt" / "cli.py").is_file():
        print(f"perfbench: no morphmt sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
