"""Mutation checks: does the test suite catch each recorded mutation?

A mutation is a named, exact text replacement in one file of the
source tree, whose old text must occur there exactly once, with the
test files that must catch it.  For each mutation the tree (``src/``,
``tests/``, ``data/`` and ``pyproject.toml``) is copied to a temporary
directory, the replacement is applied there, and ``pytest -x`` runs the
named test files with a fixed ``--hypothesis-seed`` against the copy.
A mutation that every test passes survives.  One planted mutation
changes a comment only and must survive: it checks the harness itself.

Run it on demand from anywhere (it is not part of the test suite; a
full run takes a few minutes on two cores):

    python tests/mutants.py             # every mutation
    python tests/mutants.py NAME ...    # only these
    python tests/mutants.py --list      # names, files and test files

The exit status is 0 when each mutation is caught, or survives when it
is marked to, and 1 otherwise.  Only the standard library is used here;
the test run itself needs pytest and Hypothesis.  Add the mutations of a
change to ``MUTATIONS``: ``tests/test_mutants.py`` checks in the test
suite that each old text still occurs exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "data", "pyproject.toml")
HYPOTHESIS_SEED = 0
TIMEOUT_S = 1200


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # test files, relative to the repository root
    survives: bool = False  # True only for the planted mutation


TAGSETS = "src/morphmt/tagsets.py"
CLI = "src/morphmt/cli.py"
PIPELINE = "src/morphmt/pipeline.py"
TEST_CLI = ("tests/test_cli.py",)
TEST_REVERT = ("tests/test_bpe.py", "tests/test_interleave.py", "tests/test_pipeline.py",
               "tests/test_pipeline_memo.py")

MUTATIONS = (
    # A Czech tag is its checked text.
    Mutation("czech-tag-unchecked", TAGSETS,
             "    if _TAG_RE.fullmatch(raw) is None:\n        if len(raw) != TAG_LENGTH:",
             "    if False:\n        if len(raw) != TAG_LENGTH:",
             ("tests/test_tagsets.py", "tests/test_records.py")),
    Mutation("czech-tag-not-its-text", TAGSETS,
             "        raise MalformedTag(f\"illegal character {ch!r} at position {i} in tag {raw!r}\")\n"
             "    return raw\n",
             "        raise MalformedTag(f\"illegal character {ch!r} at position {i} in tag {raw!r}\")\n"
             "    return tuple(raw)\n",
             ("tests/test_tagsets.py", "tests/test_morphlex.py")),
    # The prepare manifest records whether the length filter ran.
    Mutation("prepare-manifest-without-filter", CLI,
             '{**cfg.snapshot(), "filter": filtered}', "cfg.snapshot()", TEST_CLI),
    # postprocess takes only its own options and records only them.
    Mutation("postprocess-takes-prepare-options", CLI,
             "def _postprocess_options(p: argparse.ArgumentParser) -> None:\n"
             "    _add_mode_options(p)\n",
             "def _postprocess_options(p: argparse.ArgumentParser) -> None:\n"
             "    _add_mode_options(p)\n"
             "    for flag in ('--merges', '--maxlen', '--minlen', '--sample-size', '--seed'):\n"
             "        p.add_argument(flag, type=int)\n"
             "    for flag in ('--protect-tags', '--joint-bpe', '--split-source-hyphens'):\n"
             "        p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)\n",
             TEST_CLI),
    Mutation("postprocess-manifest-records-prepare-config", CLI,
             '{"mode": mode, "lexicon": args.lexicon}',
             "pipeline.PipelineConfig.for_mode(mode, lexicon_path=args.lexicon).snapshot()",
             TEST_CLI),
    # At most one output of a run goes to standard output.
    Mutation("outputs-share-stdout", CLI,
             "    if len(on_stdout) > 1:\n", "    if False:\n", TEST_CLI),
    Mutation("manifest-dash-is-a-file", CLI,
             "        write_lines(manifest_path, [manifest.to_json()])\n",
             '        Path(manifest_path).write_text(manifest.to_json() + "\\n", encoding="utf-8")\n',
             TEST_CLI),
    Mutation("source-table-lost-on-stdout", CLI,
             '    if args.merge_table_out == "-" and not cfg.joint_bpe:\n', "    if False:\n",
             TEST_CLI),
    # pipeline._revert_lenient reverts a line on its text only when it is
    # normalized; each condition of that test dropped in turn.
    Mutation("revert-lenient-nonempty", PIPELINE,
             '        line and line[0] != " "', '        line[0] != " "', TEST_REVERT),
    Mutation("revert-lenient-leading-space", PIPELINE,
             'line[0] != " " and line[-1]', "line[-1]", TEST_REVERT),
    Mutation("revert-lenient-trailing-space", PIPELINE,
             'line[-1] != " " and "  "', '"  "', TEST_REVERT),
    Mutation("revert-lenient-double-space", PIPELINE,
             ' and "  " not in line\n', "\n", TEST_REVERT),
    Mutation("revert-lenient-tab-and-cr", PIPELINE,
             'and "\\t" not in line and "\\r" not in line and ', "and ", TEST_REVERT),
    Mutation("revert-lenient-final-marker", PIPELINE,
             " and not line.endswith(MARKER)\n    ):", "\n    ):", TEST_REVERT),
    # Planted: a comment-only change that no test can catch.
    Mutation("planted-comment-only", PIPELINE,
             "        # The empty token was not joined to a marked word before it.\n",
             "        # The empty token was not joined to a word before it.\n",
             TEST_REVERT, survives=True),
)


def problem(mutation: Mutation, root: Path = ROOT) -> str | None:
    """Why ``mutation`` cannot be applied to the tree at ``root``, or None."""
    path = root / mutation.path
    if not path.is_file():
        return f"no file {mutation.path}"
    count = path.read_text(encoding="utf-8").count(mutation.old)
    if count != 1:
        return f"old text occurs {count} times in {mutation.path}"
    if mutation.old == mutation.new:
        return "old and new text are the same"
    missing = [test for test in mutation.tests if not (root / test).is_file()]
    if not mutation.tests or missing:
        return f"missing test files: {missing or 'none named'}"
    return None


def run_mutation(mutation: Mutation) -> tuple[bool, str]:
    """Apply ``mutation`` to a copy of the tree and run its tests there:
    (whether it survived, the last lines of pytest's report)."""
    with tempfile.TemporaryDirectory(prefix="morphmt-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        path = copy / mutation.path
        path.write_text(
            path.read_text(encoding="utf-8").replace(mutation.old, mutation.new), encoding="utf-8"
        )
        # The copy's src/ comes first, so every process the tests start imports the mutant.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(copy / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   f"--hypothesis-seed={HYPOTHESIS_SEED}", *mutation.tests]
        try:
            result = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                                    timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
        report = (result.stdout + result.stderr).strip().splitlines()
        return result.returncode == 0, "\n".join(report[-3:])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutations")
    parser.add_argument("--list", action="store_true", help="list the mutations and exit")
    args = parser.parse_args(argv)
    by_name = {mutation.name: mutation for mutation in MUTATIONS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutation(s): {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTATIONS)
    if args.list:
        for mutation in chosen:
            planted = " (planted: must survive)" if mutation.survives else ""
            print(f"{mutation.name}: {mutation.path} <- {' '.join(mutation.tests)}{planted}")
        return 0
    unexpected, survivors = [], []
    for mutation in chosen:
        reason = problem(mutation)
        if reason is not None:
            print(f"BROKEN    {mutation.name}: {reason}", flush=True)
            unexpected.append(mutation.name)
            continue
        start = time.monotonic()
        survived, report = run_mutation(mutation)
        outcome = "survived" if survived else "killed"
        if survived:
            survivors.append(mutation.name)
        expected = survived == mutation.survives
        label = outcome if expected else outcome.upper()
        print(f"{label:<9} {mutation.name} ({time.monotonic() - start:.0f} s)", flush=True)
        if not expected:
            unexpected.append(mutation.name)
            print("    " + report.replace("\n", "\n    "), flush=True)
    print(f"{len(chosen)} mutations; survivors: {', '.join(survivors) or 'none'}; "
          f"unexpected outcomes: {', '.join(unexpected) or 'none'}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
