"""Mutation checks: does the test suite catch each recorded mutation?

A mutation is a named, exact text replacement in one file of the
source tree, whose old text must occur there exactly once, with the
test files that must catch it.  For each mutation the tree (``src/``,
``tests/``, ``data/`` and ``pyproject.toml``) is copied to a temporary
directory, the replacement is applied there, and ``pytest -x`` runs the
named test files with a fixed ``--hypothesis-seed`` against the copy.
A mutation that every test passes survives.  One planted mutation
changes a comment only and must survive: it checks the harness itself.

Run it from anywhere; it is not part of the test suite, and CI runs it
as a job of its own (a full run takes a few minutes on two cores):

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
COMPOUNDS = "src/morphmt/compounds.py"
MORPHLEX = "src/morphmt/morphlex.py"
INTERLEAVE = "src/morphmt/interleave.py"
CONVENTIONS = "src/morphmt/conventions.py"
BPE = "src/morphmt/bpe.py"
BACKEND = "src/morphmt/backend.py"
TEST_CLI = ("tests/test_cli.py",)
TEST_MEMO = ("tests/test_pipeline_memo.py",)
TEST_TAGSETS = ("tests/test_tagsets.py",)
TEST_COMPOUNDS = ("tests/test_compounds.py",)
TEST_MORPHLEX = ("tests/test_morphlex.py",)
TEST_INTERLEAVE = ("tests/test_interleave.py",)
TEST_BPE = ("tests/test_bpe.py",)
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
    # A German feature sequence derives its kind from its values.
    Mutation("participle-kind-read-as-finite", TAGSETS,
             "            kind = KIND_PARTICIPLE\n", "            kind = KIND_VERBAL_FINITE\n",
             TEST_TAGSETS),
    # The prepare manifest records whether the length filter ran.
    Mutation("prepare-manifest-without-filter", CLI,
             '"lexicon": args.lexicon, "filter": filtered}', '"lexicon": args.lexicon}', TEST_CLI),
    # The prepare manifest's config names option keys, so it reads back as a config file.
    Mutation("prepare-manifest-without-lexicon", CLI,
             '{**cfg.snapshot(), "lexicon": args.lexicon, ', "{**cfg.snapshot(), ", TEST_CLI),
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
             '{**pipeline.PipelineConfig.for_mode(mode).snapshot(), "lexicon": args.lexicon}',
             TEST_CLI),
    # No two outputs of a run share a destination: standard output or a file.
    Mutation("outputs-share-stdout", CLI,
             "        if len(names) > 1:\n", '        if len(names) > 1 and key != "-":\n', TEST_CLI),
    Mutation("outputs-share-a-file", CLI,
             "        if len(names) > 1:\n", '        if len(names) > 1 and key == "-":\n', TEST_CLI),
    Mutation("output-files-compared-by-name", CLI,
             'path if path == "-" else os.path.realpath(path)', "path", TEST_CLI),
    # stats takes --vocab or --word-ends, never both.
    Mutation("stats-vocab-wins-over-word-ends", CLI,
             "    if bool(args.vocab) == (args.word_ends is not None):\n",
             "    if not args.vocab and args.word_ends is None:\n", TEST_CLI),
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
             'line[0] != " " and line[-1]', "line[-1]", TEST_MEMO),
    Mutation("revert-lenient-trailing-space", PIPELINE,
             'line[-1] != " " and "  "', '"  "', TEST_MEMO),
    Mutation("revert-lenient-double-space", PIPELINE,
             ' and "  " not in line\n', "\n", TEST_REVERT),
    Mutation("revert-lenient-tab-and-cr", PIPELINE,
             'and "\\t" not in line and "\\r" not in line and ', "and ", TEST_REVERT),
    Mutation("revert-lenient-final-marker", PIPELINE,
             " and not line.endswith(MARKER)\n    ):", "\n    ):", TEST_REVERT),
    # A German row key encodes only to tokens that read back as its word.
    Mutation("encoder-without-surface-check", PIPELINE,
             "        if lemma != surface:\n", "        if False:\n", TEST_MEMO),
    Mutation("german-analysis-without-stem-check", TAGSETS,
             "        parse_stem_side(stem_text)\n", "", TEST_TAGSETS),
    # Compounds split and merge from the parsed stem.
    Mutation("split-compound-without-part-check", COMPOUNDS,
             "        if features is not None or markup is not None:\n", "        if False:\n",
             TEST_COMPOUNDS),
    Mutation("split-at-any-markup", COMPOUNDS,
             "        if segment.markup in SPLIT_MARKUP:\n", "        if segment.markup is not None:\n",
             TEST_COMPOUNDS),
    Mutation("unknown-modifiers-not-reported", COMPOUNDS,
             "            if unknown_modifiers is not None:\n", "            if False:\n",
             TEST_COMPOUNDS),
    Mutation("head-markup-dropped", COMPOUNDS,
             '    return (merged if markup is None else f"{merged}<{markup}>"), True\n',
             "    return merged, True\n", TEST_COMPOUNDS),
    Mutation("later-parts-not-lowercased", COMPOUNDS,
             '    merged = parts[0] + "".join(_lower_first(p) for p in parts[1:])\n',
             '    merged = "".join(parts)\n', TEST_COMPOUNDS),
    # prepare selects the first row key, and drops a sentence before it
    # raises an encoding error.
    Mutation("largest-key", MORPHLEX,
             "        return min(keys)\n", "        return max(keys)\n", TEST_MEMO),
    Mutation("no-nogend-wildcard", MORPHLEX,
             ' and tag.gender != "NoGend":\n', ":\n", TEST_MORPHLEX),
    Mutation("encoding-error-before-a-later-drop", PIPELINE,
             "                    encoding_error = encoding_error or exc\n"
             "                    continue\n",
             "                    raise\n", TEST_MEMO),
    # The walk and the rejoin of split compounds.
    Mutation("german-word-expected-one-token-late", INTERLEAVE,
             "                error = (ERROR_WORD_EXPECTED, i)\n",
             "                error = (ERROR_WORD_EXPECTED, i + 1)\n",
             TEST_INTERLEAVE),
    Mutation("czech-tag-expected-one-token-late", INTERLEAVE,
             "                error = (ERROR_TAG_EXPECTED, start)\n",
             "                error = (ERROR_TAG_EXPECTED, start + 1)\n",
             TEST_INTERLEAVE),
    Mutation("rejoined-token-always-a-word", COMPOUNDS,
             "            last_is_word = not is_german_tag_token(joined)\n",
             "            last_is_word = True\n", TEST_COMPOUNDS),
    Mutation("run-tags-and-words-swapped", INTERLEAVE,
             "tokens[start:end:2], tokens[start + 1 : end : 2]",
             "tokens[start + 1 : end : 2], tokens[start:end:2]", TEST_INTERLEAVE),
    # One token rule: conventions.tokenize.
    Mutation("tokenize-is-str-split", CONVENTIONS,
             '    return list(filter(None, line.replace("\\t", " ").replace("\\r", " ").split(" ")))\n',
             "    return line.split()\n", TEST_CLI),
    Mutation("tokenize-keeps-cr", CONVENTIONS,
             '.replace("\\t", " ").replace("\\r", " ").split(" ")',
             '.replace("\\t", " ").split(" ")', TEST_BPE),
    Mutation("merge-table-read-by-spaces", BPE,
             "            parts = tokenize(line)\n            if not parts:\n                continue\n",
             "            if not line.strip():\n                continue\n"
             '            parts = line.split(" ")\n',
             TEST_BPE),
    Mutation("bare-split-in-backend", BACKEND,
             '            stderr = proc.stderr.decode("utf-8", "replace").strip(" \\t\\r\\n")\n',
             '            stderr = " ".join(proc.stderr.decode("utf-8", "replace").split())\n',
             ("tests/test_package.py",)),
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
