"""Command-line interface: one subcommand per pipeline stage.

Every subcommand reads standard input when no input file is given and
writes results to standard output, with diagnostics on standard error,
so stages can be piped together.  All text I/O is strict UTF-8; invalid
byte sequences abort with a diagnostic.  A run manifest (configuration,
seed, input checksums, per-stage counters) is emitted for every run:
next to the output file when one is written, to standard error
otherwise.  ``-`` names standard output for every output option, and at
most one output of a run may go there.

A handler only computes: it reads its inputs through :class:`_Inputs`
and returns a :class:`_Result`.  :func:`main` writes the result, the
diagnostics and the manifest.

Configuration precedence is flags > config file (``key=value`` lines,
``--config``; each key names an option of some subcommand) > built-in
defaults.  The config file fills in the options that the command line
leaves unset, before the handler runs.

Each handler imports the library modules it runs, when it runs, and
:func:`main` builds the parser of the subcommand it runs, so a stage
loads and builds only what it uses.

:func:`run` is the process entry point (``morphmt`` and ``python -m
morphmt.cli``): after :func:`main` returns it flushes both streams and
ends the process with ``os._exit``, skipping the interpreter's teardown,
since a stage leaves no open file, child process or ``atexit`` hook.
Library callers and tests call :func:`main`, which returns the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import Record, __version__
from .conventions import (
    GERMAN_DEFAULT_MERGES,
    MODE_BASELINE,
    MODE_GERMAN_STEMMED,
    MODE_SERIALIZATION,
    PIPELINE_MODES,
    TOKEN_SEPARATORS,
    split_lines,
    tokenize,
)

if TYPE_CHECKING:
    from . import morphlex, pipeline

__all__ = ["main", "run", "RunManifest"]


class CliError(RuntimeError):
    """Operational failure reported with a diagnostic and exit code 1."""


class RunManifest(Record):
    """Everything needed to reproduce a run byte-for-byte."""

    def __init__(
        self, tool_version: str, command: str, config: dict, input_checksums: dict[str, str],
        counters: dict[str, int] | None = None, seed: int | None = None,
    ) -> None:
        self.tool_version = tool_version
        self.command = command
        self.config = config
        self.input_checksums = input_checksums
        self.counters = {} if counters is None else counters
        self.seed = seed

    def to_json(self, compact: bool = False) -> str:
        data = self._asdict()
        if compact:
            return json.dumps(data, ensure_ascii=False, sort_keys=True)
        return json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2)


class _Result(Record):
    """What a handler computed: output lines, manifest fields, diagnostics."""

    def __init__(
        self, lines: list[str], config: dict, counters: dict[str, int], seed: int | None = None,
        notes: list[str] | None = None,  # printed to stderr
        side_outputs: list[tuple[str, list[str]]] | None = None,  # (path, lines)
    ) -> None:
        self.lines = lines
        self.config = config
        self.counters = counters
        self.seed = seed
        self.notes = [] if notes is None else notes
        self.side_outputs = [] if side_outputs is None else side_outputs


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


class _Inputs:
    """Reads the inputs of one run and records the SHA-256 of each."""

    def __init__(self) -> None:
        self.checksums: dict[str, str] = {}

    def text(self, path: str | None) -> str:
        if path is None or path == "-":
            if "<stdin>" in self.checksums:
                raise CliError("stdin (-) can be only one of the inputs")
            data = sys.stdin.buffer.read()
            origin = "<stdin>"
        else:
            data = Path(path).read_bytes()
            origin = path
        self.checksums[origin] = hashlib.sha256(data).hexdigest()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CliError(f"{origin}: invalid UTF-8 at byte {exc.start}") from exc

    def lines(self, path: str | None) -> list[str]:
        return split_lines(self.text(path))


def write_lines(path: str | None, lines: list[str]) -> None:
    """Write lines to a file, or to standard output and flush it there.

    A write or flush that fails because the reader of standard output
    has gone points file descriptor 1 at the null device before it
    raises: a failed flush keeps its data, so every later flush, the
    interpreter's at exit included, would fail and report it again.
    """
    text = "".join(line + "\n" for line in lines)
    if path is not None and path != "-":
        Path(path).write_text(text, encoding="utf-8")
        return
    if sys.stdout is None:  # file descriptor 1 was closed when the process started
        raise CliError("standard output is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def emit_manifest(manifest: RunManifest, output_path: str | None, manifest_path: str | None) -> None:
    if manifest_path is not None:
        write_lines(manifest_path, [manifest.to_json()])
        return
    if output_path is not None and output_path != "-":
        sidecar = Path(output_path).with_name(Path(output_path).name + ".manifest.json")
        sidecar.write_text(manifest.to_json() + "\n", encoding="utf-8")
        return
    print(manifest.to_json(compact=True), file=sys.stderr)


# The destinations of the options that name an output file; "-" is
# standard output, and so is a missing --output or --out-target.
_OUTPUT_DESTS = ("output", "out_source", "merge_table_out", "manifest")


def check_one_stdout(args: argparse.Namespace, sub: argparse.ArgumentParser) -> None:
    """Refuse a run that would write more than one output to standard output."""
    flags = {a.dest: a.option_strings[0] for a in sub._actions if a.option_strings}
    on_stdout = [
        flags.get(dest, "the output") for dest in _OUTPUT_DESTS
        if getattr(args, dest, None) == "-" or (dest == "output" and args.output is None)
    ]
    if len(on_stdout) > 1:
        raise CliError(f"{', '.join(on_stdout[:-1])} and {on_stdout[-1]} write to "
                       "standard output; at most one output may")


# ---------------------------------------------------------------------------
# Config file and precedence
# ---------------------------------------------------------------------------


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def _configurable(sub: argparse.ArgumentParser) -> list[argparse.Action]:
    """The options of a subcommand a config file can set: all but --help and
    --config itself (a config file cannot name another one)."""
    return [a for a in sub._actions
            if a.option_strings and a.default != argparse.SUPPRESS and a.dest != "config"]


def config_keys(parser: argparse.ArgumentParser) -> set[str]:
    """The valid config keys: the destinations of every subcommand's options."""
    return {a.dest for sub in _subcommands(parser).values() for a in _configurable(sub)}


def load_config_file(path: str, keys: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    # Bytes, not read_text: text mode would end a line at a lone \r.
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: invalid UTF-8 at byte {exc.start}") from exc
    for lineno, line in enumerate(split_lines(text), 1):
        stripped = line.strip(TOKEN_SEPARATORS)
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip(TOKEN_SEPARATORS).replace("-", "_")
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip(TOKEN_SEPARATORS)
    return values


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise CliError(f"not a boolean: {text!r}")


def apply_config(args: argparse.Namespace, sub: argparse.ArgumentParser, config: dict[str, str]) -> None:
    """Set every option of ``sub`` that the command line left at its default
    from ``config``, converted as the option converts its argument.  Keys
    of other subcommands are left for them, so one file serves a pipeline."""
    for action in _configurable(sub):
        raw = config.get(action.dest)
        if raw is None or getattr(args, action.dest) != action.default:
            continue
        cast = action.type or str
        if action.nargs == 0:  # --flag, or --flag/--no-flag
            value = _bool(raw)
        elif action.nargs in ("+", "*"):
            value = [cast(item) for item in tokenize(raw)]
        else:
            value = cast(raw)
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise CliError(f"{args.config}: {action.dest}: invalid choice: {raw!r} (choose from {choices})")
        setattr(args, action.dest, value)


def _load_lexicon(path: str | None, inputs: _Inputs) -> morphlex.ParadigmLexicon:
    from . import morphlex

    if path is None:
        raise CliError("a lexicon is required (--lexicon)")
    return morphlex.load_lexicon(inputs.text(path))


def _mode(args: argparse.Namespace) -> str:
    if args.mode is None:
        raise CliError("a mode is required (--mode)")
    return args.mode


def _pipeline_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    from . import pipeline

    return pipeline.PipelineConfig.for_mode(
        _mode(args),
        bpe_merges=args.merges,
        maxlen=args.maxlen,
        minlen=args.minlen,
        sample_size=args.sample_size,
        seed=args.seed,
        protect_tags=args.protect_tags,
        joint_bpe=args.joint_bpe,
        split_source_hyphens=args.split_source_hyphens,
        lexicon_path=args.lexicon,
    )


def _read_tag_lines(path: str | None, inputs: _Inputs) -> list[list[str]] | None:
    if path is None:
        return None
    return [tokenize(line) for line in inputs.lines(path)]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_prepare(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import pipeline

    cfg = _pipeline_config(args)
    if args.merge_table_out == "-" and not cfg.joint_bpe:
        raise CliError("--merge-table-out - leaves no place for the source table of --no-joint-bpe")
    lex = None
    if cfg.mode != MODE_BASELINE:
        lex = _load_lexicon(cfg.lexicon_path, inputs)
    target_lines = inputs.lines(args.target)
    if args.source is not None:
        source_lines = inputs.lines(args.source)
    else:
        source_lines = [""] * len(target_lines)
    corpus = pipeline.ParallelCorpus.from_lines(source_lines, target_lines)
    parse_tags = _read_tag_lines(args.parse_tags, inputs)
    source_tags = _read_tag_lines(args.source_tags, inputs)
    for flag, tag_lines in (("--parse-tags", parse_tags), ("--source-tags", source_tags)):
        if tag_lines is not None and len(tag_lines) != len(target_lines):
            raise CliError(f"{flag} has {len(tag_lines)} lines for {len(target_lines)} target lines")
    # Sampling implies the length filter; the manifest records whether it ran.
    filtered = bool(args.filter) or cfg.sample_size is not None
    kept = pipeline.filter_corpus(corpus, cfg) if filtered else corpus
    prepared = pipeline.prepare_variant(
        kept,
        cfg,
        lex,
        target_parse_tags=parse_tags,
        source_tags=source_tags,
    )
    counters = {
        "pairs_in": len(corpus),
        "pairs_out": len(prepared.corpus),
        "dropped": len(prepared.dropped),
        "merges_learned": len(prepared.target_table),
    }
    side_outputs = []
    if args.out_source is not None:
        side_outputs.append((args.out_source, prepared.corpus.sources))
    if args.merge_table_out is not None:
        # One entry for the whole table, so the file ends in a newline even when empty.
        side_outputs.append((args.merge_table_out, [prepared.target_table.to_text()]))
    if not cfg.joint_bpe:
        counters["source_merges_learned"] = len(prepared.source_table)
        if args.merge_table_out is not None:
            # Next to the target table, like the OUT.manifest.json sidecar.
            side_outputs.append(
                (args.merge_table_out + ".source", [prepared.source_table.to_text()])
            )
    return _Result(
        prepared.corpus.targets,
        {**cfg.snapshot(), "filter": filtered},
        counters,
        seed=cfg.seed,
        notes=[f"morphmt: dropped pair {index}: {reason}" for index, reason in prepared.dropped],
        side_outputs=side_outputs,
    )


def cmd_bpe_learn(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import bpe

    if args.merges is None:
        raise CliError("--merges is required")
    lines = inputs.lines(args.input)
    table = bpe.learn_bpe(
        (token for line in lines for token in tokenize(line)), args.merges
    )
    return _Result(split_lines(table.to_text()), {"merges": args.merges}, {"merges_learned": len(table)})


def cmd_bpe_apply(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import bpe

    if args.merge_table is None:
        raise CliError("--merge-table is required")
    table = bpe.MergeTable.from_text(inputs.text(args.merge_table))
    protect = bool(args.protect_tags)
    if protect and args.mode is None:
        raise CliError("--protect-tags needs --mode to pick the tag shape")
    protected = None
    if protect:
        from .tagsets import tag_predicate_for_mode

        protected = tag_predicate_for_mode(args.mode)
    lines = inputs.lines(args.input)
    out = [bpe.segment_line(table, line, protected) for line in lines]
    return _Result(
        out,
        {"merge_table": args.merge_table, "protect_tags": protect, "mode": args.mode},
        {"lines": len(lines)},
    )


def cmd_bpe_revert(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import bpe

    out = []
    for lineno, line in enumerate(inputs.lines(args.input), 1):
        try:
            out.append(" ".join(bpe.revert_bpe(tokenize(line))))
        except bpe.DanglingMarker as exc:
            raise CliError(f"line {lineno}: {exc}") from exc
    return _Result(out, {}, {"lines": len(out)})


def cmd_analyze(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import morphlex

    lex = _load_lexicon(args.lexicon, inputs)
    lines = inputs.lines(args.input)
    out = []
    unknown = 0
    for surface in lines:
        surface = surface.strip(TOKEN_SEPARATORS)
        if not surface:
            continue
        keys = morphlex.analyze(lex, surface)
        if not keys:
            unknown += 1
        for tag_text, lemma in keys:
            out.append(f"{surface}\t{lemma}\t{tag_text}")
    return _Result(
        out,
        {"lexicon": args.lexicon},
        {"surfaces": len(lines), "unknown": unknown},
    )


def cmd_generate(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import morphlex
    from .tagsets import MalformedAnalysis, MalformedTag

    lex = _load_lexicon(args.lexicon, inputs)
    diagnostics = morphlex.Diagnostics()
    out = []
    for index, line in enumerate(inputs.lines(args.input)):
        lineno = index + 1
        if not line.strip(TOKEN_SEPARATORS):
            continue
        columns = line.split("\t")
        if len(columns) != 2:
            raise CliError(f"line {lineno}: expected lemma<TAB>tag, got {line!r}")
        lemma, tag_text = columns
        try:
            morphlex.parse_tag_text(tag_text)
        except (MalformedTag, MalformedAnalysis) as exc:
            raise CliError(f"line {lineno}: {exc}") from exc
        # Keyed by input line, while diagnostics.lines stays 0: generate
        # checks no line's well-formedness.
        out.append(morphlex.generate_with_fallback(lex, lemma, tag_text, diagnostics, line=index))
    return _Result(
        out,
        {"lexicon": args.lexicon},
        {"generated": diagnostics.generated, "fallbacks": len(diagnostics.fallbacks)},
        notes=[diagnostics.to_text()] if diagnostics.fallbacks else [],
    )


def cmd_split_compounds(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import compounds, tagsets

    out = []
    split_count = 0
    for lineno, line in enumerate(inputs.lines(args.input), 1):
        tokens: list[str] = []
        for token in tokenize(line):
            try:
                tag_text, lemma, features = tagsets.parse_german_analysis(token)
                if features.kind == tagsets.KIND_BARE:
                    tokens.append(token)
                    continue
                split = compounds.split_tokens(lemma, tag_text, features)
            except tagsets.MalformedAnalysis as exc:
                raise CliError(f"line {lineno}: {exc}") from exc
            split_count += len(split) > 2  # an unsplit analysis has two tokens
            tokens += split
        out.append(" ".join(tokens))
    return _Result(out, {}, {"lines": len(out), "compounds_split": split_count})


def cmd_merge_compounds(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import compounds, interleave, tagsets

    lex = _load_lexicon(args.lexicon, inputs)
    out = []
    unknown_modifiers: list[str] = []
    merged_count = 0
    for lineno, line in enumerate(inputs.lines(args.input), 1):
        tokens, _ = compounds.rejoin_split_tokens(tokenize(line))
        result_tokens: list[str] = []
        for item in interleave.walk(tokens, MODE_GERMAN_STEMMED).items:
            if item.kind != interleave.ITEM_PAIR:
                # Bare tokens, orphan words and orphan tags pass through.
                result_tokens.append(tokens[item.position])
                continue
            try:
                stem, merged = compounds.merge_stem(
                    item.word, item.features, lex, unknown_modifiers
                )
            except tagsets.MalformedAnalysis as exc:
                raise CliError(f"line {lineno}: {exc}") from exc
            merged_count += merged
            result_tokens.append(f"{stem}||{item.tag}")
        out.append(" ".join(result_tokens))
    return _Result(
        out,
        {"lexicon": args.lexicon},
        {
            "lines": len(out),
            "compounds_merged": merged_count,
            "unknown_modifiers": len(unknown_modifiers),
        },
        notes=[f"morphmt: unknown compound modifier {lexeme!r}" for lexeme in unknown_modifiers],
    )


def cmd_translate(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    import shlex

    from . import backend

    if args.backend is None:
        raise CliError("--backend is required")
    lines = inputs.lines(args.input)
    out = backend.translate_external(lines, shlex.split(args.backend))
    return _Result(out, {"backend": args.backend}, {"lines": len(lines)})


def cmd_postprocess(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import pipeline

    mode = _mode(args)
    lex = None
    if mode not in (MODE_BASELINE, MODE_SERIALIZATION):
        lex = _load_lexicon(args.lexicon, inputs)
    lines = inputs.lines(args.input)
    result = pipeline.postprocess(lines, pipeline.PipelineConfig.for_mode(mode), lex,
                                  jobs=args.jobs or 1)
    diagnostics = result.diagnostics
    return _Result(
        result.lines,
        {"mode": mode, "lexicon": args.lexicon},
        {
            "lines": diagnostics.lines,
            "generated": diagnostics.generated,
            "fallbacks": len(diagnostics.fallbacks),
            "malformed_lines": diagnostics.malformed_lines,
            "recovery_events": len(diagnostics.repairs),
            "unknown_modifiers": len(diagnostics.unknown_modifiers),
        },
        notes=[diagnostics.to_text()] if diagnostics.fallbacks or diagnostics.errors else [],
    )


def cmd_bleu(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import evaluation

    hypotheses = inputs.lines(args.hypotheses)
    references = inputs.lines(args.references)
    lowercase = bool(args.lowercase)
    smooth = bool(args.smooth)
    score = evaluation.bleu(hypotheses, references, lowercase=lowercase, smooth=smooth)
    return _Result(
        [f"{score:.2f}"],
        {"lowercase": lowercase, "smooth": smooth},
        {"sentences": len(hypotheses)},
    )


def cmd_novel_forms(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import evaluation

    outputs = inputs.lines(args.input)
    train_lines = inputs.lines(args.train)
    sources = inputs.lines(args.source)
    references = inputs.lines(args.references)
    lowercase = bool(args.lowercase)
    vocab = {token for line in train_lines for token in tokenize(line)}
    report = evaluation.novel_forms(outputs, vocab, sources, references, lowercase)
    return _Result(
        [report.to_text()],
        {"lowercase": lowercase},
        {
            "novel_tokens": report.novel_tokens,
            "novel_types": report.novel_types,
            "confirmed": report.confirmed_by_reference,
        },
    )


def cmd_stats(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    from . import bpe

    if args.vocab:
        merges = GERMAN_DEFAULT_MERGES if args.merges is None else args.merges
        variants = []
        for path in args.vocab:
            tokens = [token for line in inputs.lines(path) for token in tokenize(line)]
            variants.append((path, tokens, bpe.learn_bpe(tokens, merges)))
        report = bpe.vocab_stats(variants)
        return _Result([report.to_text()], {}, {"variants": len(variants)})
    if args.word_ends is not None:
        lines = inputs.lines(args.word_ends)
        fragments = bpe.word_end_fragment_stats(lines)
        out = [f"{count}\t{fragment}" for fragment, count in fragments]
        return _Result(out, {}, {"fragments": len(fragments)})
    raise CliError("choose --vocab FILES or --word-ends [FILE]")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, handler, output: bool) -> None:
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--manifest", help="write the run manifest to this path")
    if output:
        sub.add_argument("--output", "-o", help="output file (default: stdout)")
    sub.set_defaults(handler=handler)


def _add_mode_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=PIPELINE_MODES)
    sub.add_argument("--lexicon", help="lexicon TSV file")


def _prepare_options(p: argparse.ArgumentParser) -> None:
    _add_mode_options(p)
    p.add_argument("--merges", type=int, help="BPE merge budget")
    p.add_argument("--maxlen", type=int)
    p.add_argument("--minlen", type=int)
    p.add_argument("--sample-size", type=int, dest="sample_size")
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--protect-tags",
        action=argparse.BooleanOptionalAction,
        dest="protect_tags",
        default=None,
        help="never let BPE split tag tokens",
    )
    p.add_argument(
        "--joint-bpe",
        action=argparse.BooleanOptionalAction,
        dest="joint_bpe",
        default=None,
        help="learn one merge table over both sides (default) or per side",
    )
    p.add_argument(
        "--split-source-hyphens",
        action=argparse.BooleanOptionalAction,
        dest="split_source_hyphens",
        default=None,
    )
    p.add_argument("--source", help="source-side file")
    p.add_argument("--target", help="target-side file (default: stdin)")
    p.add_argument("--parse-tags", dest="parse_tags", help="per-token target parse tags, one line per sentence")
    p.add_argument("--source-tags", dest="source_tags", help="per-token source tags to interleave")
    p.add_argument("--filter", action="store_true", help="apply length filtering (and sampling)")
    p.add_argument("--out-source", dest="out_source")
    p.add_argument("--out-target", dest="output", metavar="OUT_TARGET", help="default: stdout")
    p.add_argument("--merge-table-out", dest="merge_table_out")


def _bpe_learn_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--merges", type=int)
    p.add_argument("input", nargs="?")


def _bpe_apply_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--merge-table", dest="merge_table")
    p.add_argument("--mode", choices=PIPELINE_MODES)
    p.add_argument(
        "--protect-tags",
        action=argparse.BooleanOptionalAction,
        dest="protect_tags",
        default=None,
    )
    p.add_argument("input", nargs="?")


def _input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?")


def _analyze_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lexicon")
    p.add_argument("input", nargs="?", help="one surface form per line")


def _lexicon_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lexicon")
    p.add_argument("input", nargs="?")


def _split_compounds_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", nargs="?", help="lines of stem||feature analysis tokens")


def _translate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", help="backend command line (e.g. 'cat')")
    p.add_argument("input", nargs="?")


def _postprocess_options(p: argparse.ArgumentParser) -> None:
    _add_mode_options(p)
    p.add_argument("--jobs", type=int)
    p.add_argument("input", nargs="?")


def _bleu_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--lowercase",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument(
        "--smooth",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument("hypotheses")
    p.add_argument("references")


def _novel_forms_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--train", required=True, help="training target corpus")
    p.add_argument("--source", required=True, help="aligned source sentences")
    p.add_argument("--references", required=True, help="aligned references")
    p.add_argument(
        "--lowercase",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument("input", nargs="?", help="system output (default: stdin)")


def _stats_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", nargs="+", help="corpus variant files")
    p.add_argument("--merges", type=int, help="BPE budget for --vocab")
    p.add_argument(
        "--word-ends",
        nargs="?",
        const="-",
        dest="word_ends",
        help="segmented corpus (default: stdin)",
    )


# name -> (help, options, handler, has --output), in the order of --help
_COMMANDS = {
    "prepare": ("encode a corpus into a training representation", _prepare_options, cmd_prepare, False),
    "bpe-learn": ("learn a BPE merge table", _bpe_learn_options, cmd_bpe_learn, True),
    "bpe-apply": ("segment text with a merge table", _bpe_apply_options, cmd_bpe_apply, True),
    "bpe-revert": ("undo BPE segmentation", _input_options, cmd_bpe_revert, True),
    "analyze": ("list lexicon analyses of surface forms", _analyze_options, cmd_analyze, True),
    "generate": ("generate surface forms from lemma<TAB>tag lines", _lexicon_options, cmd_generate, True),
    "split-compounds": ("split compound analyses into sub-word tokens", _split_compounds_options,
                        cmd_split_compounds, True),
    "merge-compounds": ("reassemble split compounds into analyses", _lexicon_options,
                        cmd_merge_compounds, True),
    "translate": ("run the external translation backend", _translate_options, cmd_translate, True),
    "postprocess": ("turn backend output into surface text", _postprocess_options, cmd_postprocess, True),
    "bleu": ("corpus BLEU of hypotheses against references", _bleu_options, cmd_bleu, False),
    "novel-forms": ("count novel surface forms in output", _novel_forms_options, cmd_novel_forms, False),
    "stats": ("vocabulary and word-end fragment statistics", _stats_options, cmd_stats, False),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of ``command`` when it names
    one: all that a run of ``command`` needs, with the same usage, help and
    error messages."""
    parser = argparse.ArgumentParser(
        prog="morphmt",
        description="two-step morphology-aware MT corpus processing",
    )
    parser.add_argument("--version", action="version", version=f"morphmt {__version__}")
    parser.set_defaults(output=None)
    if command in _COMMANDS:
        # The top-level usage, printed for an unknown option, lists every
        # subcommand.  A full parser keeps the default metavar, because
        # argparse names the argument by its metavar in the errors for a
        # missing or unknown subcommand, which only a full parser reports.
        subs = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
        names = [command]
    else:
        subs = parser.add_subparsers(dest="command", required=True)
        names = list(_COMMANDS)
    for name in names:
        help_text, add_options, handler, output = _COMMANDS[name]
        p = subs.add_parser(name, help=help_text)
        add_options(p)
        _add_common(p, handler, output=output)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: the handler computes, this writes its output
    lines, side outputs, diagnostics and run manifest."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    inputs = _Inputs()
    try:
        config = {}
        if args.config is not None:
            # One file serves a pipeline: it may set any subcommand's options.
            config = load_config_file(args.config, config_keys(build_parser()))
        sub = _subcommands(parser)[args.command]
        apply_config(args, sub, config)
        check_one_stdout(args, sub)
        result = args.handler(args, inputs)
        write_lines(args.output, result.lines)
        for path, lines in result.side_outputs:
            write_lines(path, lines)
        for note in result.notes:
            print(note, file=sys.stderr)
        manifest = RunManifest(
            tool_version=__version__,
            command=args.command,
            config=result.config,
            input_checksums=inputs.checksums,
            counters=result.counters,
            seed=result.seed,
        )
        emit_manifest(manifest, args.output, args.manifest)
        return 0
    except Exception as exc:
        # Most library errors (bad tags, lexicon rows and streams,
        # dangling markers, empty corpora) are ValueErrors.
        if not isinstance(exc, (CliError, ValueError, OSError)) and not isinstance(
            exc, _loaded_library_errors()
        ):
            raise
        print(f"morphmt: error: {exc}", file=sys.stderr)
        return 1


def _loaded_library_errors() -> tuple[type[Exception], ...]:
    """The library errors that are not ValueErrors, from the modules
    loaded so far: a handler cannot have raised one from a module it
    never imported."""
    errors = []
    for module, name in (("morphlex", "NoCompatibleAnalysis"), ("backend", "BackendFailure")):
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            errors.append(getattr(loaded, name))
    return tuple(errors)


def run() -> NoReturn:
    """Run :func:`main` as a process and exit with its code.

    On a normal return, flush standard output and standard error and end
    with ``os._exit``.  A failed flush, or a profiler, tracer or other
    ``sys.monitoring`` tool that has yet to write its report, takes the
    ordinary exit instead, as do ``SystemExit`` and uncaught exceptions
    from :func:`main`.  A tool that reports only from an ``atexit`` hook
    should call :func:`main` instead."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None: its descriptor was closed at start
                stream.flush()
    except (OSError, ValueError):  # a closed pipe or stream
        sys.exit(code)
    # cProfile registers a sys.monitoring tool from Python 3.12 on, and no
    # longer sets sys.getprofile().
    monitoring = getattr(sys, "monitoring", None)
    if sys.gettrace() is not None or sys.getprofile() is not None or (
        monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))
    ):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
