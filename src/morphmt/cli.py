"""Command-line interface: one subcommand per pipeline stage.

Every subcommand reads standard input when no input file is given and
writes results to standard output, with diagnostics on standard error,
so stages can be piped together.  All text I/O is strict UTF-8; invalid
byte sequences abort with a diagnostic.  A run manifest (configuration,
seed, input checksums, per-stage counters) is emitted for every run:
next to the output file when one is written, to standard error
otherwise.

A handler only computes: it reads its inputs through :class:`_Inputs`
and returns a :class:`_Result`.  :func:`main` writes the result, the
diagnostics and the manifest.

Configuration precedence is flags > config file (``key=value`` lines,
``--config``; each key names an option of some subcommand) > built-in
defaults.  The config file fills in the options that the command line
leaves unset, before the handler runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from . import bpe as bpe_mod
from . import evaluation, interleave, morphlex, pipeline
from .compounds import CompoundSplit, merge_stem, rejoin_split_tokens, split_compound
from .tagsets import (
    MalformedAnalysis,
    MalformedTag,
    format_analysis,
    format_tag,
    parse_german_analysis,
    split_lines,
)

__all__ = ["main", "RunManifest"]


class CliError(RuntimeError):
    """Operational failure reported with a diagnostic and exit code 1."""


@dataclass
class RunManifest:
    """Everything needed to reproduce a run byte-for-byte."""

    tool_version: str
    command: str
    config: dict
    input_checksums: dict[str, str]
    counters: dict[str, int] = field(default_factory=dict)
    seed: int | None = None

    def to_json(self, compact: bool = False) -> str:
        data = dataclasses.asdict(self)
        if compact:
            return json.dumps(data, ensure_ascii=False, sort_keys=True)
        return json.dumps(data, ensure_ascii=False, sort_keys=True, indent=2)


@dataclass
class _Result:
    """What a handler computed: output lines, manifest fields, diagnostics."""

    lines: list[str]
    config: dict
    counters: dict[str, int]
    seed: int | None = None
    notes: list[str] = field(default_factory=list)  # printed to stderr
    side_outputs: list[tuple[str, list[str]]] = field(default_factory=list)  # (path, lines)


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


class _Inputs:
    """Reads the inputs of one run and records the SHA-256 of each."""

    def __init__(self) -> None:
        self.checksums: dict[str, str] = {}

    def text(self, path: str | None) -> str:
        if path is None or path == "-":
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
    text = "".join(line + "\n" for line in lines)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def emit_manifest(manifest: RunManifest, output_path: str | None, manifest_path: str | None) -> None:
    if manifest_path is not None:
        Path(manifest_path).write_text(manifest.to_json() + "\n", encoding="utf-8")
        return
    if output_path is not None and output_path != "-":
        sidecar = Path(output_path).with_name(Path(output_path).name + ".manifest.json")
        sidecar.write_text(manifest.to_json() + "\n", encoding="utf-8")
        return
    print(manifest.to_json(compact=True), file=sys.stderr)


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


def load_config_file(path: str | None, keys: set[str]) -> dict[str, str]:
    if path is None:
        return {}
    values: dict[str, str] = {}
    # Bytes, not read_text: text mode would end a line at a lone \r.
    for lineno, line in enumerate(split_lines(Path(path).read_bytes().decode("utf-8")), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
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
            value = [cast(item) for item in raw.split()]
        else:
            value = cast(raw)
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise CliError(f"{args.config}: {action.dest}: invalid choice: {raw!r} (choose from {choices})")
        setattr(args, action.dest, value)


def _load_lexicon(path: str | None, inputs: _Inputs) -> morphlex.ParadigmLexicon:
    if path is None:
        raise CliError("a lexicon is required (--lexicon)")
    return morphlex.load_lexicon(inputs.text(path))


def _pipeline_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    if args.mode is None:
        raise CliError("a mode is required (--mode)")
    return pipeline.PipelineConfig.for_mode(
        args.mode,
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
    return [line.split() for line in inputs.lines(path)]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_prepare(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    cfg = _pipeline_config(args)
    lex = None
    if cfg.mode != interleave.MODE_BASELINE:
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
    kept = corpus
    if args.filter or cfg.sample_size is not None:
        kept = pipeline.filter_corpus(corpus, cfg)
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
        if args.merge_table_out not in (None, "-"):
            # Next to the target table, like the OUT.manifest.json sidecar.
            side_outputs.append(
                (args.merge_table_out + ".source", [prepared.source_table.to_text()])
            )
    return _Result(
        prepared.corpus.targets,
        cfg.snapshot(),
        counters,
        seed=cfg.seed,
        notes=[f"morphmt: dropped pair {index}: {reason}" for index, reason in prepared.dropped],
        side_outputs=side_outputs,
    )


def cmd_bpe_learn(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    if args.merges is None:
        raise CliError("--merges is required")
    lines = inputs.lines(args.input)
    table = bpe_mod.learn_bpe(
        (token for line in lines for token in line.split()), args.merges
    )
    return _Result(split_lines(table.to_text()), {"merges": args.merges}, {"merges_learned": len(table)})


def cmd_bpe_apply(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    if args.merge_table is None:
        raise CliError("--merge-table is required")
    table = bpe_mod.MergeTable.from_text(inputs.text(args.merge_table))
    protect = bool(args.protect_tags)
    if protect and args.mode is None:
        raise CliError("--protect-tags needs --mode to pick the tag shape")
    protected = pipeline.tag_predicate_for_mode(args.mode) if protect else None
    lines = inputs.lines(args.input)
    out = [bpe_mod.segment_line(table, line, protected) for line in lines]
    return _Result(
        out,
        {"merge_table": args.merge_table, "protect_tags": protect, "mode": args.mode},
        {"lines": len(lines)},
    )


def cmd_bpe_revert(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    out = []
    for lineno, line in enumerate(inputs.lines(args.input), 1):
        try:
            out.append(" ".join(bpe_mod.revert_bpe(line.split())))
        except bpe_mod.DanglingMarker as exc:
            raise CliError(f"line {lineno}: {exc}") from exc
    return _Result(out, {}, {"lines": len(out)})


def cmd_analyze(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    lex = _load_lexicon(args.lexicon, inputs)
    lines = inputs.lines(args.input)
    out = []
    unknown = 0
    for surface in lines:
        surface = surface.strip()
        if not surface:
            continue
        candidates = morphlex.analyze(lex, surface)
        if not candidates:
            unknown += 1
        for candidate in candidates:
            out.append(f"{surface}\t{candidate.lemma}\t{candidate.tag_text}")
    return _Result(
        out,
        {"lexicon": args.lexicon},
        {"surfaces": len(lines), "unknown": unknown},
    )


def cmd_generate(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    lex = _load_lexicon(args.lexicon, inputs)
    diagnostics = morphlex.Diagnostics()
    out = []
    for index, line in enumerate(inputs.lines(args.input)):
        lineno = index + 1
        if not line.strip():
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
    out = []
    split_count = 0
    for lineno, line in enumerate(inputs.lines(args.input), 1):
        tokens: list[str] = []
        for token in line.split():
            try:
                analysis = parse_german_analysis(token)
            except MalformedAnalysis as exc:
                raise CliError(f"line {lineno}: {exc}") from exc
            if not analysis.inflected:
                tokens.append(format_analysis(analysis))
                continue
            result = split_compound(analysis)
            if isinstance(result, CompoundSplit):
                split_count += 1
                tokens.extend(result.tokens)
            else:
                tokens.append(result.stem_text)
                tokens.append(format_tag(result.feature_seq))
        out.append(" ".join(tokens))
    return _Result(out, {}, {"lines": len(out), "compounds_split": split_count})


def cmd_merge_compounds(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    lex = _load_lexicon(args.lexicon, inputs)
    out = []
    unknown_modifiers: list[str] = []
    merged_count = 0
    for line in inputs.lines(args.input):
        tokens, _ = rejoin_split_tokens(line.split())
        result_tokens: list[str] = []
        for item in interleave.walk(tokens, interleave.MODE_GERMAN_STEMMED).items:
            if item.kind != interleave.ITEM_PAIR:
                # Bare tokens, orphan words and orphan tags pass through.
                result_tokens.append(tokens[item.position])
                continue
            analysis, merged = merge_stem(item.word, item.features, lex, unknown_modifiers)
            merged_count += merged
            result_tokens.append(format_analysis(analysis))
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
    if args.backend is None:
        raise CliError("--backend is required")
    lines = inputs.lines(args.input)
    out = pipeline.translate_external(lines, shlex.split(args.backend))
    return _Result(out, {"backend": args.backend}, {"lines": len(lines)})


def cmd_postprocess(args: argparse.Namespace, inputs: _Inputs) -> _Result:
    cfg = _pipeline_config(args)
    lex = None
    if cfg.mode not in (interleave.MODE_BASELINE, interleave.MODE_SERIALIZATION):
        lex = _load_lexicon(cfg.lexicon_path, inputs)
    lines = inputs.lines(args.input)
    result = pipeline.postprocess(lines, cfg, lex, jobs=args.jobs or 1)
    diagnostics = result.diagnostics
    return _Result(
        result.lines,
        cfg.snapshot(),
        {
            "lines": diagnostics.lines,
            "generated": diagnostics.generated,
            "fallbacks": len(diagnostics.fallbacks),
            "malformed_lines": diagnostics.malformed_lines,
            "recovery_events": len(diagnostics.repairs),
            "unknown_modifiers": len(diagnostics.unknown_modifiers),
        },
        seed=cfg.seed,
        notes=[diagnostics.to_text()] if diagnostics.fallbacks or diagnostics.errors else [],
    )


def cmd_bleu(args: argparse.Namespace, inputs: _Inputs) -> _Result:
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
    outputs = inputs.lines(args.input)
    train_lines = inputs.lines(args.train)
    sources = inputs.lines(args.source)
    references = inputs.lines(args.references)
    lowercase = bool(args.lowercase)
    vocab = {token for line in train_lines for token in line.split()}
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
    if args.vocab:
        merges = pipeline.GERMAN_DEFAULT_MERGES if args.merges is None else args.merges
        variants = []
        for path in args.vocab:
            tokens = [token for line in inputs.lines(path) for token in line.split()]
            variants.append((path, tokens, bpe_mod.learn_bpe(tokens, merges)))
        report = bpe_mod.vocab_stats(variants)
        return _Result([report.to_text()], {}, {"variants": len(variants)})
    if args.word_ends is not None:
        lines = inputs.lines(args.word_ends)
        fragments = bpe_mod.word_end_fragment_stats(lines)
        out = [f"{count}\t{fragment}" for fragment, count in fragments]
        return _Result(out, {}, {"fragments": len(fragments)})
    raise CliError("choose --vocab FILES or --word-ends [FILE]")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, handler, output: bool = True) -> None:
    sub.add_argument("--config", help="key=value configuration file")
    sub.add_argument("--manifest", help="write the run manifest to this path")
    if output:
        sub.add_argument("--output", "-o", help="output file (default: stdout)")
    sub.set_defaults(handler=handler)


def _add_pipeline_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mode", choices=pipeline.PIPELINE_MODES)
    sub.add_argument("--lexicon", help="lexicon TSV file")
    sub.add_argument("--merges", type=int, help="BPE merge budget")
    sub.add_argument("--maxlen", type=int)
    sub.add_argument("--minlen", type=int)
    sub.add_argument("--sample-size", type=int, dest="sample_size")
    sub.add_argument("--seed", type=int)
    sub.add_argument(
        "--protect-tags",
        action=argparse.BooleanOptionalAction,
        dest="protect_tags",
        default=None,
        help="never let BPE split tag tokens",
    )
    sub.add_argument(
        "--joint-bpe",
        action=argparse.BooleanOptionalAction,
        dest="joint_bpe",
        default=None,
        help="learn one merge table over both sides (default) or per side",
    )
    sub.add_argument(
        "--split-source-hyphens",
        action=argparse.BooleanOptionalAction,
        dest="split_source_hyphens",
        default=None,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphmt",
        description="two-step morphology-aware MT corpus processing",
    )
    parser.add_argument("--version", action="version", version=f"morphmt {__version__}")
    parser.set_defaults(output=None)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("prepare", help="encode a corpus into a training representation")
    _add_pipeline_options(p)
    p.add_argument("--source", help="source-side file")
    p.add_argument("--target", help="target-side file (default: stdin)")
    p.add_argument("--parse-tags", dest="parse_tags", help="per-token target parse tags, one line per sentence")
    p.add_argument("--source-tags", dest="source_tags", help="per-token source tags to interleave")
    p.add_argument("--filter", action="store_true", help="apply length filtering (and sampling)")
    p.add_argument("--out-source", dest="out_source")
    p.add_argument("--out-target", dest="output", metavar="OUT_TARGET", help="default: stdout")
    p.add_argument("--merge-table-out", dest="merge_table_out")
    _add_common(p, cmd_prepare, output=False)

    p = subs.add_parser("bpe-learn", help="learn a BPE merge table")
    p.add_argument("--merges", type=int)
    p.add_argument("input", nargs="?")
    _add_common(p, cmd_bpe_learn)

    p = subs.add_parser("bpe-apply", help="segment text with a merge table")
    p.add_argument("--merge-table", dest="merge_table")
    p.add_argument("--mode", choices=pipeline.PIPELINE_MODES)
    p.add_argument(
        "--protect-tags",
        action=argparse.BooleanOptionalAction,
        dest="protect_tags",
        default=None,
    )
    p.add_argument("input", nargs="?")
    _add_common(p, cmd_bpe_apply)

    p = subs.add_parser("bpe-revert", help="undo BPE segmentation")
    p.add_argument("input", nargs="?")
    _add_common(p, cmd_bpe_revert)

    p = subs.add_parser("analyze", help="list lexicon analyses of surface forms")
    p.add_argument("--lexicon")
    p.add_argument("input", nargs="?", help="one surface form per line")
    _add_common(p, cmd_analyze)

    p = subs.add_parser("generate", help="generate surface forms from lemma<TAB>tag lines")
    p.add_argument("--lexicon")
    p.add_argument("input", nargs="?")
    _add_common(p, cmd_generate)

    p = subs.add_parser("split-compounds", help="split compound analyses into sub-word tokens")
    p.add_argument("input", nargs="?", help="lines of stem||feature analysis tokens")
    _add_common(p, cmd_split_compounds)

    p = subs.add_parser("merge-compounds", help="reassemble split compounds into analyses")
    p.add_argument("--lexicon")
    p.add_argument("input", nargs="?")
    _add_common(p, cmd_merge_compounds)

    p = subs.add_parser("translate", help="run the external translation backend")
    p.add_argument("--backend", help="backend command line (e.g. 'cat')")
    p.add_argument("input", nargs="?")
    _add_common(p, cmd_translate)

    p = subs.add_parser("postprocess", help="turn backend output into surface text")
    _add_pipeline_options(p)
    p.add_argument("--jobs", type=int)
    p.add_argument("input", nargs="?")
    _add_common(p, cmd_postprocess)

    p = subs.add_parser("bleu", help="corpus BLEU of hypotheses against references")
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
    _add_common(p, cmd_bleu, output=False)

    p = subs.add_parser("novel-forms", help="count novel surface forms in output")
    p.add_argument("--train", required=True, help="training target corpus")
    p.add_argument("--source", required=True, help="aligned source sentences")
    p.add_argument("--references", required=True, help="aligned references")
    p.add_argument(
        "--lowercase",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument("input", nargs="?", help="system output (default: stdin)")
    _add_common(p, cmd_novel_forms, output=False)

    p = subs.add_parser("stats", help="vocabulary and word-end fragment statistics")
    p.add_argument("--vocab", nargs="+", help="corpus variant files")
    p.add_argument("--merges", type=int, help="BPE budget for --vocab")
    p.add_argument(
        "--word-ends",
        nargs="?",
        const="-",
        dest="word_ends",
        help="segmented corpus (default: stdin)",
    )
    _add_common(p, cmd_stats, output=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: the handler computes, this writes its output
    lines, side outputs, diagnostics and run manifest."""
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = _Inputs()
    try:
        config = load_config_file(args.config, config_keys(parser))
        apply_config(args, _subcommands(parser)[args.command], config)
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
    except (
        CliError,
        MalformedTag,
        MalformedAnalysis,
        morphlex.LexiconConflict,
        morphlex.LexiconParse,
        morphlex.NoCompatibleAnalysis,
        interleave.WellformednessError,
        interleave.LengthMismatch,
        bpe_mod.DanglingMarker,
        pipeline.BackendFailure,
        evaluation.EmptyCorpus,
        ValueError,
        OSError,
    ) as exc:
        print(f"morphmt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
