"""End-to-end corpus pipeline: filter, prepare, translate, postprocess.

The pipeline turns a parallel corpus into one of five training
representations, hands the prepared text to an external line-oriented
translation backend, and deterministically turns the backend's output
back into inflected surface text:

    revert BPE -> rejoin split compounds (split mode) -> walk the stream
    -> merge compounds (German) -> generate surface forms (lemma fallback)

Each line's stream is walked once by :func:`interleave.walk`, which
yields the (tag, word) items, the orphan words and tags, and the first
strict well-formedness violation.  Every input line yields exactly one
output line; malformed segments are repaired rather than fatal (an
orphan word is emitted verbatim, an orphan tag is dropped, a stem that
cannot be parsed or merged is emitted verbatim) and all repairs,
generation fallbacks and well-formedness violations are reported
alongside the text, in one :class:`~morphmt.morphlex.Diagnostics`.
"""

from __future__ import annotations

import dataclasses
import random
import subprocess
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

from . import interleave
from .bpe import (
    MARKER,
    MergeTable,
    learn_bpe,
    revert_bpe,
    segment_line,
)
from .compounds import (
    CompoundSplit,
    is_separator_token,
    merge_stem,
    rejoin_split_tokens,
    split_compound,
)
from .morphlex import (
    Diagnostics,
    GenerationFailure,
    NoCompatibleAnalysis,
    ParadigmLexicon,
    analyze,
    disambiguate,
    generate_with_fallback,
)
from .tagsets import (
    MalformedAnalysis,
    MorphAnalysis,
    _remember,
    is_bare_token,
    is_czech_tag,
    is_feature_token,
    split_lines,
)

__all__ = [
    "MODE_GERMAN_STEMMED_SPLIT",
    "PIPELINE_MODES",
    "BackendFailure",
    "PipelineConfig",
    "ParallelCorpus",
    "PreparedVariant",
    "PostprocessResult",
    "filter_corpus",
    "prepare_variant",
    "translate_external",
    "postprocess",
    "tag_predicate_for_mode",
]

MODE_GERMAN_STEMMED_SPLIT = "german-stemmed-split"
PIPELINE_MODES = interleave.MODES + (MODE_GERMAN_STEMMED_SPLIT,)

CZECH_DEFAULT_MERGES = 49500
GERMAN_DEFAULT_MERGES = 29500
BASE_MAXLEN = 50
GERMAN_MINLEN = 5


class BackendFailure(RuntimeError):
    """The external translation backend misbehaved."""


def _base_mode(mode: str) -> str:
    """The interleaving mode underlying a pipeline mode."""
    if mode == MODE_GERMAN_STEMMED_SPLIT:
        return interleave.MODE_GERMAN_STEMMED
    return mode


def _is_german(mode: str) -> bool:
    return mode.startswith("german")


@dataclass
class PipelineConfig:
    """Run configuration; use :meth:`for_mode` for per-mode defaults.

    Interleaving a tag per word doubles sentence length, so interleaved
    modes default ``maxlen`` to twice the baseline value.
    """

    mode: str
    bpe_merges: int
    maxlen: int
    minlen: int = 1
    sample_size: int | None = None
    seed: int = 0
    protect_tags: bool = False
    joint_bpe: bool = True
    split_source_hyphens: bool = False
    lexicon_path: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in PIPELINE_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (self.maxlen >= self.minlen >= 1):
            raise ValueError(
                f"need maxlen >= minlen >= 1, got {self.maxlen} / {self.minlen}"
            )
        if self.bpe_merges < 0:
            raise ValueError("bpe_merges must be >= 0")

    @classmethod
    def for_mode(cls, mode: str, **overrides) -> PipelineConfig:
        values = dict(
            mode=mode,
            bpe_merges=GERMAN_DEFAULT_MERGES if _is_german(mode) else CZECH_DEFAULT_MERGES,
            maxlen=BASE_MAXLEN if mode == interleave.MODE_BASELINE else 2 * BASE_MAXLEN,
            minlen=GERMAN_MINLEN if _is_german(mode) else 1,
        )
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**values)

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ParallelCorpus:
    """Aligned (source line, target line) pairs."""

    pairs: list[tuple[str, str]]
    # The input pair index of each pair, kept through filter_corpus;
    # None means the pairs are the input, 0..n-1.
    _origin: list[int] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_lines(
        cls, source_lines: Sequence[str], target_lines: Sequence[str]
    ) -> ParallelCorpus:
        if len(source_lines) != len(target_lines):
            raise ValueError(
                f"misaligned corpus: {len(source_lines)} source lines "
                f"vs {len(target_lines)} target lines"
            )
        return cls(list(zip(source_lines, target_lines)))

    @property
    def sources(self) -> list[str]:
        return [s for s, _ in self.pairs]

    @property
    def targets(self) -> list[str]:
        return [t for _, t in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


def filter_corpus(corpus: ParallelCorpus, cfg: PipelineConfig) -> ParallelCorpus:
    """Keep pairs whose target length is within [minlen, maxlen] tokens.

    Bounds are inclusive.  When ``cfg.sample_size`` is set, a uniform
    random sample is drawn with ``cfg.seed``; sampled pairs keep their
    original corpus order.  The kept pairs remember their input pair
    index, which :func:`prepare_variant` reports and aligns tags by.
    """
    kept = [
        (index, pair)
        for index, pair in zip(corpus._origin or range(len(corpus)), corpus.pairs)
        if cfg.minlen <= len(pair[1].split()) <= cfg.maxlen
    ]
    if cfg.sample_size is not None and cfg.sample_size < len(kept):
        rng = random.Random(cfg.seed)
        indices = sorted(rng.sample(range(len(kept)), cfg.sample_size))
        kept = [kept[i] for i in indices]
    return ParallelCorpus([pair for _, pair in kept], [index for index, _ in kept])


# ---------------------------------------------------------------------------
# Variant preparation
# ---------------------------------------------------------------------------


def _is_german_tag_token(token: str) -> bool:
    return is_feature_token(token) or is_bare_token(token) or is_separator_token(token)


def tag_predicate_for_mode(mode: str) -> Callable[[str], bool]:
    """Predicate marking tag-like tokens for BPE protection.

    A module-level function, so it is the same object on every call
    (``segment_line`` keys its memo by it).
    """
    return _is_german_tag_token if _is_german(mode) else is_czech_tag


@dataclass
class PreparedVariant:
    """Output of :func:`prepare_variant`."""

    corpus: ParallelCorpus
    source_table: MergeTable
    target_table: MergeTable
    dropped: list[tuple[int, str]] = field(default_factory=list)


def _analysis_for(lex: ParadigmLexicon, token: str, parse_tag: str | None) -> MorphAnalysis:
    """The analysis of one token, disambiguated when a parse tag is given.

    Without a parse tag the first candidate in canonical order is taken;
    every candidate of a surface regenerates that same surface, so the
    choice never affects round-tripping.
    """
    candidates = analyze(lex, token)
    if not candidates:
        raise MalformedAnalysis(f"no analysis for {token!r}")
    return candidates[0] if parse_tag is None else disambiguate(candidates, parse_tag)


def _encode_analysis(a: MorphAnalysis, mode: str) -> tuple[str, ...]:
    if mode == MODE_GERMAN_STEMMED_SPLIT:
        # A bare analysis is not inflected, so split_compound returns it.
        split = split_compound(a.to_german_analysis())
        if isinstance(split, CompoundSplit):
            return split.tokens
    return interleave.encode([a], _base_mode(mode)).tokens


_Dropped = MalformedAnalysis | NoCompatibleAnalysis
_Encoded = tuple[str, ...] | _Dropped


def _encode_tokens(
    lex: ParadigmLexicon,
    tokens: list[str],
    parse_tags: list[str] | None,
    mode: str,
    memo: dict[tuple[str, str | None], _Encoded],
) -> list[str] | _Dropped:
    """The encoded target tokens of one sentence, or why it is dropped.

    ``memo`` maps (token, parse tag or None) to the token's encoding or
    to its analysis failure, so each distinct pair is analysed and
    encoded once.  As when every token is analysed before any is
    encoded, an analysis failure drops the sentence even after a token
    whose encoding raised; that error is raised only when no later token
    drops the sentence.
    """
    if parse_tags is not None and len(parse_tags) != len(tokens):
        raise ValueError(
            f"{len(tokens)} tokens but {len(parse_tags)} parse tags"
        )
    out: list[str] = []
    encoding_error = None
    for key in zip(tokens, repeat(None) if parse_tags is None else parse_tags):
        entry = memo.get(key)
        if entry is None:
            try:
                analysis = _analysis_for(lex, *key)
            except (MalformedAnalysis, NoCompatibleAnalysis) as exc:
                entry = _remember(memo, key, exc.with_traceback(None))
            else:
                try:
                    entry = _remember(memo, key, _encode_analysis(analysis, mode))
                except ValueError as exc:
                    encoding_error = encoding_error or exc
                    continue
        if isinstance(entry, Exception):
            return entry
        out += entry
    if encoding_error is not None:
        raise encoding_error
    return out


def _split_hyphens(tokens: list[str]) -> list[str]:
    """Aggressive source-side hyphen splitting (optional normalization)."""
    out: list[str] = []
    for token in tokens:
        if "-" in token.strip("-"):
            parts = token.split("-")
            for i, part in enumerate(parts):
                out.append(part + "-" if i < len(parts) - 1 else part)
        else:
            out.append(token)
    return out


def prepare_variant(
    corpus: ParallelCorpus,
    cfg: PipelineConfig,
    lex: ParadigmLexicon | None = None,
    target_parse_tags: Sequence[list[str]] | None = None,
    source_tags: Sequence[list[str]] | None = None,
) -> PreparedVariant:
    """Encode the target side per mode, learn BPE on the result, apply it.

    Baseline mode passes the target through untouched except for BPE and
    needs no lexicon.  Sentences whose target cannot be analysed (or
    disambiguated against the supplied parse tags) are dropped and
    recorded in ``dropped`` as (original pair index, reason).  Source
    tags, when given, are interleaved into the source side; hyphen
    splitting (``cfg.split_source_hyphens``) runs before tagging, so
    source tags must align with the split tokens.  Parse tags and source
    tags are indexed by original pair index, so they stay aligned with
    the input when ``corpus`` comes from :func:`filter_corpus`.  Each
    distinct (target token, parse tag) pair is analysed and encoded once
    per call.
    """
    if cfg.mode != interleave.MODE_BASELINE and lex is None:
        raise ValueError(f"mode {cfg.mode!r} needs a lexicon")
    encoded: list[tuple[str, str]] = []
    dropped: list[tuple[int, str]] = []
    memo: dict[tuple[str, str | None], _Encoded] = {}
    for index, (source, target) in zip(corpus._origin or range(len(corpus)), corpus.pairs):
        target_tokens = target.split()
        if cfg.mode == interleave.MODE_BASELINE:
            target_out = target_tokens
        else:
            tags = target_parse_tags[index] if target_parse_tags is not None else None
            target_out = _encode_tokens(lex, target_tokens, tags, cfg.mode, memo)
            if isinstance(target_out, Exception):
                dropped.append((index, str(target_out)))
                continue
        source_tokens = source.split()
        if cfg.split_source_hyphens:
            source_tokens = _split_hyphens(source_tokens)
        if source_tags is not None:
            source_tokens = interleave.tag_source(source_tokens, source_tags[index])
        encoded.append((" ".join(source_tokens), " ".join(target_out)))
    # Freed before BPE is learned: kept alive through learn_bpe, the memo
    # slowed learning on the Czech benchmark corpus (not with gc disabled).
    del memo

    protected = tag_predicate_for_mode(cfg.mode) if cfg.protect_tags else None
    source_lines = [s for s, _ in encoded]
    target_lines = [t for _, t in encoded]

    def tokens_of(lines: list[str]) -> list[str]:
        return [token for line in lines for token in line.split()]

    if cfg.joint_bpe:
        table = learn_bpe(tokens_of(source_lines + target_lines), cfg.bpe_merges)
        source_table = target_table = table
    else:
        source_table = learn_bpe(tokens_of(source_lines), cfg.bpe_merges)
        target_table = learn_bpe(tokens_of(target_lines), cfg.bpe_merges)

    pairs = [
        (
            segment_line(source_table, s, protected),
            segment_line(target_table, t, protected),
        )
        for s, t in encoded
    ]
    return PreparedVariant(ParallelCorpus(pairs), source_table, target_table, dropped)


# ---------------------------------------------------------------------------
# External backend
# ---------------------------------------------------------------------------


def translate_external(
    lines: list[str],
    backend: Sequence[str] | Callable[[list[str]], list[str]],
) -> list[str]:
    """Run the translation backend over prepared lines.

    ``backend`` is either a callable (for in-process mocks) or an argv
    sequence for a process that reads input lines on stdin and writes
    exactly one output line per input line to stdout.  The identity
    backend ``["cat"]`` is supported for testing.  Raises
    :class:`BackendFailure` on nonzero exit or line-count mismatch.
    """
    if callable(backend):
        output = list(backend(list(lines)))
    else:
        # Bytes, not text mode: text mode would read a lone \r as a line end.
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        try:
            proc = subprocess.run(list(backend), input=data, capture_output=True)
        except OSError as exc:
            raise BackendFailure(f"cannot run backend {backend!r}: {exc}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            raise BackendFailure(f"backend exited with {proc.returncode}: {stderr}")
        output = split_lines(proc.stdout.decode("utf-8"))
    if len(output) != len(lines):
        raise BackendFailure(
            f"backend wrote {len(output)} lines for {len(lines)} inputs"
        )
    return output


# ---------------------------------------------------------------------------
# Postprocessing
# ---------------------------------------------------------------------------

EVENT_DROPPED_TAG = interleave.EVENT_DROPPED_TAG
EVENT_WORD_WITHOUT_TAG = interleave.EVENT_WORD_WITHOUT_TAG
EVENT_DANGLING_MARKER = "dangling-marker"
EVENT_ORPHAN_SEPARATOR = "orphan-separator"
EVENT_UNPARSEABLE_STEM = "unparseable-stem"


@dataclass
class PostprocessResult:
    """Surface text plus every diagnostic collected on the way."""

    lines: list[str]
    diagnostics: Diagnostics


def _revert_lenient(tokens: list[str], repairs: list[tuple[int, int, str]]) -> list[str]:
    """Revert BPE after stripping dangling markers off the last token, in place.

    Each stripped marker is one repair at the last token; a last token
    that was only markers is dropped.
    """
    if not tokens:
        return []
    last = tokens[-1]
    while last.endswith(MARKER):
        repairs.append((0, len(tokens) - 1, EVENT_DANGLING_MARKER))
        last = last[: -len(MARKER)]
    tokens[-1] = last
    words = revert_bpe(tokens)
    if not words[-1]:
        # The empty token was not joined to a marked word before it.
        words.pop()
    return words


# What merging and generating one German (stem, tag) pair records: the
# surface (None when the stem does not parse), the unknown modifiers and
# the generation failure, if any.
_StemOutcome = tuple[str | None, tuple[str, ...], GenerationFailure | None]


def _stem_outcome(item: interleave.Item, lex: ParadigmLexicon) -> _StemOutcome:
    unknown_modifiers: list[str] = []
    try:
        analysis, _ = merge_stem(item.word, item.features, lex, unknown_modifiers)
    except MalformedAnalysis:
        return None, tuple(unknown_modifiers), None
    generated = Diagnostics()
    surface = generate_with_fallback(lex, analysis.stem_text, item.tag, generated)
    failure = generated.fallbacks[0][1] if generated.fallbacks else None
    return surface, tuple(unknown_modifiers), failure


def postprocess_line(
    line: str,
    mode: str,
    lex: ParadigmLexicon | None,
    memo: dict[tuple[str, str], _StemOutcome],
) -> tuple[str, Diagnostics]:
    """Deterministically turn one backend output line into surface text.

    The diagnostics cover this one line, so every record is at line 0.
    German (stem, tag) pairs are merged and generated once per distinct
    pair in ``memo``; each occurrence replays the recorded outcome.
    """
    diagnostics = Diagnostics()
    repairs = diagnostics.repairs
    tokens = _revert_lenient(line.split(), repairs)

    if mode == interleave.MODE_BASELINE:
        diagnostics.lines = 1
        return " ".join(tokens), diagnostics

    if mode == MODE_GERMAN_STEMMED_SPLIT:
        tokens, orphans = rejoin_split_tokens(tokens)
        repairs.extend((0, pos, EVENT_ORPHAN_SEPARATOR) for pos, _ in orphans)

    stream = interleave.walk(tokens, _base_mode(mode))
    if stream.error is not None:
        diagnostics.errors.append((0, stream.error.kind, stream.error.position))

    words: list[str] = []
    unknown_modifiers: list[str] = []
    for item in stream.items:
        if item.kind == EVENT_DROPPED_TAG:
            repairs.append((0, item.position, item.kind))
        elif item.kind == EVENT_WORD_WITHOUT_TAG:
            repairs.append((0, item.position, item.kind))
            words.append(item.word)
        elif item.kind == interleave.ITEM_BARE or mode == interleave.MODE_SERIALIZATION:
            words.append(item.word)
        elif mode == interleave.MODE_MORPHGEN:
            words.append(generate_with_fallback(lex, item.word, item.tag, diagnostics))
        else:
            outcome = memo.get((item.word, item.tag))
            if outcome is None:
                outcome = _remember(memo, (item.word, item.tag), _stem_outcome(item, lex))
            surface, modifiers, failure = outcome
            unknown_modifiers += modifiers
            if surface is None:
                repairs.append((0, item.position, EVENT_UNPARSEABLE_STEM))
                words.append(item.word)
                continue
            diagnostics.generated += 1
            if failure is not None:
                diagnostics.fallbacks.append((0, failure))
            words.append(surface)
    diagnostics.unknown_modifiers = [(0, lexeme) for lexeme in unknown_modifiers]
    diagnostics.lines = 1
    return " ".join(words), diagnostics


def _postprocess_lines(
    lines: list[str], mode: str, lex: ParadigmLexicon | None
) -> PostprocessResult:
    memo: dict[tuple[str, str], _StemOutcome] = {}
    result = PostprocessResult([], Diagnostics())
    for line in lines:
        text, diagnostics = postprocess_line(line, mode, lex, memo)
        result.lines.append(text)
        result.diagnostics.merge(diagnostics)
    return result


def postprocess(
    lines: list[str],
    cfg: PipelineConfig,
    lex: ParadigmLexicon | None = None,
    jobs: int = 1,
) -> PostprocessResult:
    """Postprocess backend output back to inflected surface sentences.

    Baseline mode is exactly BPE reversion; serialization needs no
    lexicon either, as its word tokens are already surface forms.  Every
    input line yields an output line; see the module docstring for the
    recovery rules.  German (stem, tag) pairs are merged and generated
    once per distinct pair, in a memo that lives for one call.  With
    ``jobs > 1`` the lines are cut into chunks spread over that many
    worker processes; the lexicon is pickled with every chunk, and each
    chunk starts with an empty memo.  The process pool (and
    ``multiprocessing``) is imported only then.
    """
    needs_lexicon = cfg.mode not in (
        interleave.MODE_BASELINE,
        interleave.MODE_SERIALIZATION,
    )
    if needs_lexicon and lex is None:
        raise ValueError(f"mode {cfg.mode!r} needs a lexicon")
    if jobs <= 1 or len(lines) <= 1:
        return _postprocess_lines(lines, cfg.mode, lex)
    from concurrent.futures import ProcessPoolExecutor

    size = max(1, len(lines) // (jobs * 4))
    chunks = [lines[start : start + size] for start in range(0, len(lines), size)]
    worker = partial(_postprocess_lines, mode=cfg.mode, lex=lex)
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        parts = list(executor.map(worker, chunks))
    result = PostprocessResult([], Diagnostics())
    for part in parts:
        result.lines += part.lines
        result.diagnostics.merge(part.diagnostics)
    return result
