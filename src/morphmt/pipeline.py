"""End-to-end corpus pipeline: filter, prepare, postprocess.

The pipeline turns a parallel corpus into one of five training
representations, each target word encoded from the lexicon row key,
(tag text, lemma), chosen for it.  The prepared text goes to an external
line-oriented translation backend (:mod:`morphmt.backend`, which the
``translate`` stage loads on its own), and the pipeline deterministically
turns the backend's output back into inflected surface text:

    revert BPE -> rejoin split compounds (split mode) -> walk the stream
    -> merge compounds (German) -> generate surface forms (lemma fallback)

A normalized line is reverted on its text; any other line is split on
whitespace first.  Each line's stream is walked once by
:func:`interleave.walk`, which yields the pairs (as runs in the Czech
modes, each generated a column at a time), the orphan words and tags,
and the first strict well-formedness violation.  Every input line
yields exactly one output line; malformed segments are repaired rather
than fatal (an orphan word is emitted verbatim, an orphan tag is
dropped, a stem that cannot be parsed or merged is emitted verbatim) and
all repairs, generation fallbacks and well-formedness violations are reported
alongside the text, in one :class:`~morphmt.morphlex.Diagnostics`.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import repeat
from typing import Sequence

from . import Record, interleave
from .bpe import (
    MARKER,
    MergeTable,
    learn_bpe,
    revert_bpe,
    segment_line,
)
from .compounds import merge_stem, rejoin_split_tokens, split_tokens
from .conventions import (
    CZECH_DEFAULT_MERGES,
    GERMAN_DEFAULT_MERGES,
    MODE_GERMAN_STEMMED_SPLIT,
    PIPELINE_MODES,
)
from .morphlex import (
    Diagnostics,
    GenerationFailure,
    NoCompatibleAnalysis,
    ParadigmLexicon,
    generate,
    generate_with_fallback,
    select_analysis,
    strip_markup,
)
from .tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    _remember,
    classify_german_tokens,
    parse_stem_side,
    tag_predicate_for_mode,
    KIND_BARE,
)

__all__ = [
    "MODE_GERMAN_STEMMED_SPLIT",
    "PIPELINE_MODES",
    "PipelineConfig",
    "ParallelCorpus",
    "PreparedVariant",
    "PostprocessResult",
    "filter_corpus",
    "prepare_variant",
    "postprocess",
]

BASE_MAXLEN = 50
GERMAN_MINLEN = 5


def _base_mode(mode: str) -> str:
    """The interleaving mode underlying a pipeline mode."""
    if mode == MODE_GERMAN_STEMMED_SPLIT:
        return interleave.MODE_GERMAN_STEMMED
    return mode


def _is_german(mode: str) -> bool:
    return mode.startswith("german")


class PipelineConfig(Record):
    """Run configuration; use :meth:`for_mode` for per-mode defaults.

    Interleaving a tag per word doubles sentence length, so interleaved
    modes default ``maxlen`` to twice the baseline value.
    """

    def __init__(
        self, mode: str, bpe_merges: int, maxlen: int, minlen: int = 1,
        sample_size: int | None = None, seed: int = 0, protect_tags: bool = False,
        joint_bpe: bool = True, split_source_hyphens: bool = False, lexicon_path: str | None = None,
    ) -> None:
        if mode not in PIPELINE_MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if not (maxlen >= minlen >= 1):
            raise ValueError(f"need maxlen >= minlen >= 1, got {maxlen} / {minlen}")
        if bpe_merges < 0:
            raise ValueError("bpe_merges must be >= 0")
        self.mode = mode
        self.bpe_merges = bpe_merges
        self.maxlen = maxlen
        self.minlen = minlen
        self.sample_size = sample_size
        self.seed = seed
        self.protect_tags = protect_tags
        self.joint_bpe = joint_bpe
        self.split_source_hyphens = split_source_hyphens
        self.lexicon_path = lexicon_path

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
        return self._asdict()


class ParallelCorpus(Record):
    """Aligned (source line, target line) pairs."""

    def __init__(self, pairs: list[tuple[str, str]], _origin: list[int] | None = None) -> None:
        self.pairs = pairs
        # The input pair index of each pair, kept through filter_corpus;
        # None means the pairs are the input, 0..n-1.
        self._origin = _origin

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


class PreparedVariant(Record):
    """Output of :func:`prepare_variant`."""

    def __init__(
        self, corpus: ParallelCorpus, source_table: MergeTable, target_table: MergeTable,
        dropped: list[tuple[int, str]] | None = None,
    ) -> None:
        self.corpus = corpus
        self.source_table = source_table
        self.target_table = target_table
        self.dropped = [] if dropped is None else dropped


def _encode_analysis(
    lex: ParadigmLexicon, key: tuple[str, str], surface: str, mode: str
) -> tuple[str, ...]:
    """The tokens of a word whose analysis is the row key ``key``.

    Morphgen emits the tag before the lemma, serialization the tag
    before the surface.  The German modes emit the stem before its
    features, split mode its :func:`~morphmt.compounds.split_tokens`,
    and a bare tag (``[KON]``) as one token with its lexeme
    (``und[KON]``).  A German key must encode to tokens that
    postprocessing reads back as the word: its tag must be a feature
    sequence, an inflected lemma must parse as a stem side, and a bare
    lemma with its tag must be a bare token whose lexeme, which
    postprocessing emits as it is, is the surface.
    :class:`MalformedAnalysis` says which does not hold.
    """
    tag_text, lemma = key
    if mode == interleave.MODE_MORPHGEN:
        return (tag_text, lemma)
    if mode == interleave.MODE_SERIALIZATION:
        return (tag_text, surface)
    tag = lex._tags[tag_text]
    if not isinstance(tag, GermanFeatureSeq):
        raise MalformedAnalysis("not a German analysis")
    if tag.kind == KIND_BARE:
        token = lemma + tag_text
        if classify_german_tokens((token,))[0][1] is None:
            raise MalformedAnalysis(f"not a bare token: {token!r}")
        if lemma != surface:
            raise MalformedAnalysis(f"bare token {token!r} would read back as {lemma!r}, "
                                    f"not {surface!r}")
        return (token,)
    if mode == MODE_GERMAN_STEMMED_SPLIT:
        return split_tokens(lemma, tag_text, tag)
    parse_stem_side(lemma)  # raises when the lemma is no stem side
    return (lemma, tag_text)


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
                row_key = select_analysis(lex, *key)
            except (MalformedAnalysis, NoCompatibleAnalysis) as exc:
                entry = _remember(memo, key, exc.with_traceback(None))
            else:
                try:
                    entry = _remember(memo, key, _encode_analysis(lex, row_key, key[0], mode))
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
    the input when ``corpus`` comes from :func:`filter_corpus`.  An
    error in a sentence's parse tags, source tags or encoding is raised
    with ``line N: `` before it, N the 1-based original pair index.  Each
    distinct (target token, parse tag) pair is analysed and encoded once
    per call.  ``cfg.protect_tags`` keeps the target's tag tokens whole
    (:func:`~morphmt.tagsets.tag_predicate_for_mode`); source tokens are
    always segmented.
    """
    if cfg.mode != interleave.MODE_BASELINE and lex is None:
        raise ValueError(f"mode {cfg.mode!r} needs a lexicon")
    encoded: list[tuple[str, str]] = []
    dropped: list[tuple[int, str]] = []
    memo: dict[tuple[str, str | None], _Encoded] = {}
    for index, (source, target) in zip(corpus._origin or range(len(corpus)), corpus.pairs):
        try:
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
        except ValueError as exc:  # its tags or encoding: name the input line
            raise type(exc)(f"line {index + 1}: {exc}") from None
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

    # All sources, then all targets: the table's segmentation memo is kept
    # per predicate, and the source side is never protected.
    sources = [segment_line(source_table, s) for s in source_lines]
    targets = [segment_line(target_table, t, protected) for t in target_lines]
    pairs = list(zip(sources, targets))
    return PreparedVariant(ParallelCorpus(pairs), source_table, target_table, dropped)


# ---------------------------------------------------------------------------
# Postprocessing
# ---------------------------------------------------------------------------

EVENT_DROPPED_TAG = interleave.EVENT_DROPPED_TAG
EVENT_WORD_WITHOUT_TAG = interleave.EVENT_WORD_WITHOUT_TAG
EVENT_DANGLING_MARKER = "dangling-marker"
EVENT_ORPHAN_SEPARATOR = "orphan-separator"
EVENT_UNPARSEABLE_STEM = "unparseable-stem"


class PostprocessResult(Record):
    """Surface text plus every diagnostic collected on the way."""

    def __init__(self, lines: list[str], diagnostics: Diagnostics) -> None:
        self.lines = lines
        self.diagnostics = diagnostics


def _revert_lenient(line: str, diagnostics: Diagnostics) -> list[str]:
    """Revert BPE on one backend line, stripping dangling markers off its end.

    A normalized line - printable, so that its only whitespace is U+0020,
    with no leading, trailing or doubled space and no final marker - is
    reverted on its text.  Any other line is split on whitespace first;
    each marker stripped off its last token is one repair at that token,
    and a last token that was only markers is dropped.
    """
    if (
        line and line.isprintable() and line[0] != " " and line[-1] != " "
        and "  " not in line and not line.endswith(MARKER)
    ):
        return revert_bpe([line])
    tokens = line.split()
    if not tokens:
        return []
    last = tokens[-1]
    while last.endswith(MARKER):
        diagnostics.repairs.append((diagnostics.lines, len(tokens) - 1, EVENT_DANGLING_MARKER))
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


def _stem_outcome(
    stem: str, features: GermanFeatureSeq, tag: str, lex: ParadigmLexicon
) -> _StemOutcome:
    unknown_modifiers: list[str] = []
    try:
        merged, _ = merge_stem(stem, features, lex, unknown_modifiers)
    except MalformedAnalysis:
        return None, (), None
    surface = generate(lex, merged, tag)
    if isinstance(surface, GenerationFailure):
        return strip_markup(merged), tuple(unknown_modifiers), surface
    return surface, tuple(unknown_modifiers), None


def _orphan(
    kind: str, line: int, position: int, word: str, words: list[str], repairs: list
) -> None:
    """Emit a walked item that is not a (tag, word) pair.

    A bare token's word is emitted as it is; an orphan word is emitted
    verbatim and an orphan tag dropped, each recorded as a repair.
    """
    if kind != interleave.ITEM_BARE:
        repairs.append((line, position, kind))
    if kind != EVENT_DROPPED_TAG:
        words.append(word)


def postprocess_line(
    line: str,
    mode: str,
    lex: ParadigmLexicon | None,
    memo: dict[tuple[str, str], _StemOutcome],
    diagnostics: Diagnostics,
) -> str:
    """Deterministically turn one backend output line into surface text.

    The line's records go into ``diagnostics``, keyed by its ``lines``,
    which counts the line when done.  A run of Czech pairs is looked up
    in the lexicon a column at a time, each pair found costing one
    lookup; only a miss goes through
    :func:`~morphmt.morphlex.generate_with_fallback`, in stream order.
    German (stem, tag) pairs are merged and generated once per distinct
    pair in ``memo``; each occurrence replays the recorded outcome.
    """
    index = diagnostics.lines
    repairs = diagnostics.repairs
    tokens = _revert_lenient(line, diagnostics)

    if mode == interleave.MODE_BASELINE:
        diagnostics.lines += 1
        return " ".join(tokens)

    if mode == MODE_GERMAN_STEMMED_SPLIT:
        tokens, orphans = rejoin_split_tokens(tokens)
        repairs.extend((index, pos, EVENT_ORPHAN_SEPARATOR) for pos, _ in orphans)

    items, error = interleave.walk(tokens, _base_mode(mode))
    if error is not None:
        diagnostics.errors.append((index, error.kind, error.position))

    ITEM_RUN = interleave.ITEM_RUN
    words: list[str] = []
    if mode == interleave.MODE_SERIALIZATION:
        for kind, position, _, word, _ in items:
            if kind == ITEM_RUN:
                words += word
            else:
                _orphan(kind, index, position, word, words, repairs)
    elif mode == interleave.MODE_MORPHGEN:
        surface_for = lex.surface_for
        hits = 0
        for kind, position, tags, lemmas, _ in items:
            if kind != ITEM_RUN:
                _orphan(kind, index, position, lemmas, words, repairs)
                continue
            surfaces = list(map(surface_for, lemmas, tags))
            hits += len(surfaces)
            if None in surfaces:
                for k, surface in enumerate(surfaces):
                    if surface is None:
                        hits -= 1
                        surfaces[k] = generate_with_fallback(lex, lemmas[k], tags[k], diagnostics)
            words += surfaces
        diagnostics.generated += hits
    else:
        ITEM_PAIR = interleave.ITEM_PAIR
        unknown_modifiers = diagnostics.unknown_modifiers
        for kind, position, tag, word, features in items:
            if kind != ITEM_PAIR:
                _orphan(kind, index, position, word, words, repairs)
                continue
            outcome = memo.get((word, tag))
            if outcome is None:
                outcome = _remember(memo, (word, tag), _stem_outcome(word, features, tag, lex))
            surface, modifiers, failure = outcome
            unknown_modifiers += [(index, lexeme) for lexeme in modifiers]
            if surface is None:
                repairs.append((index, position, EVENT_UNPARSEABLE_STEM))
                words.append(word)
                continue
            diagnostics.generated += 1
            if failure is not None:
                diagnostics.fallbacks.append((index, failure))
            words.append(surface)
    diagnostics.lines += 1
    return " ".join(words)


def _postprocess_lines(
    lines: list[str], mode: str, lex: ParadigmLexicon | None
) -> PostprocessResult:
    memo: dict[tuple[str, str], _StemOutcome] = {}
    diagnostics = Diagnostics()
    return PostprocessResult(
        [postprocess_line(line, mode, lex, memo, diagnostics) for line in lines], diagnostics
    )


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
