"""The record path of ``prepare``, the German analysis record, the strict
decoder, the split-token compound path, the per-token Czech decode path
and the ``Counter``-based BLEU, kept as oracles.

``prepare`` encodes each target word from the lexicon row key that
``select_analysis`` picks, (tag text, lemma).  It used to build an
analysis record per candidate (lemma, parsed tag, surface), pick one with
a disambiguator, and format the record's parsed tag back into text.  The
interleave module also had a strict decoder that raised a stream's first
well-formedness violation.  A German analysis token was parsed into a
record of stem segments and features, which ``split-compounds`` and
split-mode ``prepare`` formatted back to text.  Compounds were merged
through their split tokens: a stem was parsed, split into a checked
token record, and the record's head parsed again to rebuild a
one-segment analysis.  Czech postprocessing split every backend line
into tokens before reverting BPE, walked the stream one token at a time
with an item per (tag, word) pair, and generated pair by pair.  BLEU
counted each order's hypothesis n-grams in a ``Counter``.  The tests
check the code that replaced them against these functions.
"""

import math
from collections import Counter
from itertools import repeat
from typing import NamedTuple

from morphmt import FrozenRecord
from morphmt.bpe import MARKER, revert_bpe
from morphmt.compounds import SPLIT_MARKUP
from morphmt.evaluation import EmptyCorpus
from morphmt.interleave import (
    ERROR_ODD_LENGTH,
    ERROR_TAG_EXPECTED,
    ERROR_WORD_EXPECTED,
    EVENT_DROPPED_TAG,
    EVENT_WORD_WITHOUT_TAG,
    ITEM_PAIR,
    ITEM_RUN,
    Item,
    Walk,
    WellformednessError,
    walk,
)
from morphmt.morphlex import (
    Diagnostics,
    NoCompatibleAnalysis,
    _compatible,
    _parse_context,
    generate_with_fallback,
    parse_tag_text,
)
from morphmt.pipeline import PostprocessResult
from morphmt.tagsets import (
    _BARE_RE,
    GermanFeatureSeq,
    MalformedAnalysis,
    PositionalTag,
    StemSegment,
    classify_czech_tokens,
    classify_german_tokens,
    format_separator,
    format_tag,
    parse_feature_seq,
    parse_stem_side,
)


class GermanAnalysis(FrozenRecord):
    """A word analysis: stem segments plus a feature sequence.

    Inflected analyses are written ``STEM||<features>``; non-inflected
    ones are ``lexeme[TAG]`` with a single segment and a bare feature
    sequence.
    """

    def __init__(
        self, stem_segments: tuple[StemSegment, ...], feature_seq: GermanFeatureSeq,
        inflected: bool = True,
    ) -> None:
        if not stem_segments:
            raise MalformedAnalysis("analysis needs at least one stem segment")
        if not inflected:
            if feature_seq.kind != "bare":
                raise MalformedAnalysis("non-inflected analyses carry a bare tag")
            if len(stem_segments) != 1:
                raise MalformedAnalysis("non-inflected analyses have one segment")
        object.__setattr__(self, "stem_segments", stem_segments)
        object.__setattr__(self, "feature_seq", feature_seq)
        object.__setattr__(self, "inflected", inflected)

    @property
    def stem_text(self) -> str:
        return "".join(str(s) for s in self.stem_segments)


def format_analysis(a: GermanAnalysis) -> str:
    """The analysis token of a record, byte-exact."""
    if not a.inflected:
        return f"{a.stem_segments[0].lexeme}[{a.feature_seq.bare_tag}]"
    return f"{a.stem_text}||{format_tag(a.feature_seq)}"


def parse_analysis(raw: str) -> GermanAnalysis:
    """The record of one analysis token, inflected (``||``) or bare (``[TAG]``)."""
    if not raw or any(c.isspace() for c in raw):
        raise MalformedAnalysis(f"analysis must be a single token: {raw!r}")
    if raw.count("<") != raw.count(">") or raw.count("[") != raw.count("]"):
        raise MalformedAnalysis(f"unbalanced brackets in {raw!r}")
    if "||" in raw:
        parts = raw.split("||")
        if len(parts) != 2:
            raise MalformedAnalysis(f"more than one boundary in {raw!r}")
        stem_text, feature_text = parts
        segments = parse_stem_side(stem_text)
        feature_seq = parse_feature_seq(feature_text)
        if feature_seq.kind == "bare":
            raise MalformedAnalysis(f"bare tag after boundary in {raw!r}")
        return GermanAnalysis(segments, feature_seq, inflected=True)
    m = _BARE_RE.match(raw)
    if m is None:
        raise MalformedAnalysis(f"not an analysis: {raw!r}")
    return GermanAnalysis(
        (StemSegment(m.group(1)),), GermanFeatureSeq("bare", bare_tag=m.group(2)), inflected=False
    )


class Analysis(NamedTuple):
    """A (lemma, parsed tag) pair, with the surface form it analyses if known.

    ``lemma`` is the plain lemma for positional tags and the stem-side
    text (markup included) for German analyses.
    """

    lemma: str
    tag: PositionalTag | GermanFeatureSeq
    surface: str | None = None

    @property
    def tag_text(self) -> str:
        return format_tag(self.tag)


def to_german_analysis(a: Analysis) -> GermanAnalysis:
    if not isinstance(a.tag, GermanFeatureSeq):
        raise MalformedAnalysis("not a German analysis")
    if a.tag.kind == "bare":
        return GermanAnalysis((StemSegment(a.lemma),), a.tag, inflected=False)
    return GermanAnalysis(parse_stem_side(a.lemma), a.tag, inflected=True)


def candidates(lex, surface: str) -> list[Analysis]:
    """Every analysis of ``surface``: lexicographic by tag text, then lemma."""
    return [
        Analysis(lemma, parse_tag_text(tag_text), surface)
        for tag_text, lemma in sorted(lex.keys_for(surface))
    ]


def disambiguate(options: list[Analysis], context: str) -> Analysis:
    """The first analysis compatible with the context parse tag."""
    if not options:
        raise ValueError("disambiguate needs at least one candidate")
    pos, constraints = _parse_context(context)
    for a in options:
        if _compatible(a.tag, pos, constraints):
            return a
    raise NoCompatibleAnalysis(f"none of {len(options)} analyses is compatible with {context!r}")


def _surface_of(a: Analysis) -> str:
    if a.surface is None:
        raise ValueError(f"analysis of {a.lemma!r} carries no surface form")
    return a.surface


def encode_record(a: Analysis, mode: str) -> tuple[str, ...]:
    """The tokens of one analysis record in a mode that encodes from a lexicon."""
    if mode == "german-stemmed-split":
        return split_tokens(to_german_analysis(a))
    if mode == "morphgen":
        return (a.tag_text, a.lemma)
    if mode == "serialization":
        return (a.tag_text, _surface_of(a))
    if mode != "german-stemmed":
        raise ValueError(f"unknown mode {mode!r}")
    if getattr(a.tag, "kind", None) == "bare":
        return (f"{a.lemma}{a.tag_text}",)
    return (a.lemma, a.tag_text)


def expand_runs(items: list[Item]) -> list[Item]:
    """Walked items with each run of positional pairs replaced by one
    ``ITEM_PAIR`` item per pair, at the position of its tag."""
    out = []
    for item in items:
        if item.kind == ITEM_RUN:
            out += [
                Item(ITEM_PAIR, item.position + 2 * k, tag, word)
                for k, (tag, word) in enumerate(zip(item.tag, item.word))
            ]
        else:
            out.append(item)
    return out


def decode(tokens: list[str], mode: str) -> list[tuple[str, str]]:
    """The (tag, word) pairs of a stream, bare tokens included, or its
    first :class:`WellformednessError` raised: the strict view of ``walk``."""
    stream = walk(tokens, mode)
    if stream.error is not None:
        raise stream.error
    return [(item.tag, item.word) for item in expand_runs(stream.items)]


def wellformedness(lines: list[str], mode: str) -> Diagnostics:
    """Each line's strict violation, as ``(line, kind, position)`` errors."""
    diagnostics = Diagnostics()
    for line in lines:
        try:
            decode(line.split(), mode)
        except WellformednessError as exc:
            diagnostics.errors.append((diagnostics.lines, exc.kind, exc.position))
        diagnostics.lines += 1
    return diagnostics


class CompoundSplit(FrozenRecord):
    """Token sequence of a split compound.

    Lexeme tokens alternate with ``§§<TAG>§§`` separators; the final
    token is the head's feature sequence.
    """

    def __init__(self, tokens: tuple[str, ...]) -> None:
        t = tokens
        if len(t) < 4 or len(t) % 2 != 0:
            raise MalformedAnalysis(f"not a compound split: {t}")
        classes = classify_german_tokens(t)
        if classes[-1][0] is None:
            raise MalformedAnalysis(f"split must end on a feature sequence: {t}")
        for i, (features, _, markup) in enumerate(classes[:-1]):
            if i % 2 == 0:
                if markup is not None or features is not None:
                    raise MalformedAnalysis(f"lexeme expected at {i} in {t}")
            elif markup is None:
                raise MalformedAnalysis(f"separator expected at {i} in {t}")
        object.__setattr__(self, "tokens", tokens)

    @property
    def modifier_lexemes(self) -> tuple[str, ...]:
        return self.tokens[0:-2:2]

    @property
    def head_token(self) -> str:
        return self.tokens[-2]

    @property
    def feature_token(self) -> str:
        return self.tokens[-1]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def split_analysis(a: GermanAnalysis) -> CompoundSplit | GermanAnalysis:
    """Split a multi-segment stem at noun/adjective borders; other
    analyses, and stems with no split point, pass through unchanged."""
    if not a.inflected or len(a.stem_segments) == 1:
        return a
    tokens: list[str] = []
    current = ""
    for i, segment in enumerate(a.stem_segments):
        current += segment.lexeme
        is_last = i == len(a.stem_segments) - 1
        if segment.markup is None:
            continue
        if not is_last and segment.markup in SPLIT_MARKUP:
            tokens += [current, format_separator(segment.markup)]
            current = ""
        else:
            current += f"<{segment.markup}>"
    tokens.append(current)
    if len(tokens) == 1:
        return a
    tokens.append(format_tag(a.feature_seq))
    return CompoundSplit(tuple(tokens))


def split_tokens(a: GermanAnalysis) -> tuple[str, ...]:
    """The split-mode tokens of an analysis, through the token record."""
    if not a.inflected:
        return (format_analysis(a),)
    split = split_analysis(a)
    if isinstance(split, CompoundSplit):
        return split.tokens
    return (a.stem_text, format_tag(a.feature_seq))


def _split_head(token: str) -> tuple[str, str | None]:
    """Separate the head's own trailing markup (kept on the merged stem)."""
    segments = parse_stem_side(token)
    markup = segments[-1].markup
    body = "".join(str(s) for s in segments[:-1]) + segments[-1].lexeme
    return body, markup


def merge_compound(split: CompoundSplit, lex, unknown_modifiers=None) -> GermanAnalysis:
    """Reassemble a split compound into a one-segment analysis."""
    feature_seq = classify_german_tokens((split.feature_token,))[0][0]
    head_lexeme, head_markup = _split_head(split.head_token)
    parts = []
    for lexeme in split.modifier_lexemes:
        form = lex.modifier_table.get(lexeme)
        if form is None:
            if unknown_modifiers is not None:
                unknown_modifiers.append(lexeme)
            form = lexeme
        parts.append(form)
    parts.append(head_lexeme)
    stem = parts[0] + "".join(p[:1].lower() + p[1:] for p in parts[1:])
    if feature_seq.kind == "nominal":
        if feature_seq.head == "+NN":
            stem = stem[:1].upper() + stem[1:]
        elif feature_seq.head == "+ADJ":
            stem = stem[:1].lower() + stem[1:]
    return GermanAnalysis((StemSegment(stem, head_markup),), feature_seq, inflected=True)


def merge_stem(stem: str, feature_seq: GermanFeatureSeq, lex, unknown_modifiers=None):
    """(analysis, merged) of a decoded stem and its features, through the
    split tokens: the merged analysis's ``stem_text`` is the stem to generate."""
    segments = parse_stem_side(stem)
    analysis = GermanAnalysis(segments, feature_seq, inflected=True)
    if len(segments) > 1:
        split = split_analysis(analysis)
        if isinstance(split, CompoundSplit):
            return merge_compound(split, lex, unknown_modifiers), True
    return analysis, False


# ---------------------------------------------------------------------------
# The per-token Czech decode path
# ---------------------------------------------------------------------------


def revert_lenient(tokens: list[str], diagnostics: Diagnostics) -> list[str]:
    """Revert BPE on a line's whitespace tokens after stripping dangling
    markers off the last token, each one repair there."""
    if not tokens:
        return []
    last = tokens[-1]
    while last.endswith(MARKER):
        diagnostics.repairs.append((diagnostics.lines, len(tokens) - 1, "dangling-marker"))
        last = last[: -len(MARKER)]
    tokens[-1] = last
    words = revert_bpe(tokens)
    if not words[-1]:
        words.pop()
    return words


def walk_tag_first(tokens: list[str]) -> Walk:
    """The positional-tag walk one token at a time, one item per pair."""
    is_tag = classify_czech_tokens(tokens)
    items: list[Item] = []
    error = None
    open_tag = -1
    for i, tag in enumerate(is_tag):
        if not tag:
            if open_tag >= 0:
                items.append(Item(ITEM_PAIR, open_tag, tokens[open_tag], tokens[i]))
                open_tag = -1
                continue
            items.append(Item(EVENT_WORD_WITHOUT_TAG, i, "", tokens[i]))
            if error is None:
                error = WellformednessError(i, ERROR_TAG_EXPECTED)
            continue
        if open_tag >= 0:
            items.append(Item(EVENT_DROPPED_TAG, open_tag, tokens[open_tag], ""))
            if error is None:
                error = WellformednessError(open_tag + 1, ERROR_WORD_EXPECTED)
        open_tag = i
    if open_tag >= 0:
        items.append(Item(EVENT_DROPPED_TAG, open_tag, tokens[open_tag], ""))
        if error is None:
            error = WellformednessError(open_tag + 1, ERROR_WORD_EXPECTED)
    if len(tokens) % 2 != 0:
        error = WellformednessError(len(tokens) - 1, ERROR_ODD_LENGTH)
    return Walk(items, error)


def postprocess_tag_first(lines: list[str], mode: str, lex) -> PostprocessResult:
    """``postprocess`` in morphgen or serialization mode, token by token:
    each line split and reverted, walked pair by pair, and each pair
    looked up where it occurs."""
    diagnostics = Diagnostics()
    out = []
    for line in lines:
        index = diagnostics.lines
        tokens = revert_lenient(line.split(), diagnostics)
        stream = walk_tag_first(tokens)
        if stream.error is not None:
            diagnostics.errors.append((index, stream.error.kind, stream.error.position))
        words = []
        for kind, position, tag, word, _ in stream.items:
            if kind != ITEM_PAIR:
                diagnostics.repairs.append((index, position, kind))
                if kind != EVENT_DROPPED_TAG:
                    words.append(word)
            elif mode == "serialization":
                words.append(word)
            else:
                surface = lex.surface_for(word, tag)
                if surface is None:
                    surface = generate_with_fallback(lex, word, tag, diagnostics)
                else:
                    diagnostics.generated += 1
                words.append(surface)
        diagnostics.lines += 1
        out.append(" ".join(words))
    return PostprocessResult(out, diagnostics)


# ---------------------------------------------------------------------------
# BLEU with Counters
# ---------------------------------------------------------------------------


def _ngrams(tokens, order):
    if order == 1:
        return tokens
    return zip(*[tokens[i:] for i in range(order)])


def counter_bleu(hypotheses, references, lowercase=False, smooth=False):
    """Corpus BLEU-4 with each order's hypothesis n-grams in a ``Counter``."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyCorpus("no sentences to score")
    if lowercase:
        hypotheses = [h.lower() for h in hypotheses]
        references = [r.lower() for r in references]
    matches, totals = [0] * 4, [0] * 4
    hyp_length = ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens, ref_tokens = hyp.split(), ref.split()
        hyp_length += len(hyp_tokens)
        ref_length += len(ref_tokens)
        for n in range(1, min(len(hyp_tokens), 4) + 1):
            count = len(hyp_tokens) - n + 1
            totals[n - 1] += count
            hyp_counts = Counter(_ngrams(hyp_tokens, n))
            if len(hyp_counts) == count:
                matches[n - 1] += len(hyp_counts.keys() & _ngrams(ref_tokens, n))
            else:
                ref_counts = Counter(_ngrams(ref_tokens, n))
                matches[n - 1] += sum(
                    map(min, hyp_counts.values(), map(ref_counts.get, hyp_counts, repeat(0)))
                )
    if hyp_length == 0:
        return 0.0
    log_sum, orders = 0.0, 0
    for n in range(1, 5):
        m, t = matches[n - 1], totals[n - 1]
        if t == 0:
            continue
        if smooth and n > 1:
            m, t = m + 1, t + 1
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
        orders += 1
    precision = math.exp(log_sum / orders)
    if hyp_length < ref_length:
        brevity_penalty = math.exp(1.0 - ref_length / hyp_length)
    else:
        brevity_penalty = 1.0
    return 100.0 * brevity_penalty * precision
