"""Paradigm lexicon: analysis, disambiguation and deterministic generation.

The lexicon is a plain table of (lemma, tag, surface) triples read from a
TSV document.  It answers two questions:

* analysis: which (lemma, tag) pairs can produce this surface form?
* generation: which surface form does this (lemma, tag) pair produce?

Generation is a pure lookup and therefore total and deterministic over
the stored entries.  When it fails, callers can either receive a
:class:`GenerationFailure` value (so failures can be counted) or fall
back to emitting the bare lemma via :func:`generate_with_fallback`.

Lexicon file format (UTF-8 TSV, one entry per line)::

    # comment
    lemma<TAB>tag<TAB>surface
    @mod<TAB>modifier-lemma<TAB>in-compound form

The tag column holds a formatted positional tag, an angle feature
sequence or a bracketed bare tag.  ``@mod`` rows populate the compound
modifier table (e.g. ``Meer -> Meeres``, ``Haus -> Häuser``), which
supplies linking elements and Umlautung base-form mappings.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    MorphAnalysis,
    PositionalTag,
    format_tag,
    parse_czech_tag,
    parse_feature_seq,
    split_lines,
    KIND_BARE,
    KIND_NOMINAL,
    KIND_VERBAL_FINITE,
    KIND_INFINITIVE,
    KIND_PARTICIPLE,
)

__all__ = [
    "LexiconConflict",
    "LexiconParse",
    "NoCompatibleAnalysis",
    "ParadigmLexicon",
    "GenerationFailure",
    "GenerationReport",
    "REASON_UNKNOWN_LEMMA",
    "REASON_INCOMPATIBLE_TAG",
    "load_lexicon",
    "analyze",
    "disambiguate",
    "generate",
    "generate_with_fallback",
    "parse_tag_text",
]


class LexiconConflict(ValueError):
    """Same lemma+tag mapped to two different surfaces (or one modifier
    to two in-compound forms)."""


class LexiconParse(ValueError):
    """Malformed lexicon row."""


class NoCompatibleAnalysis(LookupError):
    """No candidate analysis is compatible with the context parse tag."""


REASON_UNKNOWN_LEMMA = "unknown-lemma"
REASON_INCOMPATIBLE_TAG = "incompatible-tag"


def parse_tag_text(text: str) -> PositionalTag | GermanFeatureSeq:
    """Parse the tag column of a lexicon row or a decoded tag token."""
    if text.startswith("<") or text.startswith("["):
        return parse_feature_seq(text)
    return parse_czech_tag(text)


@dataclass(frozen=True)
class GenerationFailure:
    """Why the generator produced no surface form for (lemma, tag)."""

    lemma: str
    tag_text: str
    reason: str  # REASON_UNKNOWN_LEMMA or REASON_INCOMPATIBLE_TAG


@dataclass
class GenerationReport:
    """Counts generation attempts and records every lemma fallback."""

    total: int = 0
    fallback_items: list[GenerationFailure] = field(default_factory=list)

    @property
    def fallbacks(self) -> int:
        return len(self.fallback_items)

    def record(self, failure: GenerationFailure) -> None:
        self.fallback_items.append(failure)

    def merge(self, other: GenerationReport) -> None:
        """Associative sum of per-worker reports."""
        self.total += other.total
        self.fallback_items.extend(other.fallback_items)

    def to_text(self) -> str:
        lines = [
            f"generated: {self.total}",
            f"fallbacks: {self.fallbacks}",
        ]
        for item in self.fallback_items:
            lines.append(f"  {item.reason}\t{item.lemma}\t{item.tag_text}")
        return "\n".join(lines)


class ParadigmLexicon:
    """Bidirectional lemma+tag <-> surface store with a modifier table.

    The forward index is a function (at most one surface per lemma+tag);
    the inverse index lists candidates per surface in canonical order:
    lexicographic by formatted tag text, then by lemma.  Immutable after
    loading; all queries are read-only.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[str, PositionalTag | GermanFeatureSeq, str]] = []
        self.modifier_table: dict[str, str] = {}
        self._forward: dict[tuple[str, str], str] = {}
        self._inverse: dict[str, list[MorphAnalysis]] = {}
        self._lemmas: set[str] = set()

    def add_entry(
        self, lemma: str, tag: PositionalTag | GermanFeatureSeq, surface: str
    ) -> None:
        tag_text = format_tag(tag)
        key = (lemma, tag_text)
        existing = self._forward.get(key)
        if existing is not None:
            if existing != surface:
                raise LexiconConflict(
                    f"{lemma} + {tag_text} maps to both "
                    f"{existing!r} and {surface!r}"
                )
            return
        self._forward[key] = surface
        self._lemmas.add(lemma)
        self.entries.append((lemma, tag, surface))
        # Inserted after equal keys, like a stable sort of the appended list.
        bisect.insort(
            self._inverse.setdefault(surface, []),
            MorphAnalysis(lemma, tag, surface),
            key=lambda a: (a.tag_text, a.lemma),
        )

    def add_modifier(self, lemma: str, form: str) -> None:
        existing = self.modifier_table.get(lemma)
        if existing is not None and existing != form:
            raise LexiconConflict(
                f"modifier {lemma} maps to both {existing!r} and {form!r}"
            )
        self.modifier_table[lemma] = form

    def surface_for(self, lemma: str, tag_text: str) -> str | None:
        return self._forward.get((lemma, tag_text))

    def knows_lemma(self, lemma: str) -> bool:
        return lemma in self._lemmas

    def candidates_for(self, surface: str) -> list[MorphAnalysis]:
        return list(self._inverse.get(surface, ()))

    def __len__(self) -> int:
        return len(self.entries)


def load_lexicon(document: str) -> ParadigmLexicon:
    """Build a lexicon from TSV content; see the module docstring."""
    lex = ParadigmLexicon()
    tags: dict[str, PositionalTag | GermanFeatureSeq] = {}  # one parse per tag text
    for lineno, line in enumerate(split_lines(document), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        columns = line.split("\t")
        if columns[0] == "@mod":
            if len(columns) != 3:
                raise LexiconParse(
                    f"line {lineno}: @mod rows need modifier and form, got {line!r}"
                )
            lex.add_modifier(columns[1], columns[2])
            continue
        if len(columns) != 3:
            raise LexiconParse(
                f"line {lineno}: expected lemma<TAB>tag<TAB>surface, got {line!r}"
            )
        lemma, tag_text, surface = columns
        if not lemma or not surface:
            raise LexiconParse(f"line {lineno}: empty lemma or surface")
        tag = tags.get(tag_text)
        if tag is None:
            try:
                tag = tags[tag_text] = parse_tag_text(tag_text)
            except (MalformedTag, MalformedAnalysis) as exc:
                raise LexiconParse(f"line {lineno}: bad tag {tag_text!r}: {exc}") from exc
        lex.add_entry(lemma, tag, surface)
    return lex


def analyze(lex: ParadigmLexicon, surface: str) -> list[MorphAnalysis]:
    """All (lemma, tag) pairs producing ``surface``, canonically ordered."""
    return lex.candidates_for(surface)


# ---------------------------------------------------------------------------
# Disambiguation against context parse tags
# ---------------------------------------------------------------------------


def _parse_context(context: str) -> tuple[str, dict[str, str]]:
    """Split ``ADJA-Dat.Sg.Fem`` into POS and slot constraints.

    The feature part may carry any subset of case, number and gender in
    any order; each value is classified by its value set.
    """
    pos, sep, rest = context.partition("-")
    constraints: dict[str, str] = {}
    if sep:
        for value in rest.split("."):
            if value in {"Fem", "Masc", "Neut"}:
                constraints["gender"] = value
            elif value in {"Nom", "Acc", "Dat", "Gen"}:
                constraints["case"] = value
            elif value in {"Sg", "Pl"}:
                constraints["number"] = value
            else:
                raise ValueError(f"unknown context feature {value!r} in {context!r}")
    return pos, constraints


def _pos_compatible(candidate_tag: GermanFeatureSeq, context_pos: str) -> bool:
    kind = candidate_tag.kind
    if kind == KIND_BARE:
        return context_pos.startswith(candidate_tag.bare_tag) or (
            candidate_tag.bare_tag.startswith(context_pos)
        )
    if kind == KIND_VERBAL_FINITE:
        return "FIN" in context_pos
    if kind == KIND_INFINITIVE:
        return "INF" in context_pos
    if kind == KIND_PARTICIPLE:
        return "PP" in context_pos
    head = candidate_tag.head.lstrip("+")
    return context_pos.startswith(head)


def _compatible(candidate: MorphAnalysis, context_pos: str, constraints: dict[str, str]) -> bool:
    tag = candidate.tag
    if not isinstance(tag, GermanFeatureSeq):
        return False
    if not _pos_compatible(tag, context_pos):
        return False
    if tag.kind == KIND_NOMINAL:
        gender = constraints.get("gender")
        if gender is not None and tag.gender != gender and tag.gender != "NoGend":
            return False
        case = constraints.get("case")
        if case is not None and tag.case != case:
            return False
        number = constraints.get("number")
        if number is not None and tag.number != number:
            return False
    elif tag.kind == KIND_VERBAL_FINITE:
        number = constraints.get("number")
        if number is not None and tag.number != number:
            return False
    # Bare, participle and infinitive kinds carry no slots to constrain;
    # strength never appears in context tags and stays unconstrained.
    return True


def disambiguate(candidates: list[MorphAnalysis], context: str) -> MorphAnalysis:
    """Pick the first candidate compatible with the context parse tag.

    ``NoGend`` in a candidate matches any context gender; slots absent
    from the context are unconstrained.  Ties go to the first candidate
    in the given (canonical) order.
    """
    if not candidates:
        raise ValueError("disambiguate needs at least one candidate")
    context_pos, constraints = _parse_context(context)
    for candidate in candidates:
        if _compatible(candidate, context_pos, constraints):
            return candidate
    raise NoCompatibleAnalysis(
        f"none of {len(candidates)} analyses is compatible with {context!r}"
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate(
    lex: ParadigmLexicon, lemma: str, tag: PositionalTag | GermanFeatureSeq
) -> str | GenerationFailure:
    """Surface form for (lemma, tag), or a failure value with the reason.

    Failures are values rather than exceptions so that callers can count
    them: ``unknown-lemma`` when the lemma has no entries at all, and
    ``incompatible-tag`` when the lemma exists but not with this tag.
    """
    tag_text = format_tag(tag)
    surface = lex.surface_for(lemma, tag_text)
    if surface is not None:
        return surface
    if lex.knows_lemma(lemma):
        return GenerationFailure(lemma, tag_text, REASON_INCOMPATIBLE_TAG)
    return GenerationFailure(lemma, tag_text, REASON_UNKNOWN_LEMMA)


def strip_markup(lemma: str) -> str:
    """Remove angle markup from a stem text (fallback output form)."""
    out: list[str] = []
    depth = 0
    for ch in lemma:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def generate_with_fallback(
    lex: ParadigmLexicon,
    lemma: str,
    tag: PositionalTag | GermanFeatureSeq,
    report: GenerationReport,
) -> str:
    """Like :func:`generate`, but never fails: the bare lemma (markup
    removed) is emitted on failure and the failure recorded in ``report``."""
    report.total += 1
    result = generate(lex, lemma, tag)
    if isinstance(result, GenerationFailure):
        report.record(result)
        return strip_markup(lemma)
    return result
