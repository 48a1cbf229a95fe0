"""Paradigm lexicon: analysis, disambiguation and deterministic generation.

The lexicon is a plain table of (lemma, tag, surface) triples read from a
TSV document and keyed by tag text.  It answers two questions:

* analysis: which (lemma, tag) pairs can produce this surface form?
  (The index behind it is built per surface, on its first analysis.)
* generation: which surface form does this (lemma, tag text) pair produce?

Generation is a pure lookup and therefore total and deterministic over
the stored rows.  When it fails, callers can either receive a
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

from dataclasses import dataclass, field

from .tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    MorphAnalysis,
    PositionalTag,
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
    "Diagnostics",
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
class Diagnostics:
    """Everything a run reports besides its text, for a run of ``lines`` lines.

    Each record starts with the index of the line it belongs to; a
    producer keys a record by ``lines``, the index of the line it is
    working on, and counts the line when done.  ``merge`` appends
    another run's lines after this one's, so merging per-line (or
    per-chunk) diagnostics in input order gives the corpus's.
    """

    lines: int = 0  # lines checked
    generated: int = 0  # generation attempts
    fallbacks: list[tuple[int, GenerationFailure]] = field(default_factory=list)
    repairs: list[tuple[int, int, str]] = field(default_factory=list)  # (line, position, event)
    errors: list[tuple[int, str, int]] = field(default_factory=list)  # (line, kind, position)
    unknown_modifiers: list[tuple[int, str]] = field(default_factory=list)  # (line, lexeme)

    def merge(self, other: Diagnostics) -> None:
        """Associative sum: ``other``'s line indexes shift by ``self.lines``."""
        offset = self.lines
        self.lines += other.lines
        self.generated += other.generated
        self.fallbacks += [(offset + line, failure) for line, failure in other.fallbacks]
        self.repairs += [(offset + line, pos, event) for line, pos, event in other.repairs]
        self.errors += [(offset + line, kind, pos) for line, kind, pos in other.errors]
        self.unknown_modifiers += [
            (offset + line, lexeme) for line, lexeme in other.unknown_modifiers
        ]

    @property
    def malformed_lines(self) -> int:
        return len({line for line, _, _ in self.errors})

    @property
    def counts(self) -> dict[str, int]:
        """Well-formedness errors per kind."""
        counts: dict[str, int] = {}
        for _, kind, _ in self.errors:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def to_text(self) -> str:
        """Generation counts and fallbacks, then, if any line was checked,
        the well-formedness summary and errors."""
        out = [f"generated: {self.generated}", f"fallbacks: {len(self.fallbacks)}"]
        for _, item in self.fallbacks:
            out.append(f"  {item.reason}\t{item.lemma}\t{item.tag_text}")
        if self.lines:
            out += [f"lines checked: {self.lines}", f"malformed lines: {self.malformed_lines}"]
            out += [f"  {kind}: {count}" for kind, count in sorted(self.counts.items())]
            out += [f"  line {line}: {kind} at token {pos}" for line, kind, pos in self.errors]
        return "\n".join(out)


class ParadigmLexicon:
    """Bidirectional lemma+tag <-> surface store with a modifier table.

    Rows are keyed by tag text; each distinct tag text is parsed once,
    when its first row is added.  The forward index is a function (at
    most one surface per lemma+tag).  The inverse index lists candidates
    per surface in canonical order: lexicographic by tag text, then by
    lemma.  The first analysis groups the rows by surface; a surface's
    candidates are sorted and built when that surface is first asked
    for.  Adding a row drops both.
    """

    def __init__(self) -> None:
        self.modifier_table: dict[str, str] = {}
        self._forward: dict[tuple[str, str], str] = {}  # (tag text, lemma) -> surface
        self._tags: dict[str, PositionalTag | GermanFeatureSeq] = {}
        self._by_surface: dict[str, list[tuple[str, str]]] | None = None  # surface -> keys
        self._inverse: dict[str, list[MorphAnalysis]] = {}  # surfaces asked for so far
        self._lemmas: set[str] = set()

    def add_entry(self, lemma: str, tag_text: str, surface: str) -> None:
        """Store one row; raises MalformedTag or MalformedAnalysis for a bad tag."""
        if tag_text not in self._tags:
            self._tags[tag_text] = parse_tag_text(tag_text)
        key = (tag_text, lemma)
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
        self._by_surface = None

    def add_modifier(self, lemma: str, form: str) -> None:
        existing = self.modifier_table.get(lemma)
        if existing is not None and existing != form:
            raise LexiconConflict(
                f"modifier {lemma} maps to both {existing!r} and {form!r}"
            )
        self.modifier_table[lemma] = form

    def surface_for(self, lemma: str, tag_text: str) -> str | None:
        return self._forward.get((tag_text, lemma))

    def knows_lemma(self, lemma: str) -> bool:
        return lemma in self._lemmas

    def candidates_for(self, surface: str) -> list[MorphAnalysis]:
        if self._by_surface is None:
            by_surface: dict[str, list[tuple[str, str]]] = {}
            for key, form in self._forward.items():
                by_surface.setdefault(form, []).append(key)
            self._by_surface = by_surface
            self._inverse = {}
        candidates = self._inverse.get(surface)
        if candidates is None:
            keys = self._by_surface.get(surface)
            if keys is None:
                return []
            tags = self._tags
            candidates = self._inverse[surface] = [
                MorphAnalysis(lemma, tags[tag], surface) for tag, lemma in sorted(keys)
            ]
        return list(candidates)

    def __len__(self) -> int:
        return len(self._forward)


def load_lexicon(document: str) -> ParadigmLexicon:
    """Build a lexicon from TSV content; see the module docstring."""
    lex = ParadigmLexicon()
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
        try:
            lex.add_entry(lemma, tag_text, surface)
        except (MalformedTag, MalformedAnalysis) as exc:
            raise LexiconParse(f"line {lineno}: bad tag {tag_text!r}: {exc}") from exc
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


def generate(lex: ParadigmLexicon, lemma: str, tag_text: str) -> str | GenerationFailure:
    """Surface form for (lemma, tag text), or a failure value with the reason.

    Failures are values rather than exceptions so that callers can count
    them: ``unknown-lemma`` when the lemma has no rows at all, and
    ``incompatible-tag`` when the lemma exists but not with this tag.
    """
    surface = lex.surface_for(lemma, tag_text)
    if surface is not None:
        return surface
    reason = REASON_INCOMPATIBLE_TAG if lex.knows_lemma(lemma) else REASON_UNKNOWN_LEMMA
    return GenerationFailure(lemma, tag_text, reason)


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
    tag_text: str,
    diagnostics: Diagnostics,
    line: int | None = None,
) -> str:
    """Like :func:`generate`, but never fails: the bare lemma (markup
    removed) is emitted on failure and the failure recorded in
    ``diagnostics``, under ``line`` (default: ``diagnostics.lines``)."""
    diagnostics.generated += 1
    result = generate(lex, lemma, tag_text)
    if isinstance(result, GenerationFailure):
        diagnostics.fallbacks.append((diagnostics.lines if line is None else line, result))
        return strip_markup(lemma)
    return result
