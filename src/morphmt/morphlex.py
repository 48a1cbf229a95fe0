"""Paradigm lexicon: analysis, disambiguation and deterministic generation.

The lexicon is a table of (lemma, tag, surface) triples read from a TSV
document and stored as one lemma -> surface dict per tag text.  It
answers two questions:

* analysis: which (tag text, lemma) row keys produce this surface form?
  (The index behind it groups the rows by surface at the first analysis.)
  :func:`select_analysis` picks one of them, against a context parse tag
  if one is given.
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

from . import FrozenRecord, Record
from .tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    PositionalTag,
    parse_czech_tag,
    parse_feature_seq,
    split_lines,
    _remember,
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
    "select_analysis",
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


class GenerationFailure(FrozenRecord):
    """Why the generator produced no surface form for (lemma, tag)."""

    def __init__(self, lemma: str, tag_text: str, reason: str) -> None:
        object.__setattr__(self, "lemma", lemma)
        object.__setattr__(self, "tag_text", tag_text)
        object.__setattr__(self, "reason", reason)  # a REASON_* constant


class Diagnostics(Record):
    """Everything a run reports besides its text, for a run of ``lines`` lines.

    Each record starts with the index of the line it belongs to; a
    producer keys a record by ``lines``, the index of the line it is
    working on, and counts the line when done.  ``merge`` appends
    another run's lines after this one's, so merging per-line (or
    per-chunk) diagnostics in input order gives the corpus's.
    """

    def __init__(
        self, lines: int = 0, generated: int = 0,
        fallbacks: list[tuple[int, GenerationFailure]] | None = None,
        repairs: list[tuple[int, int, str]] | None = None,  # (line, position, event)
        errors: list[tuple[int, str, int]] | None = None,  # (line, kind, position)
        unknown_modifiers: list[tuple[int, str]] | None = None,  # (line, lexeme)
    ) -> None:
        self.lines = lines  # lines checked
        self.generated = generated  # generation attempts
        self.fallbacks = [] if fallbacks is None else fallbacks
        self.repairs = [] if repairs is None else repairs
        self.errors = [] if errors is None else errors
        self.unknown_modifiers = [] if unknown_modifiers is None else unknown_modifiers

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

    Rows are stored per tag text: ``_forward`` maps each tag text to one
    dict, lemma -> surface.  ``_lemmas`` maps each lemma to the one copy
    of its string that every tag's dict is keyed with; it is also the set
    ``knows_lemma`` reads.  So a row costs one surface string and one
    dict slot, with no key tuple and nothing the cyclic garbage collector
    tracks: about 124 bytes under tracemalloc on the benchmark's 70 k-row
    Czech lexicon (CPython 3.11), against 324 when each row had a
    (tag text, lemma) key and its own copies of both strings.

    Each distinct tag text is parsed once, when its first row is added.
    The forward index is a function (at most one surface per lemma+tag).
    The inverse index lists each surface's (tag text, lemma) row keys,
    grouped by the first analysis and dropped when a row is added; the
    keys are the analyses, and their canonical order is lexicographic by
    tag text, then by lemma.  ``_tags`` holds each tag text's parsed tag.
    """

    def __init__(self) -> None:
        self.modifier_table: dict[str, str] = {}
        self._forward: dict[str, dict[str, str]] = {}  # tag text -> lemma -> surface
        self._tags: dict[str, PositionalTag | GermanFeatureSeq] = {}
        self._lemmas: dict[str, str] = {}  # lemma -> its one shared copy
        self._by_surface: dict[str, list[tuple[str, str]]] | None = None  # surface -> keys

    def add_entry(self, lemma: str, tag_text: str, surface: str) -> None:
        """Store one row; raises MalformedTag or MalformedAnalysis for a bad tag."""
        rows = self._forward.get(tag_text)
        if rows is None:
            self._tags[tag_text] = parse_tag_text(tag_text)
            rows = self._forward[tag_text] = {}
        existing = rows.get(lemma)
        if existing is not None:
            if existing != surface:
                raise LexiconConflict(
                    f"{lemma} + {tag_text} maps to both "
                    f"{existing!r} and {surface!r}"
                )
            return
        rows[self._lemmas.setdefault(lemma, lemma)] = surface
        self._by_surface = None

    def add_modifier(self, lemma: str, form: str) -> None:
        existing = self.modifier_table.get(lemma)
        if existing is not None and existing != form:
            raise LexiconConflict(
                f"modifier {lemma} maps to both {existing!r} and {form!r}"
            )
        self.modifier_table[lemma] = form

    def surface_for(self, lemma: str, tag_text: str) -> str | None:
        return self._forward.get(tag_text, _NO_ROWS).get(lemma)

    def knows_lemma(self, lemma: str) -> bool:
        return lemma in self._lemmas

    def keys_for(self, surface: str) -> list[tuple[str, str]]:
        """The (tag text, lemma) keys of ``surface``'s rows; do not mutate."""
        by_surface = self._by_surface
        if by_surface is None:
            by_surface = self._by_surface = {}
            for tag_text, rows in self._forward.items():
                for lemma, form in rows.items():
                    by_surface.setdefault(form, []).append((tag_text, lemma))
        return by_surface.get(surface, [])

    def __len__(self) -> int:
        return sum(map(len, self._forward.values()))


_NO_ROWS: dict[str, str] = {}  # the rows of a tag text that has none


def _add_row(lex: ParadigmLexicon, lineno: int, lemma: str, tag_text: str, surface: str) -> None:
    """``add_entry`` with its errors naming the line."""
    try:
        lex.add_entry(lemma, tag_text, surface)
    except (MalformedTag, MalformedAnalysis) as exc:
        raise LexiconParse(f"line {lineno}: bad tag {tag_text!r}: {exc}") from exc
    except LexiconConflict as exc:
        raise LexiconConflict(f"line {lineno}: {exc}") from None


def _load_line(lex: ParadigmLexicon, lineno: int, line: str) -> None:
    """Skip, store or reject a line that is not a plain three-column row."""
    if not line or line[0] == "#":
        return
    if line[0].isspace() and (line.isspace() or line.lstrip()[0] == "#"):
        return  # blank, or an indented comment
    columns = line.split("\t")
    if len(columns) != 3:
        if columns[0] == "@mod":
            raise LexiconParse(
                f"line {lineno}: @mod rows need modifier and form, got {line!r}"
            )
        raise LexiconParse(
            f"line {lineno}: expected lemma<TAB>tag<TAB>surface, got {line!r}"
        )
    lemma, tag_text, surface = columns
    if lemma == "@mod":
        if not tag_text or not surface:
            raise LexiconParse(f"line {lineno}: empty modifier or form")
        try:
            lex.add_modifier(tag_text, surface)
        except LexiconConflict as exc:
            raise LexiconConflict(f"line {lineno}: {exc}") from None
        return
    if not lemma or not surface:
        raise LexiconParse(f"line {lineno}: empty lemma or surface")
    _add_row(lex, lineno, lemma, tag_text, surface)


def load_lexicon(document: str) -> ParadigmLexicon:
    """Build a lexicon from TSV content; see the module docstring.

    One pass over the lines, raising at the first bad one with its line
    number, conflicts included.  A line of three columns whose lemma
    starts with neither ``#``, ``@`` nor whitespace and whose surface is
    not empty is stored by two dict operations: the lemma's shared copy
    and the slot in its tag's dict.  Each distinct tag text is parsed at
    its first row.  Comments, blank and indented lines, ``@mod`` rows,
    empty fields and lines of another width go through ``_load_line``.
    """
    lex = ParadigmLexicon()
    forward, lemmas = lex._forward, lex._lemmas
    for lineno, line in enumerate(split_lines(document), start=1):
        try:
            lemma, tag_text, surface = line.split("\t")
            first = lemma[0]
        except (ValueError, IndexError):  # not three columns, or no lemma
            _load_line(lex, lineno, line)
            continue
        if not surface or first in "#@" or first.isspace():
            _load_line(lex, lineno, line)
            continue
        rows = forward.get(tag_text)
        if rows is None or rows.setdefault(lemmas.setdefault(lemma, lemma), surface) != surface:
            _add_row(lex, lineno, lemma, tag_text, surface)  # parses the tag, or raises the conflict
    return lex


def analyze(lex: ParadigmLexicon, surface: str) -> list[tuple[str, str]]:
    """The (tag text, lemma) keys of the rows producing ``surface``, sorted."""
    return sorted(lex.keys_for(surface))


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


def _compatible(tag: PositionalTag | GermanFeatureSeq, context_pos: str,
                constraints: dict[str, str]) -> bool:
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


_CONTEXTS: dict[str, tuple[str, dict[str, str]]] = {}  # context text -> parsed context


def _first_fit(tags: list[PositionalTag | GermanFeatureSeq], context: str) -> int:
    """Index of the first tag compatible with the context parse tag."""
    parsed = _CONTEXTS.get(context)
    if parsed is None:  # a context that fails to parse raises and is not remembered
        parsed = _remember(_CONTEXTS, context, _parse_context(context))
    for index, tag in enumerate(tags):
        if _compatible(tag, *parsed):
            return index
    raise NoCompatibleAnalysis(f"none of {len(tags)} analyses is compatible with {context!r}")


def select_analysis(lex: ParadigmLexicon, surface: str, context: str | None) -> tuple[str, str]:
    """The (tag text, lemma) key of ``surface``'s analysis: the first of
    :func:`analyze`, or with a context parse tag the first compatible one.

    ``NoGend`` in a candidate matches any context gender; slots absent
    from the context are unconstrained.  Every analysis of a surface
    regenerates it, so without a context the choice never affects
    round-tripping.  Raises MalformedAnalysis when no row produces
    ``surface`` and NoCompatibleAnalysis when no analysis fits.
    """
    keys = lex.keys_for(surface)
    if not keys:
        raise MalformedAnalysis(f"no analysis for {surface!r}")
    if context is None:
        return min(keys)
    keys = sorted(keys)
    tags = lex._tags
    return keys[_first_fit([tags[tag] for tag, _ in keys], context)]


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
