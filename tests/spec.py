"""A slow reference model of ``prepare`` and ``postprocess``, read off the README.

It transcribes three README sections, "Representation modes", "File
formats" and "Postprocessing guarantees", one token at a time.  The
lexicon is the raw rows: ``(lemma, tag, surface)`` triples and
``(modifier, form)`` pairs from the ``@mod`` rows, scanned in full for
every question.  Nothing is remembered between tokens, pairs are never
grouped into runs and no row key stands in for a row.  Tags, feature
sequences and stem sides are parsed with the public parsers of
:mod:`morphmt.tagsets`; nothing private of ``morphmt`` is used.

Per mode:

* :func:`prepare` gives a target sentence's token stream before BPE, or
  :class:`Dropped` with the reason the sentence is dropped; an error that
  stops the run is raised as a ``ValueError``.  :func:`split_hyphens`
  gives a source word's tokens under ``--split-source-hyphens``.
* :func:`postprocess` gives a backend line's text and its
  :class:`~morphmt.morphlex.Diagnostics`; :func:`postprocess_lines` does
  so for a corpus.

The tests compare ``morphmt`` with this model.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from morphmt.morphlex import Diagnostics, GenerationFailure
from morphmt.tagsets import (
    MalformedAnalysis,
    format_separator,
    is_czech_tag,
    parse_feature_seq,
    parse_stem_side,
)

MODES = ("baseline", "morphgen", "serialization", "german-stemmed", "german-stemmed-split")
MARKER = "@@"
SPLIT_MARKUP = ("NN", "ADJ")  # the stem markup a compound is split at

# The classes of a German stream token.
FEATURES, BARE, SEPARATOR, WORD = "features", "bare", "separator", "word"


class Dropped(NamedTuple):
    """A sentence that ``prepare`` drops, and why."""

    reason: str


def lexicon_document(rows, mods=()) -> str:
    """The lexicon TSV of the rows: ``@mod`` rows first, then the entries."""
    lines = [f"@mod\t{modifier}\t{form}" for modifier, form in mods]
    lines += ["\t".join(row) for row in rows]
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Token shapes
# ---------------------------------------------------------------------------


def tokens_of(line: str) -> list[str]:
    """The tokens of a line: the runs of characters other than space, tab
    and carriage return."""
    return re.findall("[^ \t\r]+", line)


def bare_token(token: str) -> tuple[str, str] | None:
    """``(lexeme, "[TAG]")`` of a ``lexeme[TAG]`` token, else None."""
    lexeme, bracket, rest = token.partition("[")
    if not bracket or not lexeme or any(c in "<>]" or c.isspace() for c in lexeme):
        return None
    try:
        features = parse_feature_seq(bracket + rest)
    except MalformedAnalysis:
        return None
    return (lexeme, bracket + rest) if features.kind == "bare" else None


def separator_markup(token: str) -> str | None:
    """The markup ``T`` of a ``§§<T>§§`` compound separator, else None."""
    markup = token[3:-3]
    if token != format_separator(markup) or not markup:
        return None
    return None if any(c in "<>" or c.isspace() for c in markup) else markup


def german_class(token: str) -> str:
    """Whether a German stream token is a feature sequence, a bare token,
    a compound separator or a word."""
    if token.startswith("<"):
        try:
            parse_feature_seq(token)
        except MalformedAnalysis:
            return WORD
        return FEATURES
    if bare_token(token) is not None:
        return BARE
    if separator_markup(token) is not None:
        return SEPARATOR
    return WORD


# ---------------------------------------------------------------------------
# The lexicon, row by row
# ---------------------------------------------------------------------------


def analyses(rows, surface: str) -> list[tuple[str, str]]:
    """The (tag, lemma) keys of the rows that produce ``surface``, sorted."""
    return sorted((tag, lemma) for lemma, tag, form in rows if form == surface)


def surface_of(rows, lemma: str, tag: str) -> str | None:
    for row_lemma, row_tag, surface in rows:
        if (row_lemma, row_tag) == (lemma, tag):
            return surface
    return None


def modifier_form(mods, lexeme: str) -> str | None:
    for modifier, form in mods:
        if modifier == lexeme:
            return form
    return None


def without_markup(lemma: str) -> str:
    """The lemma with its angle markup removed: the fallback output."""
    out, depth = "", 0
    for c in lemma:
        if c == "<":
            depth += 1
        elif c == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            out += c
    return out


# ---------------------------------------------------------------------------
# Context parse tags (German: POS-Case.Num.Gen, each feature optional)
# ---------------------------------------------------------------------------

_CONTEXT_VALUES = {
    "Fem": "gender", "Masc": "gender", "Neut": "gender",
    "Nom": "case", "Acc": "case", "Dat": "case", "Gen": "case",
    "Sg": "number", "Pl": "number",
}


def parse_context(context: str) -> tuple[str, dict[str, str]]:
    pos, dash, features = context.partition("-")
    constraints = {}
    for value in features.split(".") if dash else []:
        if value not in _CONTEXT_VALUES:
            raise ValueError(f"unknown context feature {value!r} in {context!r}")
        constraints[_CONTEXT_VALUES[value]] = value
    return pos, constraints


def fits(tag: str, pos: str, constraints: dict[str, str]) -> bool:
    """Whether a row's tag fits a parsed context; a positional tag never does."""
    if not tag.startswith(("<", "[")):
        return False
    features = parse_feature_seq(tag)
    kind = features.kind
    if kind == "bare":
        return pos.startswith(features.bare_tag) or features.bare_tag.startswith(pos)
    if kind == "verbal-finite":
        return "FIN" in pos and constraints.get("number", features.number) == features.number
    if kind == "infinitive":
        return "INF" in pos
    if kind == "participle":
        return "PP" in pos
    # A nominal sequence: its head names the POS, and NoGend fits any gender.
    gender = constraints.get("gender")
    return (
        pos.startswith(features.head.lstrip("+"))
        and (gender is None or features.gender in (gender, "NoGend"))
        and constraints.get("case", features.case) == features.case
        and constraints.get("number", features.number) == features.number
    )


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def split_tokens(lemma: str, tag: str) -> list[str] | None:
    """The split-mode tokens of an inflected stem and its tag, or None when
    the stem has no split point.  Raises MalformedAnalysis when the stem
    does not parse or a part reads as a separator or a feature sequence."""
    return split_segments(parse_stem_side(lemma), tag)


def split_segments(segments, tag: str) -> list[str] | None:
    """:func:`split_tokens` of a stem's parsed segments."""
    tokens, part = [], ""
    for segment in segments[:-1]:
        if segment.markup in SPLIT_MARKUP:
            tokens += [part + segment.lexeme, format_separator(segment.markup)]
            part = ""
        else:
            part += str(segment)
    if not tokens:
        return None
    tokens += [part + str(segments[-1]), tag]
    for i in range(0, len(tokens) - 1, 2):
        if german_class(tokens[i]) in (FEATURES, SEPARATOR):
            raise MalformedAnalysis(f"lexeme expected at {i} in {tuple(tokens)}")
    return tokens


def encode(tag: str, lemma: str, surface: str, mode: str) -> list[str]:
    """The tokens of a word whose analysis is the row ``(lemma, tag, surface)``."""
    if mode == "morphgen":
        # A lemma of two tokens would read back as two words.
        if re.search("[ \t\r]", lemma):
            raise MalformedAnalysis(f"lemma is not a single token: {lemma!r}")
        return [tag, lemma]
    if mode == "serialization":
        return [tag, surface]
    # A German word must read back as itself in postprocess.
    if not tag.startswith(("<", "[")):
        raise MalformedAnalysis("not a German analysis")
    if tag.startswith("["):
        token = lemma + tag
        if bare_token(token) is None:
            raise MalformedAnalysis(f"not a bare token: {token!r}")
        if lemma != surface:
            raise MalformedAnalysis(
                f"bare token {token!r} would read back as {lemma!r}, not {surface!r}"
            )
        return [token]
    # Both German modes cut the stem, as postprocess merges it from its parts.
    tokens = split_tokens(lemma, tag)
    if mode == "german-stemmed-split" and tokens is not None:
        return tokens
    return [lemma, tag]


def split_hyphens(word: str) -> list[str]:
    """A source word as ``--split-source-hyphens`` writes it: cut after every
    hyphen when it has a hyphen inside, not only at its ends, a trailing
    hyphen kept on the last part, so no part is empty."""
    if "-" not in word.strip("-"):
        return [word]
    return re.findall("[^-]*-|[^-]+", word)


def prepare(sentence: str, mode: str, rows=(), parse_tags=None) -> list[str] | Dropped:
    """The target tokens of one sentence before BPE, or why it is dropped.

    Each word takes the smallest (tag, lemma) key of its rows, or with a
    parse tag the smallest that fits it.  Every word is analysed before
    any is encoded, so a later unknown word drops a sentence whose
    earlier word cannot be encoded.
    """
    words = tokens_of(sentence)
    if mode == "baseline":
        return words
    if parse_tags is not None and len(parse_tags) != len(words):
        raise ValueError(f"{len(words)} tokens but {len(parse_tags)} parse tags")
    keys = []
    for i, word in enumerate(words):
        options = analyses(rows, word)
        if not options:
            return Dropped(f"no analysis for {word!r}")
        if parse_tags is not None:
            context = parse_context(parse_tags[i])
            fitting = [key for key in options if fits(key[0], *context)]
            if not fitting:
                return Dropped(
                    f"none of {len(options)} analyses is compatible with {parse_tags[i]!r}"
                )
            options = fitting
        keys.append(options[0])
    return [token for (tag, lemma), word in zip(keys, words)
            for token in encode(tag, lemma, word, mode)]


# ---------------------------------------------------------------------------
# postprocess
# ---------------------------------------------------------------------------


def merge_compound(stem: str, tag: str, mods, unknown: list[str]) -> str:
    """The stem to generate from: a compound's parts joined, each modifier
    in its in-compound form (verbatim and listed in ``unknown`` when the
    table lacks it), later parts lowercased, a noun head capitalized and an
    adjective head lowercased, and the head's own markup kept.  Raises
    MalformedAnalysis where :func:`split_tokens` does."""
    tokens = split_tokens(stem, tag)
    if tokens is None:
        return stem
    parts = []
    for lexeme in tokens[:-2:2]:
        form = modifier_form(mods, lexeme)
        if form is None:
            unknown.append(lexeme)
            form = lexeme
        parts.append(form)
    markup = parse_stem_side(stem)[-1].markup
    head = tokens[-2]
    parts.append(head if markup is None else head[: -len(f"<{markup}>")])
    merged = parts[0] + "".join(part[:1].lower() + part[1:] for part in parts[1:])
    features = parse_feature_seq(tag)
    if features.kind == "nominal" and features.head == "+NN":
        merged = merged[:1].upper() + merged[1:]
    elif features.kind == "nominal" and features.head == "+ADJ":
        merged = merged[:1].lower() + merged[1:]
    return merged if markup is None else f"{merged}<{markup}>"


def revert(line: str, index: int, diagnostics: Diagnostics) -> list[str]:
    """The words of a backend line: markers trimmed off its last token, one
    ``dangling-marker`` repair each, then every token that ends in ``@@``
    joined to the next."""
    tokens = tokens_of(line)
    while tokens and tokens[-1].endswith(MARKER):
        diagnostics.repairs.append((index, len(tokens) - 1, "dangling-marker"))
        tokens[-1] = tokens[-1][: -len(MARKER)]
    words, piece = [], ""
    for token in tokens:
        if token.endswith(MARKER):
            piece += token[: -len(MARKER)]
        else:
            words.append(piece + token)
            piece = ""
    if words and words[-1] == "":
        words.pop()  # a last token that was only markers
    return words


def rejoin(tokens: list[str], index: int, diagnostics: Diagnostics) -> list[str]:
    """``a §§<T>§§ b`` as ``a<T>b`` where two words flank the separator; any
    other separator is dropped as an ``orphan-separator`` repair at its
    position."""
    out = []
    i = 0
    while i < len(tokens):
        markup = separator_markup(tokens[i])
        if markup is None:
            out.append(tokens[i])
            i += 1
        elif out and german_class(out[-1]) == WORD and i + 1 < len(tokens) and (
            german_class(tokens[i + 1]) == WORD
        ):
            out[-1] = f"{out[-1]}<{markup}>{tokens[i + 1]}"
            i += 2
        else:
            diagnostics.repairs.append((index, i, "orphan-separator"))
            i += 1
    return out


def walk(tokens: list[str], mode: str):
    """The items of a stream, one by one, and its first strict error.

    An item is ``(kind, position, tag, word)``: kind ``pair``, ``bare``
    (German), ``dropped-tag`` or ``word-without-tag``.  Positional tags
    come before their word; a German stem comes before its features, and
    a separator is a word here.
    """
    german = mode.startswith("german")
    items = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        following = tokens[i + 1] if i + 1 < len(tokens) else None
        if not german and is_czech_tag(token):
            if following is not None and not is_czech_tag(following):
                items.append(("pair", i, token, following))
                i += 2
                continue
            items.append(("dropped-tag", i, token, ""))
        elif not german:
            items.append(("word-without-tag", i, "", token))
        elif german_class(token) == FEATURES:
            items.append(("dropped-tag", i, token, ""))
        elif german_class(token) == BARE:
            lexeme, tag = bare_token(token)
            items.append(("bare", i, tag, lexeme))
        elif following is not None and german_class(following) == FEATURES:
            items.append(("pair", i, following, token))
            i += 2
            continue
        else:
            items.append(("word-without-tag", i, "", token))
        i += 1
    if not german and len(tokens) % 2:
        return items, ("odd-length", len(tokens) - 1)
    for kind, position, _, _ in items:
        # The strict alternation: where the missing partner was expected.
        if kind == "word-without-tag":
            return items, ("tag-expected", position + 1 if german else position)
        if kind == "dropped-tag":
            return items, ("word-expected", position if german else position + 1)
    return items, None


def generate(rows, lemma: str, tag: str, index: int, diagnostics: Diagnostics) -> str:
    """The surface of (lemma, tag), or the lemma without markup, recorded
    as a fallback."""
    diagnostics.generated += 1
    surface = surface_of(rows, lemma, tag)
    if surface is not None:
        return surface
    known = any(row_lemma == lemma for row_lemma, _, _ in rows)
    reason = "incompatible-tag" if known else "unknown-lemma"
    diagnostics.fallbacks.append((index, GenerationFailure(lemma, tag, reason)))
    return without_markup(lemma)


def postprocess(line: str, mode: str, rows=(), mods=(), index: int = 0,
                diagnostics: Diagnostics | None = None) -> tuple[str, Diagnostics]:
    """The surface text of one backend line, its records added to
    ``diagnostics`` (a new one by default) at line ``index``.

    A dropped tag is left out and a word without a tag written as it is,
    each a repair; a bare token gives its lexeme.  A pair gives the
    generated surface (morphgen), its word (serialization) or the
    surface of its merged stem (German); a stem that cannot be merged is
    written as it is, an ``unparseable-stem`` repair.
    """
    if diagnostics is None:
        diagnostics = Diagnostics()
    words = revert(line, index, diagnostics)
    if mode == "german-stemmed-split":
        words = rejoin(words, index, diagnostics)
    if mode != "baseline":
        items, error = walk(words, mode)
        if error is not None:
            diagnostics.errors.append((index, *error))
        words = []
        for kind, position, tag, word in items:
            if kind in ("dropped-tag", "word-without-tag"):
                diagnostics.repairs.append((index, position, kind))
            if kind == "dropped-tag":
                continue
            if kind != "pair" or mode == "serialization":
                words.append(word)
            elif mode == "morphgen":
                words.append(generate(rows, word, tag, index, diagnostics))
            else:
                unknown = []
                try:
                    stem = merge_compound(word, tag, mods, unknown)
                except MalformedAnalysis:
                    diagnostics.repairs.append((index, position, "unparseable-stem"))
                    words.append(word)
                    continue
                diagnostics.unknown_modifiers += [(index, lexeme) for lexeme in unknown]
                words.append(generate(rows, stem, tag, index, diagnostics))
    diagnostics.lines += 1
    return " ".join(words), diagnostics


def postprocess_lines(lines, mode: str, rows=(), mods=()) -> tuple[list[str], Diagnostics]:
    """The text of each line, and the records of all lines, each at its index."""
    diagnostics = Diagnostics()
    texts = [postprocess(line, mode, rows, mods, index, diagnostics)[0]
             for index, line in enumerate(lines)]
    return texts, diagnostics
