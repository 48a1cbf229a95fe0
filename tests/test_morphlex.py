"""Lexicon loading, analysis, disambiguation and generation."""

import copy
import gc
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from morphmt.morphlex import (
    Diagnostics,
    GenerationFailure,
    LexiconConflict,
    LexiconParse,
    NoCompatibleAnalysis,
    ParadigmLexicon,
    REASON_INCOMPATIBLE_TAG,
    REASON_UNKNOWN_LEMMA,
    analyze,
    generate,
    generate_with_fallback,
    load_lexicon,
    parse_tag_text,
    select_analysis,
)
from morphmt.tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    format_tag,
    split_lines,
)

import spec
from conftest import VULKANISCH_CANDIDATES, entry_rows, lexicon_rows


def lexicon_of(*rows):
    return load_lexicon("\n".join("\t".join(row) for row in rows))


NINE_LEXICON = lexicon_of(
    *[("vulkanisch", tag, "vulkanischen") for tag in VULKANISCH_CANDIDATES]
)


class TestLoadLexicon:
    def test_pizza_row(self, czech_lexicon):
        assert generate(czech_lexicon, "pizza", "NNFS2-----A----") == "pizzy"

    def test_empty_document(self):
        lex = load_lexicon("")
        assert len(lex) == 0
        assert analyze(lex, "anything") == []

    def test_comments_and_blank_lines_skipped(self):
        lex = load_lexicon("# comment\n\na\tZ:-------------\tb\n")
        assert len(lex) == 1

    def test_row_starting_with_a_unicode_space_and_hash_is_no_comment(self):
        # U+00A0 is token content, so "#" does not start the line's first token.
        lex = load_lexicon("pizza\tNNFS2-----A----\tpizzy\n\xa0# x\tNNFS1-----A----\ty\n")
        assert analyze(lex, "y") == [("NNFS1-----A----", "\xa0# x")]

    @pytest.mark.parametrize("line", ["\xa0", "\xa0\xa0", "\u2028", "\x0c"])
    def test_line_of_unicode_spaces_is_no_blank_line(self, line):
        with pytest.raises(LexiconParse, match="^line 2: expected lemma<TAB>tag<TAB>surface"):
            load_lexicon(f"pizza\tNNFS2-----A----\tpizzy\n{line}\n")

    def test_separator_inside_a_surface(self):
        lex = load_lexicon("a\tZ:-------------\tb\u2028c\r\n")
        assert len(lex) == 1
        assert analyze(lex, "b\u2028c") == [("Z:-------------", "a")]

    def test_conflicting_rows_rejected(self):
        with pytest.raises(LexiconConflict):
            lexicon_of(("a", "Z:-------------", "x"), ("a", "Z:-------------", "y"))

    def test_identical_duplicate_rows_tolerated(self):
        lex = lexicon_of(("a", "Z:-------------", "x"), ("a", "Z:-------------", "x"))
        assert len(lex) == 1

    def test_malformed_row_rejected(self):
        with pytest.raises(LexiconParse):
            load_lexicon("just one column\n")
        with pytest.raises(LexiconParse, match="^line 2: bad tag 'not-a-tag': "):
            load_lexicon("# comment\na\tnot-a-tag\tb\n")

    def test_modifier_rows(self, german_lexicon):
        assert german_lexicon.modifier_table["Meer"] == "Meeres"
        assert german_lexicon.modifier_table["Haus"] == "Häuser"

    def test_conflicting_modifier_rows_rejected(self):
        with pytest.raises(LexiconConflict):
            load_lexicon("@mod\tMeer\tMeeres\n@mod\tMeer\tMeeren\n")

    @pytest.mark.parametrize("document, message", [
        ("a\tNNFS1-----A----\tx\nb\tNNFS1-----A----\ty\na\tNNFS1-----A----\tz\n",
         "line 3: a + NNFS1-----A---- maps to both 'x' and 'z'"),
        ("# c\n1\tNNFS1-----A----\tx\n1\tNNFS1-----A----\ty\n",
         "line 3: 1 + NNFS1-----A---- maps to both 'x' and 'y'"),
        ("@mod\tM\tx\n\n@mod\tM\ty\n", "line 3: modifier M maps to both 'x' and 'y'"),
    ])
    def test_conflict_names_its_line(self, document, message):
        with pytest.raises(LexiconConflict) as info:
            load_lexicon(document)
        assert str(info.value) == message

    def test_direct_conflicts_name_no_line(self):
        lex = lexicon_of(("a", "NNFS1-----A----", "x"), ("@mod", "M", "x"))
        with pytest.raises(LexiconConflict) as info:
            lex.add_entry("a", "NNFS1-----A----", "z")
        assert str(info.value) == "a + NNFS1-----A---- maps to both 'x' and 'z'"
        with pytest.raises(LexiconConflict) as info:
            lex.add_modifier("M", "y")
        assert str(info.value) == "modifier M maps to both 'x' and 'y'"


def load_rows(document):
    """Oracle for load_lexicon: one add_entry call per row, raising at the
    first bad line."""
    lex = ParadigmLexicon()
    for lineno, line in enumerate(split_lines(document), start=1):
        # Blank or a comment by the token separators: space, tab and "\r".
        if line.lstrip(" \t\r")[:1] in ("", "#"):
            continue
        columns = line.split("\t")
        if columns[0] == "@mod":
            if len(columns) != 3:
                raise LexiconParse(
                    f"line {lineno}: @mod rows need modifier and form, got {line!r}"
                )
            if not columns[1] or not columns[2]:
                raise LexiconParse(f"line {lineno}: empty modifier or form")
            try:
                lex.add_modifier(columns[1], columns[2])
            except LexiconConflict as exc:
                raise LexiconConflict(f"line {lineno}: {exc}") from None
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
        except LexiconConflict as exc:
            raise LexiconConflict(f"line {lineno}: {exc}") from None
    return lex


def loaded_state(lex, document):
    """What the public accessors say about every field of ``document``,
    read as a lemma, a tag text and a surface."""
    fields = sorted({field for line in split_lines(document) for field in line.split("\t")})
    return (
        len(lex),
        [lex.surface_for(lemma, tag) for tag in fields for lemma in fields],
        [lex.knows_lemma(lemma) for lemma in fields],
        [analyze(lex, surface) for surface in fields],
        dict(lex._tags),
        list(lex.modifier_table.items()),
    )


def load_outcome(loader, document):
    """The loaded state, or the type and message of the load's error."""
    try:
        return loaded_state(loader(document), document)
    except (LexiconParse, LexiconConflict) as exc:
        return type(exc), str(exc)


# Fields that are empty, start with whitespace or "#", hold a Unicode
# separator or "\r", or repeat, so rows collide, conflict and go bad.
LEXICON_FIELDS = ["a", "b", "", " a", "#a", " #a", "\xa0#a", "a\x85", "a\u2028b", "b\r", "@mod"]
LEXICON_TAGS = [
    "NNFS2-----A----", "NNFS1-----A----", "Z:-------------", "C=-------------",
    "[KON]", "<+NN><Fem><Acc><Sg><NA>", "NN", "<bad", "",
]
LEXICON_SURFACES = ["x", "y", "", " ", "x\u2028", "y\x85"]
lexicon_row = st.tuples(
    st.sampled_from(LEXICON_FIELDS), st.sampled_from(LEXICON_TAGS), st.sampled_from(LEXICON_SURFACES)
).map("\t".join)
lexicon_line = st.one_of(
    lexicon_row,
    lexicon_row,
    st.tuples(st.sampled_from(LEXICON_FIELDS), st.sampled_from(LEXICON_SURFACES)).map(
        lambda pair: "@mod\t" + "\t".join(pair)
    ),
    st.sampled_from([
        "", " ", "\t", "\x0c", "\x85", "\xa0", "\u2028", "\t\t", " \t \t ", "# comment", "  # indented",
        "\t# tab-indented\tNNFS2-----A----\tx", "a\tNNFS2-----A----", "a\tNNFS2-----A----\tx\ty",
        "@mod\ta", "@mod\ta\tb\tc", " a\tNNFS2-----A----\tx",
    ]),
)
lexicon_document = st.tuples(
    st.lists(lexicon_line, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans()
).map(lambda doc: doc[1].join(doc[0]) + (doc[1] if doc[2] else ""))


class TestLoadMatchesRowLoader:
    """load_lexicon against the row-by-row add_entry loader."""

    @settings(max_examples=500)
    @given(lexicon_document)
    def test_same_lexicon_or_same_error(self, document):
        assert load_outcome(load_lexicon, document) == load_outcome(load_rows, document)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(
        st.sampled_from(["a", "b", "ab"]),
        st.sampled_from(["NNFS2-----A----", "[KON]", "<+NN><Fem><Acc><Sg><NA>"]),
        st.sampled_from(["x", "y"]),
    ), max_size=8))
    def test_regular_rows_load(self, rows):
        # One surface per (lemma, tag), so no row conflicts.
        rows = [(lemma, tag, f"{lemma}{tag}") for lemma, tag, _ in rows]
        document = "# rows\n\n  # indented\n \t \n" + "".join("\t".join(row) + "\n" for row in rows)
        document += "@mod\tMeer\tMeeres\n@mod\tMeer\tMeeres\n"
        assert load_outcome(load_lexicon, document) == load_outcome(load_rows, document)
        assert len(load_lexicon(document)) == len(set(rows))

    @pytest.mark.parametrize("document, error", [
        ("  # indented comment\n \t \t \na\tNNFS2-----A----\tx\n", None),
        ("a\tNN\tx\nb\tc\n", "line 1: bad tag 'NN': "),
        ("a\tNNFS2-----A----\tx\nb\tc\n", "line 2: expected lemma<TAB>tag<TAB>surface"),
        ("a\tNNFS2-----A----\tx\na\tNNFS2-----A----\ty\nb\tNN\tx\n", "line 2: a + NNFS2-----A---- maps to both"),
        ("@mod\tM\tx\n@mod\tM\ty\n\tNN\tx\n", "line 2: modifier M maps to both"),
        ("\tNNFS2-----A----\tx\n", "line 1: empty lemma or surface"),
        ("@mod\t\t\n", "line 1: empty modifier or form"),
        ("a\tNNFS2-----A----\tx\n@mod\tHaus\t\n", "line 2: empty modifier or form"),
        ("@mod\t\tHäuser\n", "line 1: empty modifier or form"),
        (" #a\tNNFS2-----A----\tx\n", None),
        ("\xa0\n", "line 1: expected lemma<TAB>tag<TAB>surface"),
    ])
    def test_first_bad_line_decides(self, document, error):
        outcome = load_outcome(load_lexicon, document)
        assert outcome == load_outcome(load_rows, document)
        if error is None:
            assert not isinstance(outcome[0], type)  # a state, not an error
        else:
            assert outcome[1].startswith(error)


# Rows sharing surfaces across lemmas and tags, so the order needs both keys.
SHARED_SURFACE_ROWS = [
    (lemma, tag, surface)
    for surface, tags in (
        ("ženy", ("NNFS2-----A----", "NNFP1-----A----", "NNFP4-----A----")),
        ("hrady", ("NNIP1-----A----", "NNIP4-----A----", "NNIP5-----A----")),
    )
    for lemma in ("žena", "hrad", "brada")
    for tag in tags
]


def candidate_order(lex, rows):
    return {
        surface: [(lemma, tag_text) for tag_text, lemma in analyze(lex, surface)]
        for lemma, _, surface in rows
        if lemma != "@mod"
    }


class TestCandidateOrder:
    @pytest.mark.parametrize("name", ["czech_toy.tsv", "german_toy.tsv", None])
    def test_independent_of_row_order(self, name):
        rows = lexicon_rows(name) if name else SHARED_SURFACE_ROWS
        expected = candidate_order(lexicon_of(*rows), rows)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert candidate_order(lexicon_of(*shuffled), rows) == expected

    @given(st.permutations(SHARED_SURFACE_ROWS))
    def test_add_entry_matches_load_lexicon(self, rows):
        direct = ParadigmLexicon()
        for lemma, tag, surface in rows:
            direct.add_entry(lemma, tag, surface)
        expected = candidate_order(lexicon_of(*SHARED_SURFACE_ROWS), SHARED_SURFACE_ROWS)
        assert candidate_order(direct, SHARED_SURFACE_ROWS) == expected
        assert expected["ženy"][:3] == [
            ("brada", "NNFP1-----A----"), ("hrad", "NNFP1-----A----"), ("žena", "NNFP1-----A----")
        ]


class TestAnalyze:
    def test_trifft(self, german_lexicon):
        assert analyze(german_lexicon, "trifft") == [("<+V><3><Sg><Pres><Ind>", "treffen")]

    def test_unknown_surface(self, german_lexicon):
        assert analyze(german_lexicon, "xyzzy") == []

    def test_nine_candidates_canonically_ordered(self):
        keys = analyze(NINE_LEXICON, "vulkanischen")
        assert [tag_text for tag_text, _ in keys] == VULKANISCH_CANDIDATES

    def test_candidates_carry_surface(self, czech_lexicon):
        # A key is a row of the surface: it generates the surface again.
        [(tag_text, lemma)] = analyze(czech_lexicon, "pizzy")
        assert lemma == "pizza"
        assert generate(czech_lexicon, lemma, tag_text) == "pizzy"


class TestDisambiguate:
    """select_analysis against a context parse tag."""

    def test_bolded_analysis_wins(self):
        picked = select_analysis(NINE_LEXICON, "vulkanischen", "ADJA-Dat.Sg.Fem")
        assert picked == ("<+ADJ><Pos><NoGend><Dat><Sg><Wk>", "vulkanisch")

    def test_single_compatible_candidate(self):
        lex = lexicon_of(("Wolke", "<+NN><Fem><Acc><Sg><NA>", "Wolke"))
        assert select_analysis(lex, "Wolke", "NN-Acc.Sg.Fem") == ("<+NN><Fem><Acc><Sg><NA>", "Wolke")

    def test_no_compatible_analysis(self):
        lex = lexicon_of(
            ("Wolke", "<+NN><Fem><Acc><Sg><NA>", "Wolke"),
            ("Wolke", "<+NN><Fem><Dat><Sg><NA>", "Wolke"),
        )
        with pytest.raises(NoCompatibleAnalysis):
            select_analysis(lex, "Wolke", "NN-Acc.Pl.Fem")

    def test_explicit_gender_must_match(self):
        lex = lexicon_of(("dicht", "<+ADJ><Neut><Dat><Sg><St>", "dichtem"))
        with pytest.raises(NoCompatibleAnalysis):
            select_analysis(lex, "dichtem", "ADJA-Dat.Sg.Fem")

    def test_nogend_wildcard(self):
        for tag_text in ("<+ADJ><Fem><Dat><Sg><Wk>", "<+ADJ><NoGend><Dat><Sg><Wk>"):
            lex = lexicon_of(("x", tag_text, "xen"))
            for context in ("ADJA-Dat.Sg.Fem", "ADJA-Dat.Sg"):
                assert select_analysis(lex, "xen", context) == (tag_text, "x")

    def test_bare_pos_context(self):
        lex = lexicon_of(("treffen", "<+V><3><Sg><Pres><Ind>", "trifft"))
        assert select_analysis(lex, "trifft", "VVFIN-Sg") == ("<+V><3><Sg><Pres><Ind>", "treffen")
        with pytest.raises(NoCompatibleAnalysis):
            select_analysis(lex, "trifft", "VVFIN-Pl")

    def test_verbal_vs_nominal_pos(self):
        verbal = ("<+V><3><Sg><Pres><Ind>", "laufen")
        nominal = ("<+NN><Masc><Nom><Sg><NA>", "Lauf")
        lex = lexicon_of(*[(lemma, tag_text, "Lauf") for tag_text, lemma in (verbal, nominal)])
        assert analyze(lex, "Lauf") == [nominal, verbal]
        assert select_analysis(lex, "Lauf", "VVFIN-Sg") == verbal
        assert select_analysis(lex, "Lauf", "NN-Nom.Sg.Masc") == nominal

    def test_result_is_a_candidate(self):
        picked = select_analysis(NINE_LEXICON, "vulkanischen", "ADJA-Dat.Sg.Fem")
        assert picked in analyze(NINE_LEXICON, "vulkanischen")

    def test_empty_candidates_rejected(self):
        with pytest.raises(MalformedAnalysis, match="^no analysis for 'xyzzy'$"):
            select_analysis(NINE_LEXICON, "xyzzy", "NN")


class TestGenerate:
    def test_trifft(self, german_lexicon):
        assert generate(german_lexicon, "treffen", "<+V><3><Sg><Pres><Ind>") == "trifft"

    def test_blaues(self, german_lexicon):
        assert generate(german_lexicon, "blau", "<+ADJ><Neut><Nom><Sg><St>") == "blaues"

    def test_unknown_lemma(self, czech_lexicon):
        result = generate(czech_lexicon, "Braper", "NNFS2-----A----")
        assert isinstance(result, GenerationFailure)
        assert result.reason == REASON_UNKNOWN_LEMMA

    def test_incompatible_tag(self, czech_lexicon):
        verbal_tag = "VB-P---3P-AA---"
        # The toy lexicon pairs "pizza" only with nominal tags: exhaustive check.
        assert all(
            tag != verbal_tag for lemma, tag, _ in entry_rows("czech_toy.tsv") if lemma == "pizza"
        )
        result = generate(czech_lexicon, "pizza", verbal_tag)
        assert isinstance(result, GenerationFailure)
        assert result.reason == REASON_INCOMPATIBLE_TAG

    def test_deterministic(self, czech_lexicon):
        tag = "NNIP1-----A----"
        assert generate(czech_lexicon, "milión", tag) == generate(
            czech_lexicon, "milión", tag
        )

    def test_round_trip_over_all_entries(self, czech_lexicon, german_lexicon):
        for lex, name in ((czech_lexicon, "czech_toy.tsv"), (german_lexicon, "german_toy.tsv")):
            for lemma, tag, surface in entry_rows(name):
                assert generate(lex, lemma, tag) == surface
                assert (tag, lemma) in analyze(lex, surface)


@st.composite
def diagnostics_values(draw):
    """A Diagnostics of up to 4 lines whose records sit on those lines."""
    lines = draw(st.integers(0, 4))
    if lines == 0:
        return Diagnostics(generated=draw(st.integers(0, 3)))
    line = st.integers(0, lines - 1)
    failure = st.builds(
        GenerationFailure,
        st.sampled_from(["pizza", "Braper"]),
        st.sampled_from(["NNFS1-----A----", "<+NN><Masc><Nom><Sg><NA>"]),
        st.sampled_from([REASON_UNKNOWN_LEMMA, REASON_INCOMPATIBLE_TAG]),
    )
    position = st.integers(0, 5)
    event = st.sampled_from(["dropped-tag", "dangling-marker"])
    kind = st.sampled_from(["odd-length", "tag-expected"])
    lexeme = st.sampled_from(["Nacht", "Haus"])
    return Diagnostics(
        lines=lines,
        generated=draw(st.integers(0, 6)),
        fallbacks=draw(st.lists(st.tuples(line, failure), max_size=3)),
        repairs=draw(st.lists(st.tuples(line, position, event), max_size=3)),
        errors=draw(st.lists(st.tuples(line, kind, position), max_size=3)),
        unknown_modifiers=draw(st.lists(st.tuples(line, lexeme), max_size=3)),
    )


class TestGenerateWithFallback:
    def test_success_leaves_report_clean(self, czech_lexicon):
        report = Diagnostics()
        tag = "NNFS2-----A----"
        assert generate_with_fallback(czech_lexicon, "pizza", tag, report) == "pizzy"
        assert report.generated == 1
        assert report.fallbacks == []

    def test_unknown_proper_name_falls_back(self, czech_lexicon):
        report = Diagnostics()
        tag = "NNFS1-----A----"
        assert generate_with_fallback(czech_lexicon, "Braper", tag, report) == "Braper"
        assert report.fallbacks == [
            (0, GenerationFailure("Braper", "NNFS1-----A----", REASON_UNKNOWN_LEMMA))
        ]

    def test_incompatible_tag_falls_back(self, czech_lexicon):
        report = Diagnostics()
        tag = "VB-P---3P-AA---"
        assert generate_with_fallback(czech_lexicon, "pizza", tag, report) == "pizza"
        assert report.fallbacks[0][1].reason == REASON_INCOMPATIBLE_TAG

    def test_fallback_is_keyed_by_the_current_line(self, czech_lexicon):
        report = Diagnostics(lines=3)
        tag = "NNFS1-----A----"
        generate_with_fallback(czech_lexicon, "Braper", tag, report)
        assert [line for line, _ in report.fallbacks] == [3]

    def test_markup_stripped_on_fallback(self, german_lexicon):
        report = Diagnostics()
        tag = "<+NN><Neut><Gen><Sg><NA>"
        out = generate_with_fallback(german_lexicon, "Parunelogramm<NN>", tag, report)
        assert out == "Parunelogramm"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    def test_never_fails(self, czech_lexicon, lemma):
        report = Diagnostics()
        tag = "NNFS2-----A----"
        out = generate_with_fallback(czech_lexicon, lemma, tag, report)
        assert out
        assert report.generated == 1

    @settings(max_examples=200)
    @given(st.lists(diagnostics_values(), min_size=3, max_size=3))
    def test_report_merge_is_associative_sum(self, parts):
        a, b, c = parts
        left = Diagnostics()
        for part in (a, b, c):
            left.merge(part)
        bc = copy.deepcopy(b)
        bc.merge(c)
        right = copy.deepcopy(a)
        right.merge(bc)
        assert left == right
        # The sum concatenates the runs: counts add up, and each record
        # moves past the lines before it.
        assert left.lines == a.lines + b.lines + c.lines
        assert left.generated == a.generated + b.generated + c.generated
        offsets = (0, a.lines, a.lines + b.lines)
        assert left.repairs == [
            (offset + line, pos, event)
            for part, offset in zip(parts, offsets)
            for line, pos, event in part.repairs
        ]
        assert left.malformed_lines == sum(part.malformed_lines for part in parts)
        empty = Diagnostics()
        empty.merge(a)
        assert empty == a

    def test_report_text_shape(self):
        report = Diagnostics(generated=2)
        report.fallbacks.append(
            (0, GenerationFailure("Braper", "NNFS1-----A----", REASON_UNKNOWN_LEMMA))
        )
        assert report.to_text() == (
            "generated: 2\nfallbacks: 1\n  unknown-lemma\tBraper\tNNFS1-----A----"
        )
        report.lines = 2
        report.errors += [(1, "odd-length", 2), (0, "tag-expected", 0)]
        assert report.to_text().split("\n")[3:] == [
            "lines checked: 2",
            "malformed lines: 2",
            "  odd-length: 1",
            "  tag-expected: 1",
            "  line 1: odd-length at token 2",
            "  line 0: tag-expected at token 0",
        ]


@st.composite
def random_lexicon_rows(draw):
    n = draw(st.integers(1, 12))
    rows = []
    seen_keys = set()
    seen_surfaces_per_key = {}
    for i in range(n):
        lemma = draw(st.text(alphabet="abcdef", min_size=1, max_size=4))
        case = draw(st.sampled_from("1234567"))
        tag = f"NNFS{case}-----A----"
        if (lemma, tag) in seen_keys:
            continue
        seen_keys.add((lemma, tag))
        surface = f"{lemma}{case}x"
        seen_surfaces_per_key[(lemma, tag)] = surface
        rows.append((lemma, tag, surface))
    return rows


class TestLexiconProperties:
    @given(random_lexicon_rows())
    def test_forward_inverse_mirror(self, rows):
        lex = load_lexicon("\n".join("\t".join(r) for r in rows))
        for lemma, tag_text, surface in rows:
            assert generate(lex, lemma, tag_text) == surface
            assert (tag_text, lemma) in analyze(lex, surface)
        # every inverse entry is mirrored in the forward index
        for _, _, surface in rows:
            for tag_text, lemma in lex.keys_for(surface):
                assert lex.surface_for(lemma, tag_text) == surface


# Czech and German tag texts, lemmas and surfaces from small pools, so rows
# share surfaces, lemmas meet other tags and some rows conflict.
MIXED_TAGS = [
    "NNFS2-----A----", "NNFP1-----A----", "VB-P---3P-AA---", "Z:-------------",
    "<+NN><Fem><Acc><Sg><NA>", "<+ADJ><Pos><NoGend><Dat><Sg><Wk>",
    "<+V><3><Sg><Pres><Ind>", "[KON]",
]
MIXED_LEMMAS = ["žena", "hrad", "Wolke", "die<Def>", "und", "vulkanisch"]
MIXED_SURFACES = ["ženy", "hrady", "Wolke", "und", "vulkanischen"]
mixed_rows = st.tuples(
    st.sampled_from(MIXED_LEMMAS), st.sampled_from(MIXED_TAGS), st.sampled_from(MIXED_SURFACES)
)


class TestTextKeyedLexicon:
    # At least two rounds of (add rows, then analyze), so rows are also
    # added to a lexicon that has already answered a query.
    @settings(max_examples=200)
    @given(st.lists(
        st.tuples(st.lists(mixed_rows, min_size=1, max_size=6),
                  st.lists(st.sampled_from(MIXED_SURFACES), min_size=1, max_size=3)),
        min_size=2, max_size=4,
    ))
    def test_matches_a_sorted_model(self, rounds):
        lex = ParadigmLexicon()
        model: dict[tuple[str, str], str] = {}  # (tag text, lemma) -> surface
        parsed = {}  # tag text -> the one parsed tag the lexicon hands out
        for rows, queries in rounds:
            for lemma, tag_text, surface in rows:
                if model.get((tag_text, lemma), surface) != surface:
                    with pytest.raises(LexiconConflict):
                        lex.add_entry(lemma, tag_text, surface)
                else:
                    lex.add_entry(lemma, tag_text, surface)
                    model[(tag_text, lemma)] = surface
            for surface in queries:
                keys = analyze(lex, surface)
                assert keys == sorted(key for key, form in model.items() if form == surface)
                for tag_text, _ in keys:
                    tag = lex._tags[tag_text]
                    assert parsed.setdefault(tag_text, tag) is tag
                    assert tag == parse_tag_text(tag_text)
                    if isinstance(tag, GermanFeatureSeq):
                        assert format_tag(tag) == tag_text
                    else:  # a Czech tag is its text
                        assert tag == tag_text and type(tag) is str
        assert len(lex) == len(model)
        lemmas = {lemma for _, lemma in model}
        for tag_text in MIXED_TAGS:
            for lemma in MIXED_LEMMAS + ["Braper"]:
                result = generate(lex, lemma, tag_text)
                if (tag_text, lemma) in model:
                    assert result == model[(tag_text, lemma)]
                elif lemma in lemmas:
                    assert result == GenerationFailure(lemma, tag_text, REASON_INCOMPATIBLE_TAG)
                else:
                    assert result == GenerationFailure(lemma, tag_text, REASON_UNKNOWN_LEMMA)

    def test_row_added_after_a_query_is_found(self):
        lex = lexicon_of(("hrad", "NNIP1-----A----", "hrady"))
        assert [lemma for _, lemma in analyze(lex, "hrady")] == ["hrad"]
        lex.add_entry("brada", "NNIP1-----A----", "hrady")
        assert [lemma for _, lemma in analyze(lex, "hrady")] == ["brada", "hrad"]
        assert len(lex) == 2

    def test_bad_tag_text_rejected_and_not_stored(self):
        lex = ParadigmLexicon()
        with pytest.raises(MalformedTag):
            lex.add_entry("a", "NN", "b")
        assert len(lex) == 0
        assert generate(lex, "a", "NN") == GenerationFailure("a", "NN", REASON_UNKNOWN_LEMMA)


def assert_matches_rows(lex, model):
    """Every public accessor of ``lex`` against ``model``, (tag text, lemma)
    -> surface, over the MIXED pools and names no row has."""
    lemmas = {lemma for _, lemma in model}
    assert len(lex) == len(model)
    for lemma in MIXED_LEMMAS + ["Braper"]:
        assert lex.knows_lemma(lemma) == (lemma in lemmas)
        for tag_text in MIXED_TAGS + ["NNFS7-----A----"]:
            assert lex.surface_for(lemma, tag_text) == model.get((tag_text, lemma))
    for surface in MIXED_SURFACES + ["xyzzy"]:
        keys = sorted(key for key, form in model.items() if form == surface)
        assert sorted(lex.keys_for(surface)) == keys
        assert analyze(lex, surface) == keys
        assert all(lex._tags[tag_text] == parse_tag_text(tag_text) for tag_text, _ in keys)


class TestPublicAccessors:
    # A loaded document, then adds, queries and pickle round trips in any
    # order, so rows also arrive after queries and after unpickling.
    @settings(max_examples=200)
    @given(
        st.lists(mixed_rows, max_size=8),
        st.lists(st.one_of(
            mixed_rows.map(lambda row: ("add", row)),
            st.sampled_from(MIXED_SURFACES).map(lambda surface: ("query", surface)),
            st.just(("pickle", None)),
        ), max_size=12),
    )
    def test_match_a_dict_of_rows(self, loaded, operations):
        model = {(tag_text, lemma): surface for lemma, tag_text, surface in loaded}
        lex = load_lexicon("".join(f"{lemma}\t{tag}\t{surface}\n" for (tag, lemma), surface in model.items()))
        assert_matches_rows(lex, model)
        for operation, argument in operations:
            if operation == "add":
                lemma, tag_text, surface = argument
                existing = model.get((tag_text, lemma))
                if existing not in (None, surface):
                    with pytest.raises(LexiconConflict, match=f"^{lemma} \\+ "):
                        lex.add_entry(lemma, tag_text, surface)
                else:
                    lex.add_entry(lemma, tag_text, surface)
                    model[(tag_text, lemma)] = surface
            elif operation == "query":
                lex.keys_for(argument)
            else:
                lex = pickle.loads(pickle.dumps(lex))
            assert_matches_rows(lex, model)

    def test_lemma_strings_are_shared(self):
        lex = load_lexicon("".join(
            f"{lemma}\t{tag}\t{lemma}{case}\n"
            for lemma in ("hrad", "žena") for case, tag in enumerate(MIXED_TAGS)
        ))
        keys = lex.keys_for("hrad0") + lex.keys_for("hrad5")
        assert keys[0][1] is keys[1][1]
        unpickled = pickle.loads(pickle.dumps(lex))
        keys = unpickled.keys_for("hrad0") + unpickled.keys_for("hrad5")
        assert keys[0][1] is keys[1][1]


def retained_bytes(build):
    """Bytes that ``build()``'s result holds, traced by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        value = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del value
    return size


def test_rows_retain_at_most_half_the_key_tuple_layout():
    # A Czech-shaped lexicon: 1 430 lemmas, each with the 14 case forms
    # of one paradigm, 20 020 rows.
    rng = random.Random(5)
    tags = [f"NNF{number}{case}-----A----" for number in "SP" for case in "1234567"]
    lemmas = sorted({"".join(rng.choices("abcdeěfhkmnorsštuvyž", k=rng.randint(4, 10))) for _ in range(1500)})[:1430]
    document = "".join(
        f"{lemma}\t{tag}\t{lemma[:-1]}{'aeiouyáéíý'[i % 10]}{'' if i < 7 else 'ch'}\n"
        for lemma in lemmas for i, tag in enumerate(tags)
    )
    lines = split_lines(document)

    def key_tuples():
        forward = {}
        for line in lines:
            lemma, tag_text, surface = line.split("\t")
            forward[(tag_text, lemma)] = surface
        return forward

    lexicon = retained_bytes(lambda: load_lexicon(document))
    old = retained_bytes(key_tuples)
    assert len(load_lexicon(document)) == len(key_tuples()) == 20020
    assert lexicon <= old / 2, (lexicon, old)


def add(lex, rows, row):
    """Add a row to the lexicon and, unless it conflicts, to the reference
    model's rows."""
    try:
        lex.add_entry(*row)
    except LexiconConflict:
        return
    if row not in rows:
        rows.append(row)


class TestIndexPerSurface:
    # Adds and analyses interleaved at random, so rows also arrive after
    # queries, and queries name surfaces no row has.
    @settings(max_examples=200)
    @given(st.lists(
        st.one_of(
            mixed_rows.map(lambda row: ("add", row)),
            st.sampled_from(MIXED_SURFACES + ["xyzzy"]).map(lambda surface: ("analyze", surface)),
        ),
        max_size=25,
    ))
    def test_matches_the_eager_index(self, operations):
        lex, rows = ParadigmLexicon(), []
        for operation, argument in operations:
            if operation == "add":
                add(lex, rows, argument)
            else:
                keys = analyze(lex, argument)
                assert keys == spec.analyses(rows, argument)
                keys.clear()  # callers get a copy
                assert analyze(lex, argument) == spec.analyses(rows, argument)
        # The surface index holds every row, also those added after a query.
        for surface in MIXED_SURFACES + ["xyzzy"]:
            assert sorted(lex.keys_for(surface)) == spec.analyses(rows, surface)
        assert len(lex) == len(rows)

    def test_row_added_after_a_query(self):
        lex, rows = ParadigmLexicon(), []
        add(lex, rows, ("hrad", "NNIP1-----A----", "hrady"))
        analyze(lex, "hrady")
        analyze(lex, "hradu")
        add(lex, rows, ("hrad", "NNIS2-----A----", "hradu"))
        add(lex, rows, ("brada", "NNIP1-----A----", "hrady"))
        for surface in ("hrady", "hradu", "brady"):
            assert analyze(lex, surface) == spec.analyses(rows, surface)
        assert [lemma for _, lemma in analyze(lex, "hrady")] == ["brada", "hrad"]


def oracle_select(rows, surface, context):
    """The reference model's pick: the smallest key of the surface's rows,
    or the smallest that fits the context parse tag."""
    options = spec.analyses(rows, surface)
    if not options:
        raise MalformedAnalysis(f"no analysis for {surface!r}")
    if context is None:
        return options[0]
    parsed = spec.parse_context(context)
    fitting = [key for key in options if spec.fits(key[0], *parsed)]
    if not fitting:
        raise NoCompatibleAnalysis(
            f"none of {len(options)} analyses is compatible with {context!r}"
        )
    return fitting[0]


def outcome_of(function, *args):
    try:
        return function(*args)
    except (ValueError, LookupError) as exc:
        return type(exc), str(exc)


# German contexts that fit some MIXED_TAGS, one that fits none and a bad one.
MIXED_CONTEXTS = [None, "NN-Acc.Sg.Fem", "ADJA-Dat.Sg", "VVFIN-Sg", "KON", "NN-Nom", "NN-Foo"]


GERMAN_CONTEXTS = st.tuples(
    st.sampled_from(["NN", "ADJA", "ART", "VVFIN", "VVPP", "VVINF", "KON", "APPR", "PIS", "$."]),
    st.lists(st.sampled_from(["Fem", "Masc", "Neut", "Nom", "Acc", "Dat", "Gen", "Sg", "Pl"]),
             max_size=3),
).map(lambda context: "-".join([context[0], ".".join(context[1])]) if context[1] else context[0])


class TestSelectAnalysis:
    # Adds and selections interleaved at random, so rows also arrive after
    # queries, and queries name surfaces no row has.
    @settings(max_examples=200)
    @given(st.lists(
        st.one_of(
            mixed_rows.map(lambda row: ("add", row)),
            st.tuples(st.sampled_from(MIXED_SURFACES + ["xyzzy"]), st.sampled_from(MIXED_CONTEXTS)),
        ),
        max_size=25,
    ))
    def test_matches_the_candidate_list(self, operations):
        lex, rows = ParadigmLexicon(), []
        for operation, argument in operations:
            if operation == "add":
                add(lex, rows, argument)
            else:
                expected = outcome_of(oracle_select, rows, operation, argument)
                assert outcome_of(select_analysis, lex, operation, argument) == expected

    # Parse tags from the German contexts' parts, often fitting no
    # candidate, over mixed rows and the nine analyses of "vulkanischen".
    @settings(max_examples=200)
    @given(
        st.lists(mixed_rows, max_size=10),
        st.lists(st.tuples(st.sampled_from(MIXED_SURFACES + ["vulkanischen"]), GERMAN_CONTEXTS),
                 min_size=1, max_size=5),
    )
    def test_context_picks_what_disambiguate_picked(self, rows, queries):
        lex, added = ParadigmLexicon(), []
        for row in rows + [("vulkanisch", tag, "vulkanischen") for tag in VULKANISCH_CANDIDATES]:
            add(lex, added, row)
        for surface, context in queries:
            expected = outcome_of(oracle_select, added, surface, context)
            assert outcome_of(select_analysis, lex, surface, context) == expected

    def test_no_compatible_analysis_counts_the_keys(self):
        with pytest.raises(NoCompatibleAnalysis) as info:
            select_analysis(NINE_LEXICON, "vulkanischen", "VVFIN-Sg")
        assert str(info.value) == "none of 9 analyses is compatible with 'VVFIN-Sg'"

    def test_a_bad_context_fails_every_time(self, german_lexicon):
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                select_analysis(german_lexicon, "Wolke", "NN-Foo")
            assert str(info.value) == "unknown context feature 'Foo' in 'NN-Foo'"
        assert select_analysis(german_lexicon, "Wolke", "NN-Acc.Sg.Fem") == (
            "<+NN><Fem><Acc><Sg><NA>", "Wolke"
        )
