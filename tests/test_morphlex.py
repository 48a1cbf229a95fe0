"""Lexicon loading, analysis, disambiguation and generation."""

import copy
import random

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
    disambiguate,
    generate,
    generate_with_fallback,
    load_lexicon,
    parse_tag_text,
)
from morphmt.tagsets import MalformedTag, MorphAnalysis, parse_feature_seq

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

    def test_separator_inside_a_surface(self):
        lex = load_lexicon("a\tZ:-------------\tb\u2028c\r\n")
        assert len(lex) == 1
        assert analyze(lex, "b\u2028c")[0].lemma == "a"

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
        surface: [(c.lemma, c.tag_text) for c in lex.candidates_for(surface)]
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
        candidates = analyze(german_lexicon, "trifft")
        assert [(c.lemma, c.tag_text) for c in candidates] == [
            ("treffen", "<+V><3><Sg><Pres><Ind>")
        ]

    def test_unknown_surface(self, german_lexicon):
        assert analyze(german_lexicon, "xyzzy") == []

    def test_nine_candidates_canonically_ordered(self):
        candidates = analyze(NINE_LEXICON, "vulkanischen")
        assert [c.tag_text for c in candidates] == VULKANISCH_CANDIDATES

    def test_candidates_carry_surface(self, czech_lexicon):
        (candidate,) = analyze(czech_lexicon, "pizzy")
        assert candidate.surface == "pizzy"
        assert candidate.lemma == "pizza"


class TestDisambiguate:
    def test_bolded_analysis_wins(self):
        candidates = analyze(NINE_LEXICON, "vulkanischen")
        picked = disambiguate(candidates, "ADJA-Dat.Sg.Fem")
        assert picked.tag_text == "<+ADJ><Pos><NoGend><Dat><Sg><Wk>"

    def test_single_compatible_candidate(self):
        candidate = MorphAnalysis("Wolke", parse_feature_seq("<+NN><Fem><Acc><Sg><NA>"))
        assert disambiguate([candidate], "NN-Acc.Sg.Fem") is candidate

    def test_no_compatible_analysis(self):
        candidates = [
            MorphAnalysis("Wolke", parse_feature_seq("<+NN><Fem><Acc><Sg><NA>")),
            MorphAnalysis("Wolke", parse_feature_seq("<+NN><Fem><Dat><Sg><NA>")),
        ]
        with pytest.raises(NoCompatibleAnalysis):
            disambiguate(candidates, "NN-Acc.Pl.Fem")

    def test_explicit_gender_must_match(self):
        candidate = MorphAnalysis("dicht", parse_feature_seq("<+ADJ><Neut><Dat><Sg><St>"))
        with pytest.raises(NoCompatibleAnalysis):
            disambiguate([candidate], "ADJA-Dat.Sg.Fem")

    def test_nogend_wildcard(self):
        explicit = MorphAnalysis("x", parse_feature_seq("<+ADJ><Fem><Dat><Sg><Wk>"))
        wildcard = MorphAnalysis("x", parse_feature_seq("<+ADJ><NoGend><Dat><Sg><Wk>"))
        for context in ("ADJA-Dat.Sg.Fem", "ADJA-Dat.Sg"):
            assert disambiguate([explicit], context) is explicit
            assert disambiguate([wildcard], context) is wildcard

    def test_bare_pos_context(self):
        candidate = MorphAnalysis("treffen", parse_feature_seq("<+V><3><Sg><Pres><Ind>"))
        assert disambiguate([candidate], "VVFIN-Sg") is candidate
        with pytest.raises(NoCompatibleAnalysis):
            disambiguate([candidate], "VVFIN-Pl")

    def test_verbal_vs_nominal_pos(self):
        verbal = MorphAnalysis("laufen", parse_feature_seq("<+V><3><Sg><Pres><Ind>"))
        nominal = MorphAnalysis("Lauf", parse_feature_seq("<+NN><Masc><Nom><Sg><NA>"))
        assert disambiguate([nominal, verbal], "VVFIN-Sg") is verbal
        assert disambiguate([nominal, verbal], "NN-Nom.Sg.Masc") is nominal

    def test_result_is_a_candidate(self):
        candidates = analyze(NINE_LEXICON, "vulkanischen")
        assert disambiguate(candidates, "ADJA-Dat.Sg.Fem") in candidates

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            disambiguate([], "NN")


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
                assert (lemma, tag) in [
                    (c.lemma, c.tag_text) for c in analyze(lex, surface)
                ]


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
            assert (lemma, tag_text) in [
                (c.lemma, c.tag_text) for c in analyze(lex, surface)
            ]
        # every inverse entry is mirrored in the forward index
        for surface, candidates in lex._inverse.items():
            for c in candidates:
                assert lex.surface_for(c.lemma, c.tag_text) == surface


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
                candidates = analyze(lex, surface)
                assert [(c.tag_text, c.lemma) for c in candidates] == sorted(
                    key for key, form in model.items() if form == surface
                )
                for c in candidates:
                    assert c.surface == surface
                    assert parsed.setdefault(c.tag_text, c.tag) is c.tag
                    assert c.tag == parse_tag_text(c.tag_text)
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
        assert [c.lemma for c in analyze(lex, "hrady")] == ["hrad"]
        lex.add_entry("brada", "NNIP1-----A----", "hrady")
        assert [c.lemma for c in analyze(lex, "hrady")] == ["brada", "hrad"]
        assert len(lex) == 2

    def test_bad_tag_text_rejected_and_not_stored(self):
        lex = ParadigmLexicon()
        with pytest.raises(MalformedTag):
            lex.add_entry("a", "NN", "b")
        assert len(lex) == 0
        assert generate(lex, "a", "NN") == GenerationFailure("a", "NN", REASON_UNKNOWN_LEMMA)


class EagerIndexLexicon(ParadigmLexicon):
    """The surface index built for every surface at the first analysis: the
    oracle for the index built per surface."""

    def add_entry(self, lemma, tag_text, surface):
        super().add_entry(lemma, tag_text, surface)
        self._eager = None

    def candidates_for(self, surface):
        if getattr(self, "_eager", None) is None:
            keys = {}
            for key, form in self._forward.items():
                keys.setdefault(form, []).append(key)
            self._eager = {
                form: [MorphAnalysis(lemma, self._tags[tag], form) for tag, lemma in sorted(pairs)]
                for form, pairs in keys.items()
            }
        return list(self._eager.get(surface, ()))


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
        lazy, eager = ParadigmLexicon(), EagerIndexLexicon()
        queried = set()
        for operation, argument in operations:
            if operation == "add":
                outcomes = []
                for lex in (lazy, eager):
                    try:
                        lex.add_entry(*argument)
                        outcomes.append(None)
                    except LexiconConflict as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]
            else:
                queried.add(argument)
                candidates = analyze(lazy, argument)
                assert candidates == analyze(eager, argument)
                candidates.clear()  # callers get a copy
                assert analyze(lazy, argument) == analyze(eager, argument)
        # Only surfaces asked for since the last row are built.
        assert set(lazy._inverse) <= queried
        assert len(lazy) == len(eager)

    def test_row_added_after_a_query(self):
        lazy, eager = ParadigmLexicon(), EagerIndexLexicon()
        for lex in (lazy, eager):
            lex.add_entry("hrad", "NNIP1-----A----", "hrady")
            analyze(lex, "hrady")
            analyze(lex, "hradu")
            lex.add_entry("hrad", "NNIS2-----A----", "hradu")
            lex.add_entry("brada", "NNIP1-----A----", "hrady")
        for surface in ("hrady", "hradu", "brady"):
            assert analyze(lazy, surface) == analyze(eager, surface)
        assert [c.lemma for c in analyze(lazy, "hrady")] == ["brada", "hrad"]
