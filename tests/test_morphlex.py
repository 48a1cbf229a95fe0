"""Lexicon loading, analysis, disambiguation and generation."""

import random

import pytest
from hypothesis import given, strategies as st

from morphmt.morphlex import (
    GenerationFailure,
    GenerationReport,
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
from morphmt.tagsets import MorphAnalysis, format_tag, parse_czech_tag, parse_feature_seq

from conftest import DATA_DIR, VULKANISCH_CANDIDATES


def lexicon_of(*rows):
    return load_lexicon("\n".join("\t".join(row) for row in rows))


NINE_LEXICON = lexicon_of(
    *[("vulkanisch", tag, "vulkanischen") for tag in VULKANISCH_CANDIDATES]
)


class TestLoadLexicon:
    def test_pizza_row(self, czech_lexicon):
        tag = parse_czech_tag("NNFS2-----A----")
        assert generate(czech_lexicon, "pizza", tag) == "pizzy"

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
        with pytest.raises(LexiconParse):
            load_lexicon("a\tnot-a-tag\tb\n")

    def test_modifier_rows(self, german_lexicon):
        assert german_lexicon.modifier_table["Meer"] == "Meeres"
        assert german_lexicon.modifier_table["Haus"] == "Häuser"

    def test_conflicting_modifier_rows_rejected(self):
        with pytest.raises(LexiconConflict):
            load_lexicon("@mod\tMeer\tMeeres\n@mod\tMeer\tMeeren\n")


def lexicon_rows(name):
    text = (DATA_DIR / name).read_text(encoding="utf-8")
    return [line.split("\t") for line in text.split("\n") if line and not line.startswith("#")]


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


def candidate_order(lex):
    return {
        surface: [(c.lemma, c.tag_text) for c in lex.candidates_for(surface)]
        for _, _, surface in lex.entries
    }


class TestCandidateOrder:
    @pytest.mark.parametrize("name", ["czech_toy.tsv", "german_toy.tsv", None])
    def test_independent_of_row_order(self, name):
        rows = lexicon_rows(name) if name else SHARED_SURFACE_ROWS
        expected = candidate_order(lexicon_of(*rows))
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert candidate_order(lexicon_of(*shuffled)) == expected

    @given(st.permutations(SHARED_SURFACE_ROWS))
    def test_add_entry_matches_load_lexicon(self, rows):
        direct = ParadigmLexicon()
        for lemma, tag, surface in rows:
            direct.add_entry(lemma, parse_tag_text(tag), surface)
        expected = candidate_order(lexicon_of(*SHARED_SURFACE_ROWS))
        assert candidate_order(direct) == expected
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
        tag = parse_feature_seq("<+V><3><Sg><Pres><Ind>")
        assert generate(german_lexicon, "treffen", tag) == "trifft"

    def test_blaues(self, german_lexicon):
        tag = parse_feature_seq("<+ADJ><Neut><Nom><Sg><St>")
        assert generate(german_lexicon, "blau", tag) == "blaues"

    def test_unknown_lemma(self, czech_lexicon):
        result = generate(czech_lexicon, "Braper", parse_czech_tag("NNFS2-----A----"))
        assert isinstance(result, GenerationFailure)
        assert result.reason == REASON_UNKNOWN_LEMMA

    def test_incompatible_tag(self, czech_lexicon):
        verbal_tag = parse_czech_tag("VB-P---3P-AA---")
        # The toy lexicon pairs "pizza" only with nominal tags: exhaustive check.
        assert all(
            format_tag(tag) != format_tag(verbal_tag)
            for lemma, tag, _ in czech_lexicon.entries
            if lemma == "pizza"
        )
        result = generate(czech_lexicon, "pizza", verbal_tag)
        assert isinstance(result, GenerationFailure)
        assert result.reason == REASON_INCOMPATIBLE_TAG

    def test_deterministic(self, czech_lexicon):
        tag = parse_czech_tag("NNIP1-----A----")
        assert generate(czech_lexicon, "milión", tag) == generate(
            czech_lexicon, "milión", tag
        )

    def test_round_trip_over_all_entries(self, czech_lexicon, german_lexicon):
        for lex in (czech_lexicon, german_lexicon):
            for lemma, tag, surface in lex.entries:
                assert generate(lex, lemma, tag) == surface
                assert (lemma, format_tag(tag)) in [
                    (c.lemma, c.tag_text) for c in analyze(lex, surface)
                ]


class TestGenerateWithFallback:
    def test_success_leaves_report_clean(self, czech_lexicon):
        report = GenerationReport()
        tag = parse_czech_tag("NNFS2-----A----")
        assert generate_with_fallback(czech_lexicon, "pizza", tag, report) == "pizzy"
        assert report.total == 1
        assert report.fallbacks == 0

    def test_unknown_proper_name_falls_back(self, czech_lexicon):
        report = GenerationReport()
        tag = parse_czech_tag("NNFS1-----A----")
        assert generate_with_fallback(czech_lexicon, "Braper", tag, report) == "Braper"
        assert report.fallbacks == 1
        assert report.fallback_items[0].reason == REASON_UNKNOWN_LEMMA

    def test_incompatible_tag_falls_back(self, czech_lexicon):
        report = GenerationReport()
        tag = parse_czech_tag("VB-P---3P-AA---")
        assert generate_with_fallback(czech_lexicon, "pizza", tag, report) == "pizza"
        assert report.fallback_items[0].reason == REASON_INCOMPATIBLE_TAG

    def test_markup_stripped_on_fallback(self, german_lexicon):
        report = GenerationReport()
        tag = parse_feature_seq("<+NN><Neut><Gen><Sg><NA>")
        out = generate_with_fallback(german_lexicon, "Parunelogramm<NN>", tag, report)
        assert out == "Parunelogramm"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    def test_never_fails(self, czech_lexicon, lemma):
        report = GenerationReport()
        tag = parse_czech_tag("NNFS2-----A----")
        out = generate_with_fallback(czech_lexicon, lemma, tag, report)
        assert out
        assert report.total == 1

    def test_report_merge_is_associative_sum(self):
        def failure(i):
            return GenerationFailure(f"l{i}", "t", REASON_UNKNOWN_LEMMA)

        a = GenerationReport(total=1, fallback_items=[failure(1)])
        b = GenerationReport(total=2, fallback_items=[failure(2)])
        c = GenerationReport(total=3, fallback_items=[failure(3), failure(4)])

        left = GenerationReport()
        for part in (a, b, c):
            left.merge(part)
        bc = GenerationReport()
        bc.merge(b)
        bc.merge(c)
        right = GenerationReport()
        right.merge(a)
        right.merge(bc)
        assert left.total == right.total == 6
        assert [f.lemma for f in left.fallback_items] == [
            f.lemma for f in right.fallback_items
        ]

    def test_report_text_shape(self):
        report = GenerationReport()
        report.total = 2
        report.record(GenerationFailure("Braper", "NNFS1-----A----", REASON_UNKNOWN_LEMMA))
        text = report.to_text()
        assert "generated: 2" in text
        assert "fallbacks: 1" in text
        assert "unknown-lemma\tBraper" in text


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
            tag = parse_czech_tag(tag_text)
            assert generate(lex, lemma, tag) == surface
            assert (lemma, tag_text) in [
                (c.lemma, c.tag_text) for c in analyze(lex, surface)
            ]
        # every inverse entry is mirrored in the forward index
        for surface, candidates in lex._inverse.items():
            for c in candidates:
                assert lex.surface_for(c.lemma, c.tag_text) == surface
