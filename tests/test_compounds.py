"""Compound splitting, separator tokens, and linking-element merges."""

import pytest
from hypothesis import given, settings, strategies as st

from morphmt import pipeline
from morphmt.compounds import (
    CompoundSplit,
    merge_compound,
    rejoin_split_tokens,
    split_compound,
    split_tokens,
)
from morphmt.morphlex import ParadigmLexicon, generate
from morphmt.tagsets import (
    GermanAnalysis,
    GermanFeatureSeq,
    MalformedAnalysis,
    StemSegment,
    classify_german_tokens,
    format_analysis,
    format_tag,
    parse_feature_seq,
    parse_german_analysis,
)

from oracles import encode_record, from_german

from test_tagsets import (
    ORACLE_SEPARATOR_RE,
    oracle_is_bare,
    oracle_is_separator,
    uncached_feature_token,
)


def analysis(text):
    return parse_german_analysis(text)


class TestSplitCompound:
    def test_noun_noun_compound(self):
        split = split_compound(analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>"))
        assert isinstance(split, CompoundSplit)
        assert split.text == "Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>"

    def test_haus_markt(self):
        split = split_compound(analysis("Haus<NN>Markt||<+NN><Masc><Nom><Sg><NA>"))
        assert split.tokens[:3] == ("Haus", "§§<NN>§§", "Markt")

    def test_single_segment_unchanged(self):
        a = analysis("Wolke||<+NN><Fem><Acc><Sg><NA>")
        assert split_compound(a) is a

    def test_bare_unchanged(self):
        a = analysis("und[KON]")
        assert split_compound(a) is a

    def test_adjective_border(self):
        split = split_compound(analysis("längs<ADJ>Achse||<+NN><Fem><Dat><Sg><NA>"))
        assert split.text == "längs §§<ADJ>§§ Achse <+NN><Fem><Dat><Sg><NA>"

    def test_head_keeps_its_own_markup(self):
        split = split_compound(
            analysis("Hydrogen<NN>Sulfid<NN>reich<Pos>||<+ADJ><Neut><Dat><Sg><St>")
        )
        assert split.tokens == (
            "Hydrogen",
            "§§<NN>§§",
            "Sulfid",
            "§§<NN>§§",
            "reich<Pos>",
            "<+ADJ><Neut><Dat><Sg><St>",
        )

    def test_feature_sequence_never_altered(self):
        a = analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>")
        split = split_compound(a)
        assert split.feature_token == format_tag(a.feature_seq)

    def test_non_border_markup_stays_fused(self):
        # <Def> is not a split border: the stem stays one token.
        a = analysis("die<Def>||<+ART><Masc><Dat><Sg><St>")
        assert split_compound(a) is a

    def test_split_invariants_checked(self):
        with pytest.raises(MalformedAnalysis):
            CompoundSplit(("§§<NN>§§", "Boden", "x", "<+NN><Masc><Dat><Sg><NA>"))
        with pytest.raises(MalformedAnalysis):
            CompoundSplit(("Meer", "§§<NN>§§", "Boden", "kein-tag"))


class TestSeparatorTokens:
    def test_separator_shape(self):
        markups = [markup for _, _, markup in classify_german_tokens(
            ["§§<NN>§§", "§§<ADJ>§§", "<+NN>", "Meer"]
        )]
        assert markups == ["NN", "ADJ", None, None]


class TestMergeCompound:
    def test_meeresboden_linking_element(self, german_lexicon):
        split = split_compound(analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>"))
        merged = merge_compound(split, german_lexicon)
        assert merged.stem_text == "Meeresboden"
        assert format_tag(merged.feature_seq) == "<+NN><Masc><Dat><Sg><NA>"

    def test_haeusermarkt_umlautung(self, german_lexicon):
        split = split_compound(analysis("Haus<NN>Markt||<+NN><Masc><Nom><Sg><NA>"))
        merged = merge_compound(split, german_lexicon)
        assert merged.stem_text == "Häusermarkt"

    def test_oszillationsgenerator_linking(self, german_lexicon):
        split = split_compound(
            analysis("Oszillation<NN>Generator||<+NN><Masc><Nom><Sg><NA>")
        )
        merged = merge_compound(split, german_lexicon)
        assert merged.stem_text == "Oszillationsgenerator"
        assert merged.stem_text != "Oszillationengenerator"

    def test_adjective_head_lowercased(self, german_lexicon):
        split = split_compound(
            analysis("Hydrogen<NN>Sulfid<NN>reich<Pos>||<+ADJ><Neut><Dat><Sg><St>")
        )
        merged = merge_compound(split, german_lexicon)
        assert merged.stem_text == "hydrogensulfid-reich<Pos>"

    def test_noun_head_capitalized(self, german_lexicon):
        split = split_compound(analysis("längs<ADJ>Achse||<+NN><Fem><Dat><Sg><NA>"))
        merged = merge_compound(split, german_lexicon)
        assert merged.stem_text == "Längsachse"

    def test_unknown_modifier_degrades_to_concatenation(self, german_lexicon):
        split = split_compound(analysis("Nacht<NN>Markt||<+NN><Masc><Nom><Sg><NA>"))
        unknown = []
        merged = merge_compound(split, german_lexicon, unknown)
        assert merged.stem_text == "Nachtmarkt"
        assert unknown == ["Nacht"]

    def test_no_separators_in_output(self, german_lexicon):
        split = split_compound(analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>"))
        merged = merge_compound(split, german_lexicon)
        assert "§§" not in str(merged)

    @pytest.mark.parametrize(
        "raw",
        [
            "Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>",
            "Haus<NN>Markt||<+NN><Masc><Nom><Sg><NA>",
            "Oszillation<NN>Generator||<+NN><Masc><Nom><Sg><NA>",
            "längs<ADJ>Achse||<+NN><Fem><Dat><Sg><NA>",
            "Hydrogen<NN>Sulfid<NN>reich<Pos>||<+ADJ><Neut><Dat><Sg><St>",
        ],
    )
    def test_stem_level_round_trip(self, german_lexicon, raw):
        # merge(split(a)) produces the stem whose lexicon entry generates
        # the same surface as the unsplit analysis.
        a = analysis(raw)
        merged = merge_compound(split_compound(a), german_lexicon)
        direct = generate(german_lexicon, merged.stem_text, format_tag(merged.feature_seq))
        via_markup = generate(german_lexicon, a.stem_text, format_tag(a.feature_seq))
        assert isinstance(direct, str)
        assert direct == via_markup


class TestRejoinSplitTokens:
    def test_basic_rejoin(self):
        tokens = "Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>".split()
        rejoined, events = rejoin_split_tokens(tokens)
        assert rejoined == ["Meer<NN>Boden", "<+NN><Masc><Dat><Sg><NA>"]
        assert events == []

    def test_multi_border_rejoin(self):
        tokens = "Hydrogen §§<NN>§§ Sulfid §§<NN>§§ reich<Pos> <+ADJ><Neut><Dat><Sg><St>".split()
        rejoined, _ = rejoin_split_tokens(tokens)
        assert rejoined[0] == "Hydrogen<NN>Sulfid<NN>reich<Pos>"

    def test_orphan_separator_dropped(self):
        rejoined, events = rejoin_split_tokens(["§§<NN>§§", "Boden"])
        assert rejoined == ["Boden"]
        assert events == [(0, "orphan-separator")]

    def test_trailing_separator_dropped(self):
        rejoined, events = rejoin_split_tokens(["Meer", "§§<NN>§§"])
        assert rejoined == ["Meer"]
        assert events == [(1, "orphan-separator")]

    def test_untouched_tokens_pass_through(self):
        tokens = ["und[KON]", "sehen", "<+V><3><Sg><Pres><Ind>"]
        rejoined, events = rejoin_split_tokens(tokens)
        assert rejoined == tokens
        assert events == []


def oracle_rejoin(tokens):
    """rejoin_split_tokens as it was first written: three predicates per neighbour."""

    def is_lexeme_like(token):
        return not (
            oracle_is_separator(token)
            or uncached_feature_token(token) is not None
            or oracle_is_bare(token)
        )

    out, events = [], []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        m = ORACLE_SEPARATOR_RE.match(token)
        if m is None:
            out.append(token)
            i += 1
            continue
        left_ok = bool(out) and is_lexeme_like(out[-1])
        right_ok = i + 1 < len(tokens) and is_lexeme_like(tokens[i + 1])
        if left_ok and right_ok:
            out[-1] = f"{out[-1]}<{m.group(1)}>{tokens[i + 1]}"
            i += 2
        else:
            events.append((i, "orphan-separator"))
            i += 1
    return out, events


# Stream tokens of split lines, with pieces that join into a separator
# ("§§" <NN> "§§") or into a feature sequence ("<+NN><Fem>" <Acc> "<Sg><NA>").
split_stream_tokens = st.sampled_from([
    "Meer", "Boden", "§§", "§§<NN>§§", "§§<ADJ>§§", "§§<X>§§", "§§<Acc>§§", "<+NN><Fem>",
    "<Sg><NA>", "<+NN><Masc><Dat><Sg><NA>", "und[KON]", ",[$]", "<Foo>", "y", "§§<NN>§",
])


class TestRejoinMatchesOracle:
    def test_chained_separators_spelling_a_separator(self):
        tokens = "§§ §§<NN>§§ §§ §§<X>§§ y".split()
        assert rejoin_split_tokens(tokens) == (["§§<NN>§§", "y"], [(3, "orphan-separator")])
        assert rejoin_split_tokens(tokens) == oracle_rejoin(tokens)

    def test_joined_feature_sequence_is_not_a_lexeme(self):
        tokens = "<+NN><Fem> §§<Acc>§§ <Sg><NA> §§<NN>§§ Boden".split()
        assert rejoin_split_tokens(tokens) == (
            ["<+NN><Fem><Acc><Sg><NA>", "Boden"], [(3, "orphan-separator")]
        )
        assert rejoin_split_tokens(tokens) == oracle_rejoin(tokens)

    @settings(max_examples=300)
    @given(st.lists(split_stream_tokens, max_size=12))
    def test_rejoin_matches_oracle(self, tokens):
        assert rejoin_split_tokens(tokens) == oracle_rejoin(tokens)


def oracle_cli_split(analysis):
    """The tokens the split-compounds command wrote before it shared prepare's function."""
    if not analysis.inflected:
        return (format_analysis(analysis),)
    result = split_compound(analysis)
    if isinstance(result, CompoundSplit):
        return result.tokens
    return (result.stem_text, format_tag(result.feature_seq))


def prepare_split(analysis):
    """The tokens prepare encodes in split mode for the analysis's lexicon row."""
    a = from_german(analysis, "x")
    lex = ParadigmLexicon()
    lex.add_entry(a.lemma, a.tag_text, a.surface)
    tokens = pipeline._encode_analysis(lex, (a.tag_text, a.lemma), a.surface, "german-stemmed-split")
    assert tokens == encode_record(a, "german-stemmed-split")
    return tokens


_FEATURE_TEXTS = ["<+NN><Masc><Dat><Sg><NA>", "<+ADJ><Pos><NoGend><Dat><Sg><Wk>",
                  "<+V><3><Sg><Pres><Ind>", "<+V><PPast>"]
stem_segments = st.lists(
    st.builds(StemSegment, st.sampled_from(["Meer", "Boden", "längs", "haus", "a"]),
              st.sampled_from([None, "NN", "ADJ", "Pos", "Def"])),
    min_size=1, max_size=4,
).map(tuple)
german_analyses = st.one_of(
    st.builds(GermanAnalysis, stem_segments, st.sampled_from(_FEATURE_TEXTS).map(parse_feature_seq)),
    st.builds(
        lambda lexeme, tag: GermanAnalysis(
            (StemSegment(lexeme),), GermanFeatureSeq("bare", bare_tag=tag), inflected=False
        ),
        st.sampled_from(["und", ",", "an"]), st.sampled_from(["KON", "$", "APPR-Dat"]),
    ),
)


class TestSplitTokens:
    @settings(max_examples=300)
    @given(german_analyses)
    def test_both_callers_agree(self, analysis):
        tokens = split_tokens(analysis)
        assert tokens == oracle_cli_split(analysis)
        assert tokens == prepare_split(analysis)

    def test_split_count_reads_the_token_count(self):
        # split-compounds counts an analysis as split when it gives more than two tokens.
        assert len(split_tokens(analysis("und[KON]"))) == 1
        assert len(split_tokens(analysis("Meer||<+NN><Neut><Nom><Sg><NA>"))) == 2
        assert len(split_tokens(analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>"))) == 4
