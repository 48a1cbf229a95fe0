"""Compound splitting, separator tokens, and linking-element merges."""

import pytest

from morphmt.compounds import (
    CompoundSplit,
    is_separator_token,
    merge_compound,
    rejoin_split_tokens,
    split_compound,
)
from morphmt.morphlex import generate
from morphmt.tagsets import MalformedAnalysis, format_tag, parse_german_analysis


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
        assert is_separator_token("§§<NN>§§")
        assert is_separator_token("§§<ADJ>§§")
        assert not is_separator_token("<+NN>")
        assert not is_separator_token("Meer")


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
