"""Compound splitting, separator tokens, and linking-element merges."""

import argparse

import pytest
from hypothesis import example, given, settings, strategies as st

from morphmt import cli, pipeline
from morphmt.compounds import merge_stem, rejoin_split_tokens, split_compound, split_tokens
from morphmt.morphlex import ParadigmLexicon, generate
from morphmt.tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    StemSegment,
    classify_german_tokens,
    format_tag,
    parse_feature_seq,
    parse_german_analysis,
    parse_stem_side,
)

import oracles
from oracles import CompoundSplit, GermanAnalysis, format_analysis, parse_analysis

from test_tagsets import (
    ORACLE_SEPARATOR_RE,
    oracle_is_bare,
    oracle_is_separator,
    uncached_feature_token,
)


def split(text):
    """The split_compound tokens of an inflected analysis token, or None."""
    _, lemma, features = parse_german_analysis(text)
    return split_compound(parse_stem_side(lemma), features)


def merge(text, lex, unknown=None):
    """The merged stem text of an analysis's stem and features."""
    _, lemma, features = parse_german_analysis(text)
    return merge_stem(lemma, features, lex, unknown)[0]


class _Lines:
    """The inputs of a split-compounds run: the given lines."""

    def __init__(self, lines):
        self._lines = lines

    def lines(self, path):
        return self._lines


def split_compounds(text):
    """The tokens split-compounds writes for a line of analysis tokens."""
    result = cli.cmd_split_compounds(argparse.Namespace(input=None), _Lines([text]))
    return tuple(result.lines[0].split())


def prepare_split(text):
    """The tokens prepare encodes in split mode for the analysis token's
    row key, in a lexicon of that one row; a bare token analyses itself."""
    tag_text, lemma, _ = parse_german_analysis(text)
    lex = ParadigmLexicon()
    lex.add_entry(lemma, tag_text, lemma)
    return pipeline._encode_analysis(lex, (tag_text, lemma), lemma, "german-stemmed-split")


class TestSplitCompound:
    def test_noun_noun_compound(self):
        tokens = split("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>")
        assert " ".join(tokens) == "Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>"

    def test_haus_markt(self):
        assert split("Haus<NN>Markt||<+NN><Masc><Nom><Sg><NA>")[:3] == ("Haus", "§§<NN>§§", "Markt")

    def test_single_segment_unchanged(self):
        assert split("Wolke||<+NN><Fem><Acc><Sg><NA>") is None
        features = parse_feature_seq("<+NN><Fem><Acc><Sg><NA>")
        assert split_tokens("Wolke", "<+NN><Fem><Acc><Sg><NA>", features) == (
            "Wolke", "<+NN><Fem><Acc><Sg><NA>"
        )

    def test_bare_unchanged(self):
        assert split_compounds("und[KON]") == prepare_split("und[KON]") == ("und[KON]",)

    def test_adjective_border(self):
        tokens = split("längs<ADJ>Achse||<+NN><Fem><Dat><Sg><NA>")
        assert " ".join(tokens) == "längs §§<ADJ>§§ Achse <+NN><Fem><Dat><Sg><NA>"

    def test_head_keeps_its_own_markup(self):
        assert split("Hydrogen<NN>Sulfid<NN>reich<Pos>||<+ADJ><Neut><Dat><Sg><St>") == (
            "Hydrogen",
            "§§<NN>§§",
            "Sulfid",
            "§§<NN>§§",
            "reich<Pos>",
            "<+ADJ><Neut><Dat><Sg><St>",
        )

    def test_feature_sequence_never_altered(self):
        tag_text, lemma, features = parse_german_analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>")
        assert split_compound(parse_stem_side(lemma), features)[-1] == tag_text

    def test_non_border_markup_stays_fused(self):
        # <Def> is not a split border: the stem stays one token.
        assert split("die<Def>||<+ART><Masc><Dat><Sg><St>") is None

    def test_split_invariants_checked(self):
        # A part that spells a separator is the one check input can break.
        with pytest.raises(MalformedAnalysis) as info:
            split("a<NN>§§<X>§§||<+NN><Masc><Dat><Sg><NA>")
        assert str(info.value) == (
            "lexeme expected at 2 in ('a', '§§<NN>§§', '§§<X>§§', '<+NN><Masc><Dat><Sg><NA>')"
        )
        # The token record the split path used to build checked more.
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
        _, lemma, features = parse_german_analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>")
        assert merge_stem(lemma, features, german_lexicon) == ("Meeresboden", True)

    def test_haeusermarkt_umlautung(self, german_lexicon):
        assert merge("Haus<NN>Markt||<+NN><Masc><Nom><Sg><NA>", german_lexicon) == "Häusermarkt"

    def test_oszillationsgenerator_linking(self, german_lexicon):
        merged = merge("Oszillation<NN>Generator||<+NN><Masc><Nom><Sg><NA>", german_lexicon)
        assert merged == "Oszillationsgenerator"
        assert merged != "Oszillationengenerator"

    def test_adjective_head_lowercased(self, german_lexicon):
        merged = merge("Hydrogen<NN>Sulfid<NN>reich<Pos>||<+ADJ><Neut><Dat><Sg><St>", german_lexicon)
        assert merged == "hydrogensulfid-reich<Pos>"

    def test_noun_head_capitalized(self, german_lexicon):
        assert merge("längs<ADJ>Achse||<+NN><Fem><Dat><Sg><NA>", german_lexicon) == "Längsachse"

    def test_unknown_modifier_degrades_to_concatenation(self, german_lexicon):
        unknown = []
        assert merge("Nacht<NN>Markt||<+NN><Masc><Nom><Sg><NA>", german_lexicon, unknown) == (
            "Nachtmarkt"
        )
        assert unknown == ["Nacht"]

    def test_no_separators_in_output(self, german_lexicon):
        assert "§§" not in merge("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>", german_lexicon)

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
        tag_text, lemma, _ = parse_german_analysis(raw)
        direct = generate(german_lexicon, merge(raw, german_lexicon), tag_text)
        via_markup = generate(german_lexicon, lemma, tag_text)
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


_FEATURE_TEXTS = ["<+NN><Masc><Dat><Sg><NA>", "<+ADJ><Pos><NoGend><Dat><Sg><Wk>",
                  "<+V><3><Sg><Pres><Ind>", "<+V><PPast>"]
stem_segments = st.lists(
    st.builds(StemSegment, st.sampled_from(["Meer", "Boden", "längs", "haus", "a"]),
              st.sampled_from([None, "NN", "ADJ", "Pos", "Def"])),
    min_size=1, max_size=4,
).map(tuple)
# Inflected (stem||features) and bare analysis tokens.
german_analysis_texts = st.one_of(
    st.builds(GermanAnalysis, stem_segments, st.sampled_from(_FEATURE_TEXTS).map(parse_feature_seq)),
    st.builds(
        lambda lexeme, tag: GermanAnalysis(
            (StemSegment(lexeme),), GermanFeatureSeq("bare", bare_tag=tag), inflected=False
        ),
        st.sampled_from(["und", ",", "an"]), st.sampled_from(["KON", "$", "APPR-Dat"]),
    ),
).map(format_analysis)


class TestSplitTokens:
    @settings(max_examples=300)
    @given(german_analysis_texts)
    def test_both_callers_agree(self, text):
        # split-compounds and split-mode prepare encode a token's row key alike,
        # as the analysis record's split tokens.
        tokens = split_compounds(text)
        assert tokens == prepare_split(text)
        assert tokens == oracles.split_tokens(parse_analysis(text))

    def test_split_count_reads_the_token_count(self):
        # split-compounds counts an analysis as split when it gives more than two tokens.
        assert len(split_compounds("und[KON]")) == 1
        assert len(split_compounds("Meer||<+NN><Neut><Nom><Sg><NA>")) == 2
        assert len(split_compounds("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>")) == 4
        line = "und[KON] Meer||<+NN><Neut><Nom><Sg><NA> Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>"
        result = cli.cmd_split_compounds(argparse.Namespace(input=None), _Lines([line]))
        assert result.counters == {"lines": 1, "compounds_split": 1}


# Stem texts from lexeme units (modifier-table lexemes among them, and
# "§§", which can spell a separator) with split or other markup, markup
# holding "|" or "[b]", and now and then a character that stops the parse.
stem_units = st.builds(
    lambda lexeme, markup: lexeme + markup,
    st.sampled_from(["Meer", "Boden", "Haus", "nacht", "längs", "Sulfid", "§§", "a"]),
    st.sampled_from(["", "<NN>", "<ADJ>", "<NN>", "<Pos>", "<Def>", "<X>", "<|>", "<[b]>",
                     "<a|b>"]),
)
stem_texts = st.builds(
    lambda units, noise, at: "".join(units[:at]) + noise + "".join(units[at:]),
    st.lists(stem_units, min_size=1, max_size=5),
    st.sampled_from([""] * 12 + ["<", ">", "|", "||", "[b]", " "]),
    st.integers(0, 5),
)
feature_seqs = st.sampled_from(_FEATURE_TEXTS + ["<+ART><Masc><Nom><Sg><St>"]).map(
    parse_feature_seq
)


def merge_outcome(merge_fn, stem, feature_seq, lex):
    """The stem text and flag of a merge, or its error text, with the
    unknown modifiers it reported."""
    unknown = []
    try:
        result, merged = merge_fn(stem, feature_seq, lex, unknown)
    except MalformedAnalysis as exc:
        return str(exc), unknown
    if isinstance(result, GermanAnalysis):
        result = result.stem_text
    return (result, merged), unknown


def split_outcome(split_fn, *args):
    try:
        return split_fn(*args)
    except MalformedAnalysis as exc:
        return str(exc)


def oracle_split_tokens(stem, feature_seq):
    return oracles.split_tokens(GermanAnalysis(parse_stem_side(stem), feature_seq))


def oracle_split_compound(segments, feature_seq):
    split = oracles.split_analysis(GermanAnalysis(segments, feature_seq))
    return split.tokens if isinstance(split, CompoundSplit) else None


class TestMatchesSplitTokenPath:
    """merge_stem, split_tokens and split_compound against the path through
    the split-token record."""

    @settings(max_examples=500, deadline=None)
    @given(stem_texts, feature_seqs)
    @example("a<NN>§§<X>§§", parse_feature_seq("<+NN><Masc><Dat><Sg><NA>"))
    @example("§§<NN>§§<NN>Boden<Pos>", parse_feature_seq("<+ADJ><Pos><NoGend><Dat><Sg><Wk>"))
    @example("Meer<a|b>Haus<NN>boden<[b]>", parse_feature_seq("<+NN><Masc><Dat><Sg><NA>"))
    def test_merge_stem(self, german_lexicon, stem, feature_seq):
        assert merge_outcome(merge_stem, stem, feature_seq, german_lexicon) == merge_outcome(
            oracles.merge_stem, stem, feature_seq, german_lexicon
        )

    @settings(max_examples=500, deadline=None)
    @given(stem_texts, feature_seqs)
    def test_split_tokens_of_parsed_stems(self, stem, feature_seq):
        # A stem that does not parse raises the same error on both paths.
        assert split_outcome(split_tokens, stem, format_tag(feature_seq), feature_seq) == (
            split_outcome(oracle_split_tokens, stem, feature_seq)
        )

    @settings(max_examples=300)
    @given(st.lists(
        st.builds(StemSegment, st.sampled_from(["Meer", "§§", "a", ""]),
                  st.sampled_from([None, "NN", "ADJ", "X", "|", "[b]"])),
        min_size=1, max_size=5,
    ).map(tuple), feature_seqs)
    # Segments with empty lexemes can spell a feature sequence as a part.
    @example(tuple(StemSegment("", markup) for markup in ("+NN", "Fem", "Acc", "Sg", "NA", "NN"))
             + (StemSegment("Boden"),), parse_feature_seq("<+NN><Masc><Dat><Sg><NA>"))
    def test_split_tokens_of_built_segments(self, segments, feature_seq):
        # Segments no stem text parses to reach split_compound only directly.
        assert split_outcome(split_compound, segments, feature_seq) == (
            split_outcome(oracle_split_compound, segments, feature_seq)
        )
