"""Encoding and walking the interleaved training representations.

The walk is compared with the reference model's (``spec.walk``): its
items, runs expanded into pairs, and its first strict error.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from morphmt import tagsets

import spec
from morphmt.interleave import ITEM_PAIR, ITEM_RUN, LengthMismatch, tag_source, walk
from morphmt.morphlex import ParadigmLexicon
from morphmt.pipeline import PipelineConfig, _encode_analysis, postprocess
from morphmt.tagsets import (
    classify_czech_tokens,
    classify_german_tokens,
    is_czech_tag,
    parse_feature_seq,
    parse_german_analysis,
)

from conftest import (
    FIG1_MORPHGEN,
    FIG1_SERIALIZATION,
    TABLE1_ROWS,
    toy_lexicon,
)
from test_tagsets import german_analysis_texts, spec_class

# (tag text, lemma, surface) per word: a row key and the surface it analyses.
FIG1_WORDS = [
    ("VB-P---3P-AA---", "existovat", "existují"),
    ("NNIP1-----A----", "milión", "miliony"),
    ("NNIP2-----A----", "druh", "druhů"),
    ("NNFS2-----A----", "pizza", "pizzy"),
    ("Z:-------------", ".", "."),
]

TABLE1_WORDS = [(*parse_german_analysis(rep)[:2], surface) for rep, surface in TABLE1_ROWS]


def encode(words, mode):
    """The tokens of a sentence of (tag text, lemma, surface) words, each
    encoded from its row key in a lexicon of the sentence's rows."""
    lex = ParadigmLexicon()
    for tag_text, lemma, surface in words:
        lex.add_entry(lemma, tag_text, surface)
    return [
        token
        for tag_text, lemma, surface in words
        for token in _encode_analysis(lex, (tag_text, lemma), surface, mode)
    ]


class TestEncode:
    def test_morphgen_line(self):
        assert " ".join(encode(FIG1_WORDS, "morphgen")) == FIG1_MORPHGEN

    def test_serialization_line(self):
        assert " ".join(encode(FIG1_WORDS, "serialization")) == FIG1_SERIALIZATION

    def test_german_stemmed_line(self):
        tokens = encode(TABLE1_WORDS, "german-stemmed")
        assert " ".join(tokens).startswith(
            "und[KON] hier[ADV] sehen <+V><3><Sg><Pres><Ind> man[PIS]"
        )
        # bare words take one token, inflected words two
        bare = sum(1 for tag_text, _, _ in TABLE1_WORDS if tag_text.startswith("["))
        inflected = len(TABLE1_WORDS) - bare
        assert len(tokens) == bare + 2 * inflected

    def test_interleaving_doubles_length(self):
        for mode in ("morphgen", "serialization"):
            assert len(encode(FIG1_WORDS, mode)) == 2 * len(FIG1_WORDS)

    def test_surface_required_for_serialization(self):
        # Serialization emits the surface, morphgen the lemma.
        word = ("VB-P---3P-AA---", "existovat", "existují")
        assert encode([word], "serialization") == ["VB-P---3P-AA---", "existují"]
        assert encode([word], "morphgen") == ["VB-P---3P-AA---", "existovat"]


def walk_view(tokens, mode):
    """A walk's items as the model writes them, runs expanded into pairs,
    and its error, which the walk already gives as (kind, position)."""
    walked, error = walk(tokens, mode)
    items = []
    for kind, position, tag, word, features in walked:
        if kind == ITEM_RUN:
            items += [("pair", position + 2 * k, t, w) for k, (t, w) in enumerate(zip(tag, word))]
            continue
        assert features == (parse_feature_seq(tag) if kind == ITEM_PAIR else None)
        items.append((kind, position, tag, word))
    return items, error


def decode(tokens, mode):
    """The (tag, word) pairs of a stream, bare tokens included, or its first
    strict error as (kind, position)."""
    items, error = walk_view(tokens, mode)
    return error if error is not None else [(tag, word) for _, _, tag, word in items]


class TestDecode:
    def test_morphgen_row(self):
        pairs = decode(FIG1_MORPHGEN.split(), "morphgen")
        assert len(pairs) == 5
        assert pairs[0] == ("VB-P---3P-AA---", "existovat")
        assert pairs[-1] == ("Z:-------------", ".")

    def test_empty(self):
        assert decode([], "morphgen") == []
        assert decode([], "german-stemmed") == []

    def test_word_first_rejected(self):
        assert decode(["existovat", "VB-P---3P-AA---"], "morphgen") == ("tag-expected", 0)

    def test_odd_length_rejected(self):
        assert decode(["VB-P---3P-AA---"], "morphgen") == ("odd-length", 0)

    def test_two_adjacent_tags_rejected(self):
        tokens = ["VB-P---3P-AA---", "NNFS2-----A----", "Z:-------------", "."]
        assert decode(tokens, "morphgen") == ("word-expected", 1)

    def test_german_stemmed_pairs(self):
        pairs = decode(encode(TABLE1_WORDS, "german-stemmed"), "german-stemmed")
        assert pairs[0] == ("[KON]", "und")
        assert pairs[2] == ("<+V><3><Sg><Pres><Ind>", "sehen")
        assert len(pairs) == len(TABLE1_WORDS)

    def test_german_stem_without_features_rejected(self):
        assert decode(["sehen"], "german-stemmed") == ("tag-expected", 1)

    def test_german_orphan_features_rejected(self):
        assert decode(["<+V><3><Sg><Pres><Ind>", "sehen"], "german-stemmed") == (
            "word-expected", 0
        )

    def test_baseline_has_no_pairs(self):
        with pytest.raises(ValueError):
            walk(["a"], "baseline")


class TestTagSource:
    def test_single_pair(self):
        assert tag_source(["sees"], ["VBZ"]) == ["VBZ", "sees"]

    def test_empty(self):
        assert tag_source([], []) == []

    def test_mismatch(self):
        with pytest.raises(LengthMismatch):
            tag_source(["a", "b"], ["T"])

    def test_doubles_length(self):
        words = ["a", "b", "c"]
        tags = ["X", "Y", "Z"]
        out = tag_source(words, tags)
        assert len(out) == 2 * len(words)
        assert out == ["X", "a", "Y", "b", "Z", "c"]


lemmas = st.text(alphabet="abcdefghijklmnopqrstuvwxyzáéíößü", min_size=1, max_size=10)
czech_tags = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:-", min_size=15, max_size=15
)
# (tag text, lemma, surface) per word.
czech_words = st.lists(st.builds(lambda tag, lemma: (tag, lemma, lemma + "s"), czech_tags, lemmas),
                       max_size=8)
# A bare token reads back as its lexeme, so each surface is its lemma.
german_words = st.lists(
    german_analysis_texts().map(lambda raw: (*parse_german_analysis(raw)[:2],)).map(
        lambda key: (*key, key[1])
    ),
    max_size=6,
)


class TestRoundTripProperties:
    @given(czech_words, st.sampled_from(["morphgen", "serialization"]))
    def test_czech_decode_inverts_encode(self, words, mode):
        tokens = encode(words, mode)
        assert tokens == [t for w in words for t in spec.encode(*w, mode)]
        expected = [(tag, lemma if mode == "morphgen" else surface) for tag, lemma, surface in words]
        assert decode(tokens, mode) == expected
        assert len(tokens) == 2 * len(words)

    @given(german_words)
    def test_german_decode_inverts_encode(self, words):
        tokens = encode(words, "german-stemmed")
        assert tokens == [t for w in words for t in spec.encode(*w, "german-stemmed")]
        assert decode(tokens, "german-stemmed") == [(tag, lemma) for tag, lemma, _ in words]


# Adversarial streams: valid tags of both families, 15-letter ASCII
# lemmas that read as positional tags, feature, bare and separator
# tokens, split-compound stems (some spell a separator token), BPE
# continuation markers and bracket debris.  Stems are often drawn
# together with a feature token so that German pairs are common.
_TAGS = ["NNFS2-----A----", "VB-P---3P-AA---", "Z:-------------"]
_FEATURES = [
    "<+NN><Masc><Dat><Sg><NA>",
    "<+V><3><Sg><Pres><Ind>",
    "<+ADJ><Pos><NoGend><Dat><Sg><Wk>",
]
_STEMS = ["Meer<NN>Boden", "Nacht<NN>Markt", "a<NN>§§<X>§§", "§§<NN>§§@@", "Meer", "pizza"]
_OTHER = ["<+NN>", "und[KON]", ".[$]", "§§<NN>§§", "§§", "<X>§§", "piz@@", "@@", "[", "<>"]
stream_tokens = st.one_of(
    st.sampled_from(_TAGS + _FEATURES + _STEMS + _OTHER),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=15, max_size=15),
)
stream_units = st.one_of(
    stream_tokens.map(lambda token: [token]),
    st.tuples(st.sampled_from(_STEMS), st.sampled_from(_FEATURES)).map(list),
)
streams = st.lists(stream_units, max_size=8).map(
    lambda units: [token for unit in units for token in unit]
)
MODES_WALKED = ["morphgen", "serialization", "german-stemmed"]


def assert_walk_matches_spec(tokens, mode):
    assert walk_view(tokens, mode) == spec.walk(tokens, mode)


class TestWalkMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(streams, st.sampled_from(MODES_WALKED))
    def test_decode_matches_reference(self, tokens, mode):
        _, error = spec.walk(tokens, mode)
        assert walk_view(tokens, mode)[1] == error

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(streams, max_size=4),
        st.sampled_from(
            ["morphgen", "serialization", "german-stemmed", "german-stemmed-split"]
        ),
    )
    def test_postprocess_repairs_every_stream(
        self, czech_lexicon, german_lexicon, token_lines, mode
    ):
        lines = [" ".join(tokens) for tokens in token_lines]
        lex = german_lexicon if mode.startswith("german") else czech_lexicon
        result = postprocess(lines, PipelineConfig.for_mode(mode), lex)
        assert len(result.lines) == len(lines)
        _, diagnostics = spec.postprocess_lines(lines, mode)
        assert result.diagnostics.errors == diagnostics.errors


class TestWalkMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(streams, st.sampled_from(MODES_WALKED))
    def test_walk_matches_oracle(self, tokens, mode):
        assert_walk_matches_spec(tokens, mode)

    @settings(max_examples=100, deadline=None)
    @given(streams)
    def test_split_mode_walks_as_german_stemmed(self, tokens):
        # Split compounds are rejoined before the walk, so the split mode
        # walks its stream exactly as the unsplit mode does.
        assert walk(tokens, "german-stemmed-split") == walk(tokens, "german-stemmed")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(streams, min_size=1, max_size=4), st.sampled_from(MODES_WALKED))
    def test_classes_survive_an_emptied_memo(self, token_lines, mode):
        # Fresh memos with room for two tokens, emptied within most lines.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagsets, "_MEMO_LIMIT", 2)
            patch.setattr(tagsets, "_CZECH_TOKENS", {})
            patch.setattr(tagsets, "_GERMAN_TOKENS", {})
            for tokens in token_lines:
                assert classify_czech_tokens(tokens) == list(map(is_czech_tag, tokens))
                assert classify_german_tokens(tokens) == list(map(spec_class, tokens))
                assert_walk_matches_spec(tokens, mode)
            assert len(tagsets._CZECH_TOKENS) <= 2
            assert len(tagsets._GERMAN_TOKENS) <= 2

    def test_modes_without_pairs_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            walk(["a"], "baseline")
        with pytest.raises(ValueError, match="unknown mode"):
            walk(["a"], "surface")


# ---------------------------------------------------------------------------
# Czech postprocessing against the model.  Lines mix lexicon pairs, unknown
# lemmas, 15-letter lemmas that read as tags, BPE pieces, dangling markers,
# the separators the text revert must leave to the token path (double
# spaces, tab, carriage return) and the Unicode spaces that are token content.
# ---------------------------------------------------------------------------

_CZECH_PAIRS = [(tag_text, lemma) for tag_text, lemma, _ in FIG1_WORDS] + [
    ("NNFS1-----A----", "Hvanda"),  # unknown lemma
    ("NNIP1-----A----", "pizza"),  # incompatible tag
]
_CZECH_OTHER = ["piz@@", "za", "exis@@", "tovat", "@@", "x@@@", "NNFS2-----A----@@", ".@@"]
czech_units = st.one_of(
    st.sampled_from(_CZECH_PAIRS).map(list),
    st.sampled_from(_CZECH_OTHER + [tag for tag, _ in _CZECH_PAIRS]).map(lambda t: [t]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=15, max_size=15).map(lambda t: [t]),
)
_SPACES = [" ", " ", " ", "  ", "\t", "\r", "\x0c", "\x85", "\xa0", "\u2028"]


@st.composite
def czech_lines(draw):
    """A line of units: half of them joined by single spaces, the others by
    single and double spaces or by any whitespace, each with or without a
    leading and a trailing separator and a dangling marker."""
    tokens = [token for unit in draw(st.lists(czech_units, max_size=8)) for token in unit]
    spaces = draw(st.sampled_from([None, None, [" ", "  "], _SPACES]))
    if spaces is None:
        return " ".join(tokens)
    separators = draw(st.lists(st.sampled_from(spaces), min_size=len(tokens) + 2,
                               max_size=len(tokens) + 2))
    line = "".join(sep + token for sep, token in zip(separators, tokens))
    if draw(st.booleans()):
        line = line[len(separators[0]):]
    if draw(st.booleans()):
        line += separators[-1]
    return line + draw(st.sampled_from(["", "", "@@", "@@@@", " @@"]))


class TestCzechPostprocessMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(czech_lines(), max_size=6), st.sampled_from(["morphgen", "serialization"]))
    @example(
        [
            "NNFS2-----A---- piz@@ za",
            "NNFS2-----A---- piz@@ za ",
            " NNFS2-----A---- piz@@ za",
            "NNFS2-----A----  piz@@ za",
            "NNFS2-----A----\tpiz@@ za",
            "NNFS2-----A----\rpiz@@ za",
            "NNFS2-----A---- piz@@\x85za",
            "NNFS2-----A---- piz@@ za@@",
            "NNFS2-----A---- piz@@ za @@",
            "",
        ],
        "morphgen",
    )
    def test_same_lines_and_diagnostics(self, czech_lexicon, lines, mode):
        result = postprocess(lines, PipelineConfig.for_mode(mode), czech_lexicon)
        assert (result.lines, result.diagnostics) == spec.postprocess_lines(
            lines, mode, *toy_lexicon("czech_toy.tsv")
        )
