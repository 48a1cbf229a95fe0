"""Encoding/decoding of the interleaved training representations."""

import pytest
from hypothesis import given, settings, strategies as st

from morphmt import evaluation

from morphmt.interleave import (
    ERROR_ODD_LENGTH,
    ERROR_TAG_EXPECTED,
    ERROR_WORD_EXPECTED,
    LengthMismatch,
    WellformednessError,
    decode,
    encode,
    tag_source,
)
from morphmt.pipeline import PipelineConfig, postprocess
from morphmt.tagsets import (
    MorphAnalysis,
    is_bare_token,
    is_czech_tag,
    is_feature_token,
    parse_czech_tag,
    parse_german_analysis,
)

from conftest import (
    FIG1_MORPHGEN,
    FIG1_SERIALIZATION,
    FIG1_SURFACE,
    TABLE1_ROWS,
)

FIG1_ANALYSES = [
    MorphAnalysis("existovat", parse_czech_tag("VB-P---3P-AA---"), "existují"),
    MorphAnalysis("milión", parse_czech_tag("NNIP1-----A----"), "miliony"),
    MorphAnalysis("druh", parse_czech_tag("NNIP2-----A----"), "druhů"),
    MorphAnalysis("pizza", parse_czech_tag("NNFS2-----A----"), "pizzy"),
    MorphAnalysis(".", parse_czech_tag("Z:-------------"), "."),
]

TABLE1_ANALYSES = [
    MorphAnalysis.from_german(parse_german_analysis(rep), surface)
    for rep, surface in TABLE1_ROWS
]


class TestEncode:
    def test_morphgen_line(self):
        sent = encode(FIG1_ANALYSES, "morphgen")
        assert sent.text == FIG1_MORPHGEN

    def test_serialization_line(self):
        sent = encode(FIG1_ANALYSES, "serialization")
        assert sent.text == FIG1_SERIALIZATION

    def test_baseline_line(self):
        sent = encode(FIG1_ANALYSES, "baseline")
        assert sent.text == FIG1_SURFACE

    def test_german_stemmed_line(self):
        sent = encode(TABLE1_ANALYSES, "german-stemmed")
        assert sent.text.startswith(
            "und[KON] hier[ADV] sehen <+V><3><Sg><Pres><Ind> man[PIS]"
        )
        # bare words take one token, inflected words two
        bare = sum(1 for a in TABLE1_ANALYSES if a.tag.kind == "bare")
        inflected = len(TABLE1_ANALYSES) - bare
        assert len(sent.tokens) == bare + 2 * inflected

    def test_interleaving_doubles_length(self):
        for mode in ("morphgen", "serialization"):
            assert len(encode(FIG1_ANALYSES, mode).tokens) == 2 * len(FIG1_ANALYSES)

    def test_surface_required_for_serialization(self):
        bare = [MorphAnalysis("existovat", parse_czech_tag("VB-P---3P-AA---"))]
        with pytest.raises(ValueError):
            encode(bare, "serialization")
        encode(bare, "morphgen")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            encode([], "surface")


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
        with pytest.raises(WellformednessError) as excinfo:
            decode(["existovat", "VB-P---3P-AA---"], "morphgen")
        assert excinfo.value.kind == "tag-expected"
        assert excinfo.value.position == 0

    def test_odd_length_rejected(self):
        with pytest.raises(WellformednessError) as excinfo:
            decode(["VB-P---3P-AA---"], "morphgen")
        assert excinfo.value.kind == "odd-length"

    def test_two_adjacent_tags_rejected(self):
        with pytest.raises(WellformednessError) as excinfo:
            decode(
                ["VB-P---3P-AA---", "NNFS2-----A----", "Z:-------------", "."],
                "morphgen",
            )
        assert excinfo.value.kind == "word-expected"
        assert excinfo.value.position == 1

    def test_german_stemmed_pairs(self):
        sent = encode(TABLE1_ANALYSES, "german-stemmed")
        pairs = decode(list(sent.tokens), "german-stemmed")
        assert pairs[0] == ("[KON]", "und")
        assert pairs[2] == ("<+V><3><Sg><Pres><Ind>", "sehen")
        assert len(pairs) == len(TABLE1_ANALYSES)

    def test_german_stem_without_features_rejected(self):
        with pytest.raises(WellformednessError) as excinfo:
            decode(["sehen"], "german-stemmed")
        assert excinfo.value.kind == "tag-expected"
        assert excinfo.value.position == 1

    def test_german_orphan_features_rejected(self):
        with pytest.raises(WellformednessError) as excinfo:
            decode(["<+V><3><Sg><Pres><Ind>", "sehen"], "german-stemmed")
        assert excinfo.value.kind == "word-expected"
        assert excinfo.value.position == 0

    def test_baseline_has_no_pairs(self):
        with pytest.raises(ValueError):
            decode(["a"], "baseline")


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


@st.composite
def czech_analyses(draw):
    n = draw(st.integers(0, 8))
    out = []
    for _ in range(n):
        lemma = draw(lemmas)
        tag = parse_czech_tag(draw(czech_tags))
        out.append(MorphAnalysis(lemma, tag, surface=lemma + "s"))
    return out


from test_tagsets import german_analysis_texts

_german_texts = german_analysis_texts()


@st.composite
def german_analyses(draw):
    n = draw(st.integers(0, 6))
    out = []
    for _ in range(n):
        raw = draw(_german_texts)
        out.append(MorphAnalysis.from_german(parse_german_analysis(raw), surface="x"))
    return out


class TestRoundTripProperties:
    @given(czech_analyses(), st.sampled_from(["morphgen", "serialization"]))
    def test_czech_decode_inverts_encode(self, analyses, mode):
        sent = encode(analyses, mode)
        expected = [
            (a.tag_text, a.lemma if mode == "morphgen" else a.surface)
            for a in analyses
        ]
        assert decode(list(sent.tokens), mode) == expected
        assert len(sent.tokens) == 2 * len(analyses)

    @given(german_analyses())
    def test_german_decode_inverts_encode(self, analyses):
        sent = encode(analyses, "german-stemmed")
        expected = [(a.tag_text, a.lemma) for a in analyses]
        assert decode(list(sent.tokens), "german-stemmed") == expected


# ---------------------------------------------------------------------------
# A reference strict decoder, one direct walk per tag family, that
# ``decode`` must match in pairs, error kinds and error positions.
# ---------------------------------------------------------------------------

def _decode_czech(tokens: list[str]) -> list[tuple[str, str]]:
    if len(tokens) % 2 != 0:
        raise WellformednessError(len(tokens) - 1, ERROR_ODD_LENGTH)
    pairs = []
    for i in range(0, len(tokens), 2):
        tag, word = tokens[i], tokens[i + 1]
        if not is_czech_tag(tag):
            raise WellformednessError(i, ERROR_TAG_EXPECTED)
        if is_czech_tag(word):
            raise WellformednessError(i + 1, ERROR_WORD_EXPECTED)
        pairs.append((tag, word))
    return pairs


def _decode_german(tokens: list[str]) -> list[tuple[str, str]]:
    pairs = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if is_feature_token(token):
            # A feature sequence where a word was expected.
            raise WellformednessError(i, ERROR_WORD_EXPECTED)
        if is_bare_token(token):
            lexeme, tag = token[: token.index("[")], token[token.index("[") :]
            pairs.append((tag, lexeme))
            i += 1
            continue
        if i + 1 >= len(tokens) or not is_feature_token(tokens[i + 1]):
            raise WellformednessError(i + 1, ERROR_TAG_EXPECTED)
        pairs.append((tokens[i + 1], token))
        i += 2
    return pairs


def _oracle(tokens, mode):
    """(pairs, None) or (None, (kind, position)) from the reference decoder."""
    reference = _decode_german if mode == "german-stemmed" else _decode_czech
    try:
        return reference(tokens), None
    except WellformednessError as exc:
        return None, (exc.kind, exc.position)


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


class TestWalkMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(streams, st.sampled_from(["morphgen", "serialization", "german-stemmed"]))
    def test_decode_matches_reference(self, tokens, mode):
        pairs, error = _oracle(tokens, mode)
        if error is None:
            assert decode(tokens, mode) == pairs
        else:
            with pytest.raises(WellformednessError) as excinfo:
                decode(tokens, mode)
            assert (excinfo.value.kind, excinfo.value.position) == error

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
        if not any("@@" in line or "§§" in line for line in lines):
            base = "german-stemmed" if mode.startswith("german") else mode
            expected = evaluation.wellformedness(lines, base).errors
            assert result.wellformedness.errors == expected
