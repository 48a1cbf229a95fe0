"""Encoding/decoding of the interleaved training representations."""

import pytest
from hypothesis import example, given, settings, strategies as st

from morphmt import tagsets

from morphmt.interleave import (
    ERROR_ODD_LENGTH,
    ERROR_TAG_EXPECTED,
    ERROR_WORD_EXPECTED,
    EVENT_DROPPED_TAG,
    EVENT_WORD_WITHOUT_TAG,
    ITEM_BARE,
    ITEM_PAIR,
    Item,
    LengthMismatch,
    Walk,
    WellformednessError,
    tag_source,
    walk,
)
from morphmt.morphlex import ParadigmLexicon
from morphmt.pipeline import PipelineConfig, _encode_analysis, postprocess
from morphmt.tagsets import (
    classify_czech_tokens,
    classify_german_tokens,
    is_czech_tag,
    parse_czech_tag,
    parse_german_analysis,
)

from conftest import (
    FIG1_MORPHGEN,
    FIG1_SERIALIZATION,
    TABLE1_ROWS,
)
from oracles import (
    Analysis,
    decode,
    encode_record,
    expand_runs,
    postprocess_tag_first,
    walk_tag_first,
    wellformedness,
)
from test_tagsets import oracle_german_class, oracle_is_bare, uncached_feature_token

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
        pairs = decode(encode(TABLE1_WORDS, "german-stemmed"), "german-stemmed")
        assert pairs[0] == ("[KON]", "und")
        assert pairs[2] == ("<+V><3><Sg><Pres><Ind>", "sehen")
        assert len(pairs) == len(TABLE1_WORDS)

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
        out.append(Analysis(lemma, tag, surface=lemma + "s"))
    return out


from test_tagsets import german_analysis_texts

_german_texts = german_analysis_texts()


@st.composite
def german_analyses(draw):
    """Analyses of parsed German tokens; a bare token reads back as its
    lexeme, so each surface is its lemma."""
    n = draw(st.integers(0, 6))
    out = []
    for _ in range(n):
        _, lemma, features = parse_german_analysis(draw(_german_texts))
        out.append(Analysis(lemma, features, surface=lemma))
    return out


def encode_keys(analyses, mode):
    """The tokens of each analysis encoded from its row key, checked against
    the record encoder."""
    tokens = []
    for a in analyses:
        word = encode([(a.tag_text, a.lemma, a.surface)], mode)
        assert word == list(encode_record(a, mode))
        tokens += word
    return tokens


class TestRoundTripProperties:
    @given(czech_analyses(), st.sampled_from(["morphgen", "serialization"]))
    def test_czech_decode_inverts_encode(self, analyses, mode):
        tokens = encode_keys(analyses, mode)
        expected = [
            (a.tag_text, a.lemma if mode == "morphgen" else a.surface)
            for a in analyses
        ]
        assert decode(tokens, mode) == expected
        assert len(tokens) == 2 * len(analyses)

    @given(german_analyses())
    def test_german_decode_inverts_encode(self, analyses):
        tokens = encode_keys(analyses, "german-stemmed")
        expected = [(a.tag_text, a.lemma) for a in analyses]
        assert decode(tokens, "german-stemmed") == expected


# ---------------------------------------------------------------------------
# A reference strict decoder, one direct walk per tag family, that the
# strict view of ``walk`` must match in pairs, error kinds and error
# positions.
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
        if uncached_feature_token(token) is not None:
            # A feature sequence where a word was expected.
            raise WellformednessError(i, ERROR_WORD_EXPECTED)
        if oracle_is_bare(token):
            lexeme, tag = token[: token.index("[")], token[token.index("[") :]
            pairs.append((tag, lexeme))
            i += 1
            continue
        if i + 1 >= len(tokens) or uncached_feature_token(tokens[i + 1]) is None:
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
            expected = wellformedness(lines, base).errors
            assert result.diagnostics.errors == expected


# ---------------------------------------------------------------------------
# The lenient walk as it was written first - one predicate call per token,
# a NamedTuple constructor per item and the strict error read off the
# items afterwards - that ``walk`` must match item for item.
# ---------------------------------------------------------------------------

_STRICT_ERROR = {
    EVENT_WORD_WITHOUT_TAG: ERROR_TAG_EXPECTED,
    EVENT_DROPPED_TAG: ERROR_WORD_EXPECTED,
}


def oracle_walk(tokens, mode):
    if mode in ("morphgen", "serialization"):
        tag_first = True
        features = [None] * len(tokens)
        is_tag = list(map(is_czech_tag, tokens))
    elif mode == "german-stemmed":
        tag_first = False
        features = list(map(uncached_feature_token, tokens))
        is_tag = [f is not None for f in features]
    else:
        raise ValueError(mode)
    items = []
    n = len(tokens)
    i = 0
    while i < n:
        token = tokens[i]
        if is_tag[i]:
            if tag_first and i + 1 < n and not is_tag[i + 1]:
                items.append(Item(ITEM_PAIR, i, token, tokens[i + 1]))
                i += 2
                continue
            items.append(Item(EVENT_DROPPED_TAG, i, token, ""))
        elif not tag_first and oracle_is_bare(token):
            lexeme, bracket, rest = token.partition("[")
            items.append(Item(ITEM_BARE, i, bracket + rest, lexeme))
        elif not tag_first and i + 1 < n and is_tag[i + 1]:
            items.append(Item(ITEM_PAIR, i, tokens[i + 1], token, features[i + 1]))
            i += 2
            continue
        else:
            items.append(Item(EVENT_WORD_WITHOUT_TAG, i, "", token))
        i += 1
    error = None
    if tag_first and n % 2 != 0:
        error = WellformednessError(n - 1, ERROR_ODD_LENGTH)
    else:
        for item in items:
            if item.kind in _STRICT_ERROR:
                opens_pair = (item.kind == EVENT_DROPPED_TAG) == tag_first
                position = item.position + 1 if opens_pair else item.position
                error = WellformednessError(position, _STRICT_ERROR[item.kind])
                break
    return Walk(items, error)


def walk_view(stream):
    """A walk's items with their types, runs expanded into pairs, and its
    error as comparable values."""
    error = stream.error
    if error is not None:
        error = (type(error), error.kind, error.position, str(error))
    return type(stream), [(type(item), item) for item in expand_runs(stream.items)], error


def assert_walk_matches_oracles(tokens, mode):
    view = walk_view(walk(tokens, mode))
    assert view == walk_view(oracle_walk(tokens, mode))
    if mode != "german-stemmed":
        assert view == walk_view(walk_tag_first(tokens))


MODES_WALKED = ["morphgen", "serialization", "german-stemmed"]


class TestWalkMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(streams, st.sampled_from(MODES_WALKED))
    def test_walk_matches_oracle(self, tokens, mode):
        assert_walk_matches_oracles(tokens, mode)

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
                assert classify_german_tokens(tokens) == list(map(oracle_german_class, tokens))
                assert_walk_matches_oracles(tokens, mode)
            assert len(tagsets._CZECH_TOKENS) <= 2
            assert len(tagsets._GERMAN_TOKENS) <= 2

    def test_modes_without_pairs_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            walk(["a"], "baseline")
        with pytest.raises(ValueError, match="unknown mode"):
            walk(["a"], "surface")


# ---------------------------------------------------------------------------
# Czech postprocessing against the per-token path: each line split before
# its BPE is reverted, the stream walked one token at a time and each pair
# looked up where it occurs.  Lines mix lexicon pairs, unknown lemmas,
# 15-letter lemmas that read as tags, BPE pieces, dangling markers and
# every kind of whitespace the text revert must leave to the split path.
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
_SPACES = [" ", " ", " ", "  ", "\t", "\x0c", "\x85", "\xa0", "\u2028"]


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
            "NNFS2-----A---- piz@@ za@@",
            "NNFS2-----A---- piz@@ za @@",
            "",
        ],
        "morphgen",
    )
    def test_same_lines_and_diagnostics(self, czech_lexicon, lines, mode):
        result = postprocess(lines, PipelineConfig.for_mode(mode), czech_lexicon)
        expected = postprocess_tag_first(lines, mode, czech_lexicon)
        assert result.lines == expected.lines
        assert result.diagnostics == expected.diagnostics
