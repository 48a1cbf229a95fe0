"""Tag parsing and formatting: exact round trips and rejection shapes."""

import pytest
from hypothesis import example, given, settings, strategies as st

from morphmt import tagsets
from morphmt.tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    format_tag,
    is_czech_tag,
    parse_czech_tag,
    parse_feature_seq,
    parse_german_analysis,
    parse_stem_side,
    split_lines,
)

import spec
from conftest import TABLE1_ROWS

TAG_ALPHABET = "".join(sorted(tagsets.TAG_ALPHABET))

czech_tag_texts = st.text(alphabet=TAG_ALPHABET, min_size=15, max_size=15)


class TestPositionalTag:
    def test_length_14_rejected(self):
        with pytest.raises(MalformedTag):
            parse_czech_tag("NNFS2-----A---")

    def test_length_16_rejected(self):
        with pytest.raises(MalformedTag):
            parse_czech_tag("NNFS2-----A-----")

    @pytest.mark.parametrize("bad", ["AAIP7----2A---@", "AAIP7----2A--- ", "AAIP7----2A--§-"])
    def test_illegal_character_rejected(self, bad):
        with pytest.raises(MalformedTag):
            parse_czech_tag(bad)

    # A Czech tag is its text: the stream token and the lexicon key.
    @pytest.mark.parametrize("raw", ["VB-P---3P-AA---", "AAIP7----2A----", "Z:-------------"])
    def test_format_round_trip(self, raw):
        tag = parse_czech_tag(raw)
        assert type(tag) is str and tag == raw

    @given(czech_tag_texts)
    def test_accepts_exactly_the_permitted_alphabet(self, raw):
        assert parse_czech_tag(raw) == raw

    @given(st.text(max_size=30))
    def test_predicate_matches_parser(self, text):
        if is_czech_tag(text):
            assert parse_czech_tag(text) == text
        else:
            with pytest.raises(MalformedTag):
                parse_czech_tag(text)


class TestGermanFeatureSeq:
    def test_finite_verb(self):
        seq = parse_feature_seq("<+V><3><Sg><Pres><Ind>")
        assert seq.kind == "verbal-finite"
        assert seq.values == ("+V", "3", "Sg", "Pres", "Ind")
        assert seq.number == "Sg"

    def test_nominal(self):
        seq = parse_feature_seq("<+NN><Fem><Acc><Sg><NA>")
        assert seq.kind == "nominal"
        assert (seq.head, seq.gender, seq.case, seq.number, seq.values[-1]) == (
            "+NN",
            "Fem",
            "Acc",
            "Sg",
            "NA",
        )

    def test_nominal_with_degree_extra(self):
        seq = parse_feature_seq("<+ADJ><Pos><NoGend><Dat><Sg><Wk>")
        assert seq.kind == "nominal"
        assert seq.gender == "NoGend"
        assert format_tag(seq) == "<+ADJ><Pos><NoGend><Dat><Sg><Wk>"

    def test_participle_and_infinitive(self):
        assert parse_feature_seq("<+V><PPast>").kind == "participle"
        assert parse_feature_seq("<+V><Inf>").kind == "infinitive"

    def test_bare(self):
        seq = parse_feature_seq("[APPR-Dat]")
        assert seq.kind == "bare"
        assert seq.bare_tag == "APPR-Dat"
        assert format_tag(seq) == "[APPR-Dat]"

    def test_missing_strength_rejected(self):
        with pytest.raises(MalformedAnalysis):
            parse_feature_seq("<+NN><Fem><Acc><Sg>")

    @pytest.mark.parametrize(
        "bad",
        [
            "<+NN><Fem><Acc><Xx><NA>",
            "<+V><9><Sg><Pres><Ind>",
            "<+V><3><Sg><Pres>",
            "<Foo><Bar>",
            "<+NN>",
            "",
        ],
    )
    def test_bad_shapes_rejected(self, bad):
        with pytest.raises(MalformedAnalysis):
            parse_feature_seq(bad)

    def test_direct_construction_validates(self):
        with pytest.raises(MalformedAnalysis):
            GermanFeatureSeq(("+NN", "Fem", "Acc", "Sg"))
        with pytest.raises(MalformedAnalysis):
            GermanFeatureSeq()


def rejoin(tag_text, lemma):
    """The analysis token of a row key: bare tags follow their lexeme."""
    return lemma + tag_text if tag_text.startswith("[") else f"{lemma}||{tag_text}"


class TestGermanAnalysis:
    def test_verb_stem(self):
        tag_text, lemma, features = parse_german_analysis("treffen||<+V><3><Sg><Pres><Ind>")
        assert (tag_text, lemma) == ("<+V><3><Sg><Pres><Ind>", "treffen")
        assert features.kind == "verbal-finite"

    def test_compound_stem(self):
        _, lemma, features = parse_german_analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>")
        assert lemma == "Meer<NN>Boden"
        assert [(s.lexeme, s.markup) for s in parse_stem_side(lemma)] == [
            ("Meer", "NN"),
            ("Boden", None),
        ]
        assert features.kind == "nominal"

    def test_bare_form(self):
        tag_text, lemma, features = parse_german_analysis("und[KON]")
        assert (tag_text, lemma) == ("[KON]", "und")
        assert features.kind == "bare" and features.bare_tag == "KON"

    def test_punctuation_bare_form(self):
        tag_text, lemma, _ = parse_german_analysis(",[$]")
        assert (tag_text, lemma) == ("[$]", ",")

    @pytest.mark.parametrize("raw", [rep for rep, _ in TABLE1_ROWS])
    def test_table_rows_round_trip(self, raw):
        tag_text, lemma, features = parse_german_analysis(raw)
        assert rejoin(tag_text, lemma) == raw
        assert format_tag(features) == tag_text

    @pytest.mark.parametrize(
        "bad",
        [
            "Wolke||<+NN><Fem><Acc><Sg",
            "und[KON",
            "Wolke||<+NN><Fem><Acc><Sg>",
            "<NN>Boden||<+NN><Masc><Dat><Sg><NA>",
            "Meer||Boden||<+NN><Masc><Dat><Sg><NA>",
            "Wolke||[KON]",
            "zwei wörter",
            "",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(MalformedAnalysis):
            parse_german_analysis(bad)

    def test_stem_side_parser(self):
        segments = parse_stem_side("Hydrogen<NN>Sulfid<NN>reich<Pos>")
        assert [(s.lexeme, s.markup) for s in segments] == [
            ("Hydrogen", "NN"),
            ("Sulfid", "NN"),
            ("reich", "Pos"),
        ]

    def test_morph_analysis_conversion(self):
        # A lexicon row key holds the stem side as the lemma and the feature
        # sequence as the tag text.
        raw = "Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>"
        tag_text, lemma, features = parse_german_analysis(raw)
        assert (tag_text, lemma) == ("<+NN><Masc><Dat><Sg><NA>", "Meer<NN>Boden")
        assert features == parse_feature_seq(tag_text)


german_lexemes = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzäöüß", min_size=1, max_size=8
)


@st.composite
def german_analysis_texts(draw):
    if draw(st.booleans()):
        lexeme = draw(german_lexemes)
        tag = draw(st.sampled_from(["KON", "ADV", "PIS", "APPR-Dat", "$"]))
        return f"{lexeme}[{tag}]"
    n_segments = draw(st.integers(1, 3))
    parts = []
    for i in range(n_segments):
        lexeme = draw(german_lexemes)
        if i < n_segments - 1:
            markup = draw(st.sampled_from(["NN", "ADJ"]))
            parts.append(f"{lexeme}<{markup}>")
        else:
            markup = draw(st.sampled_from([None, "Pos", "Def", "Indef"]))
            parts.append(lexeme if markup is None else f"{lexeme}<{markup}>")
    kind = draw(st.integers(0, 3))
    if kind == 0:
        features = "<+V><PPast>"
    elif kind == 1:
        features = "<+V><Inf>"
    elif kind == 2:
        person = draw(st.sampled_from("123"))
        number = draw(st.sampled_from(["Sg", "Pl"]))
        tense = draw(st.sampled_from(["Pres", "Past"]))
        mood = draw(st.sampled_from(["Ind", "Subj"]))
        features = f"<+V><{person}><{number}><{tense}><{mood}>"
    else:
        head = draw(st.sampled_from(["+NN", "+ADJ", "+ART"]))
        gender = draw(st.sampled_from(["Fem", "Masc", "Neut", "NoGend"]))
        case = draw(st.sampled_from(["Nom", "Acc", "Dat", "Gen"]))
        number = draw(st.sampled_from(["Sg", "Pl"]))
        strength = draw(st.sampled_from(["St", "Wk", "NA"]))
        features = f"<{head}><{gender}><{case}><{number}><{strength}>"
    return "".join(parts) + "||" + features


class TestRoundTripProperties:
    @given(german_analysis_texts())
    def test_parse_format_inverse(self, raw):
        tag_text, lemma, features = parse_german_analysis(raw)
        assert rejoin(tag_text, lemma) == raw
        assert (format_tag(features), features) == (tag_text, parse_feature_seq(tag_text))

    @settings(max_examples=300)
    @given(st.one_of(
        german_analysis_texts(),
        st.lists(st.sampled_from(list("ab<>[]|+ ") + ["NN", "KON", "||", "<+V><Inf>"]),
                 max_size=12).map("".join),
    ))
    @example("<NN>Boden||<+NN><Masc><Dat><Sg><NA>")  # a stem side that does not parse
    def test_checks_match_the_record_parser(self, raw):
        # A token parses exactly when the analysis-token grammar holds, and
        # then its halves rejoin to it.
        try:
            tag_text, lemma, features = parse_german_analysis(raw)
        except MalformedAnalysis:
            assert not analysis_token_ok(raw)
        else:
            assert analysis_token_ok(raw)
            assert rejoin(tag_text, lemma) == raw and features == parse_feature_seq(tag_text)


def analysis_token_ok(raw):
    """No whitespace, balanced brackets, and either a stem side, ``||`` and
    a feature sequence, or a bare ``lexeme[TAG]`` token."""
    if any(c.isspace() for c in raw) or raw.count("<") != raw.count(">") or (
        raw.count("[") != raw.count("]")
    ):
        return False
    if "||" not in raw:
        return spec.bare_token(raw) is not None
    stem, _, tag = raw.partition("||")
    try:
        parse_stem_side(stem)
        return "||" not in tag and parse_feature_seq(tag).kind != "bare"
    except MalformedAnalysis:
        return False


class TestSplitLines:
    @pytest.mark.parametrize(
        "text, lines",
        [
            ("", []),
            ("\n", [""]),
            ("a", ["a"]),
            ("a\nb\n", ["a", "b"]),
            ("a\n\nb", ["a", "", "b"]),
            ("a\r\nb\r\n", ["a", "b"]),
            ("a\rb\r", ["a\rb\r"]),
            ("a\r\r\n", ["a\r"]),
            ("a\u0085b\u2028c\u2029d\x0ce\x0bf\x1cg\n", ["a\u0085b\u2028c\u2029d\x0ce\x0bf\x1cg"]),
        ],
    )
    def test_only_newline_ends_a_line(self, text, lines):
        assert split_lines(text) == lines

    @given(st.lists(st.text(alphabet="ab\r\u0085\u2028\x0c "), max_size=6))
    def test_inverse_of_joining_lines(self, lines):
        lines = [line.rstrip("\r") for line in lines]
        assert split_lines("".join(line + "\n" for line in lines)) == lines
        assert split_lines("".join(line + "\r\n" for line in lines)) == lines


def is_feature_token(token):
    return tagsets.classify_german_tokens([token])[0][0] is not None


def is_bare_token(token):
    return tagsets.classify_german_tokens([token])[0][1] is not None


class TestTokenPredicates:
    def test_feature_tokens(self):
        assert is_feature_token("<+NN><Fem><Acc><Sg><NA>")
        assert is_feature_token("<+V><PPast>")
        assert not is_feature_token("Wolke")
        assert not is_feature_token("und[KON]")
        assert not is_feature_token("<Foo><Bar>")

    def test_bare_tokens(self):
        assert is_bare_token("und[KON]")
        assert is_bare_token(",[$]")
        assert not is_bare_token("[KON]")
        assert not is_bare_token("Wolke")


def loop_is_czech_tag(token):
    """is_czech_tag as a loop over the characters: the oracle for the pattern."""
    return len(token) == tagsets.TAG_LENGTH and all(ch in tagsets.TAG_ALPHABET for ch in token)


def spec_class(token):
    """The ``classify_german_tokens`` value of the reference model's class."""
    kind = spec.german_class(token)
    if kind == spec.FEATURES:
        return parse_feature_seq(token), None, None
    if kind == spec.BARE:
        lexeme, tag = spec.bare_token(token)
        return None, (tag, lexeme), None
    if kind == spec.SEPARATOR:
        return None, None, spec.separator_markup(token)
    return tagsets.GERMAN_WORD


def uncached_feature_token(token):
    return spec_class(token)[0]


# The stem-side parser without its memo.
uncached_stem_side = tagsets._parse_stem_side


def parse_outcome(fn, text):
    try:
        return fn(text)
    except MalformedAnalysis as exc:
        return ("MalformedAnalysis", str(exc))


# Near-tags: 14 to 16 characters, mostly from the tag alphabet, with
# look-alikes that a looser class would accept (non-ASCII letters and
# digits, '=', '_', a trailing newline).
near_tags = st.text(
    alphabet=st.sampled_from(list("AZaz09:-") + ["=", "_", "é", "٣", "\n", " "]),
    min_size=14, max_size=16,
)
# Feature-ish and stem-ish tokens from the characters their grammars use.
markup_texts = st.lists(
    st.sampled_from(["<", ">", "+NN", "Fem", "Acc", "Sg", "NA", "+V", "3", "Pres", "Ind",
                     "[", "]", "KON", "Meer", "|", "", " "]),
    max_size=8,
).map("".join)


class TestTokenParsersMatchUncached:
    @given(near_tags)
    def test_czech_tag_pattern(self, token):
        assert is_czech_tag(token) == loop_is_czech_tag(token)

    @given(st.lists(markup_texts, min_size=1, max_size=4))
    def test_feature_token_memo(self, tokens):
        for token in tokens + tokens:
            assert is_feature_token(token) == (uncached_feature_token(token) is not None)
            assert tagsets.classify_german_tokens([token])[0][0] == uncached_feature_token(token)

    @given(st.lists(markup_texts, min_size=1, max_size=4))
    def test_stem_side_memo(self, texts):
        for text in texts + texts:
            assert parse_outcome(parse_stem_side, text) == parse_outcome(uncached_stem_side, text)

    @pytest.mark.parametrize("token", ["<+NN><Fem><Acc><Sg><NA>", "<Foo><Bar>", "Wolke", ""])
    def test_feature_token_repeated(self, token):
        [(first, _, _)] = tagsets.classify_german_tokens([token])
        [(again, _, _)] = tagsets.classify_german_tokens([token])
        assert again is first
        assert first == uncached_feature_token(token)

    @pytest.mark.parametrize("text", ["", "a||b", "Meer<NN", "<NN>"])
    def test_invalid_stem_side_raises_each_time(self, text):
        messages = set()
        for _ in range(2):
            with pytest.raises(MalformedAnalysis) as exc:
                parse_stem_side(text)
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_memos_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(tagsets, "_MEMO_LIMIT", 3)
        monkeypatch.setattr(tagsets, "_GERMAN_TOKENS", {})
        monkeypatch.setattr(tagsets, "_STEM_SIDES", {})
        for i in range(10):
            token = f"<+V><{i}>"
            assert is_feature_token(token) == (uncached_feature_token(token) is not None)
            assert parse_stem_side(f"a{i}<NN>b") == uncached_stem_side(f"a{i}<NN>b")
            assert len(tagsets._GERMAN_TOKENS) <= 3
            assert len(tagsets._STEM_SIDES) <= 3

    def test_german_classes_are_cached_once(self, monkeypatch):
        monkeypatch.setattr(tagsets, "_GERMAN_TOKENS", {})
        tokens = ["<+NN><Fem>", "Meer", "Haus[NN]", "<+V>", "Meer", "§§<NN>§§"]
        classes = tagsets.classify_german_tokens(tokens)
        assert set(tagsets._GERMAN_TOKENS) == set(tokens)
        memo = dict(tagsets._GERMAN_TOKENS)
        # The predicate reads the same memo and adds nothing to it.
        for token in tokens:
            tagsets.is_german_tag_token(token)
        assert tagsets._GERMAN_TOKENS == memo
        assert all(a is b for a, b in zip(classes, map(memo.get, tokens)))


def positional_tag_error(raw):
    """The error a text that is no positional tag is rejected with, or None."""
    if len(raw) != tagsets.TAG_LENGTH:
        return (f"positional tag must have {tagsets.TAG_LENGTH} characters, "
                f"got {len(raw)}: {raw!r}")
    for i, ch in enumerate(raw):
        if ch not in tagsets.TAG_ALPHABET:
            return f"illegal character {ch!r} at position {i} in tag {raw!r}"
    return None


class TestParseCzechTagSharesThePattern:
    @given(st.one_of(near_tags, czech_tag_texts))
    def test_accepts_what_is_czech_tag_accepts(self, raw):
        error = positional_tag_error(raw)
        assert (error is None) == is_czech_tag(raw)
        if error is None:
            assert parse_czech_tag(raw) == raw
        else:
            with pytest.raises(MalformedTag) as exc:
                parse_czech_tag(raw)
            assert str(exc.value) == error


# Tokens from the characters of every German token shape, with valid
# feature, bare and separator tokens often among them.
german_token_texts = st.one_of(
    st.lists(
        st.one_of(
            st.sampled_from(list("<>[]§|+") + ["§§", "+NN", "+V", "Fem", "Acc", "Sg", "NA",
                                              "3", "Pres", "Ind", "PPast", "KON", "NN"]),
            st.text(alphabet="<>[]§|+aZ09", max_size=3),
        ),
        max_size=8,
    ).map("".join),
    st.sampled_from([
        "<+NN><Fem><Acc><Sg><NA>", "<+V><PPast>", "<Foo><Bar>", "und[KON]", ",[$]", "[KON]",
        "§§<NN>§§", "§§<ADJ>§§", "§§<>§§", "§§<NN>§", "Meer", "Meer<NN>Boden",
    ]),
)


class TestGermanClassifierMatchesOracle:
    """classify_german_tokens against the reference model's token classes."""

    @settings(max_examples=300)
    @given(st.lists(german_token_texts, max_size=8))
    def test_classes_and_predicates(self, tokens):
        assert tagsets.classify_german_tokens(tokens) == list(map(spec_class, tokens))
        for token in tokens:
            assert tagsets.is_german_tag_token(token) == (spec.german_class(token) != spec.WORD)

    @settings(max_examples=100)
    @given(st.lists(st.lists(german_token_texts, max_size=6), min_size=1, max_size=4))
    def test_classes_survive_an_emptied_memo(self, token_lines):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tagsets, "_MEMO_LIMIT", 2)
            patch.setattr(tagsets, "_GERMAN_TOKENS", {})
            for tokens in token_lines:
                assert tagsets.classify_german_tokens(tokens) == list(map(spec_class, tokens))
                for token in tokens:
                    assert tagsets.is_german_tag_token(token) == (
                        spec.german_class(token) != spec.WORD
                    )
                assert len(tagsets._GERMAN_TOKENS) <= 2

    def test_a_word_is_the_one_word_class(self):
        [word, features] = tagsets.classify_german_tokens(["Meer", "<+V><PPast>"])
        assert word is tagsets.GERMAN_WORD
        assert features is not tagsets.GERMAN_WORD


class TestTagPredicateForMode:
    @pytest.mark.parametrize("mode, predicate", [
        ("baseline", None),
        ("morphgen", is_czech_tag),
        ("serialization", is_czech_tag),
        ("german-stemmed", tagsets.is_german_tag_token),
        ("german-stemmed-split", tagsets.is_german_tag_token),
    ])
    def test_predicate_per_mode(self, mode, predicate):
        assert tagsets.tag_predicate_for_mode(mode) is predicate
        assert tagsets.tag_predicate_for_mode(mode) is tagsets.tag_predicate_for_mode(mode)

    def test_pipeline_reexports_it(self):
        from morphmt import pipeline

        assert pipeline.tag_predicate_for_mode is tagsets.tag_predicate_for_mode
