"""Tag parsing and formatting: exact round trips and rejection shapes."""

import pytest
from hypothesis import given, strategies as st

from morphmt import tagsets
from morphmt.tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    MorphAnalysis,
    StemSegment,
    format_analysis,
    format_tag,
    is_bare_token,
    is_czech_tag,
    is_feature_token,
    parse_czech_tag,
    parse_feature_seq,
    parse_german_analysis,
    parse_stem_side,
    split_lines,
)

from conftest import TABLE1_ROWS

TAG_ALPHABET = "".join(sorted(tagsets.TAG_ALPHABET))

czech_tag_texts = st.text(alphabet=TAG_ALPHABET, min_size=15, max_size=15)


class TestPositionalTag:
    def test_adjective_example(self):
        tag = parse_czech_tag("AAIP7----2A----")
        assert tag.pos == "A"
        assert tag.subpos == "A"
        assert tag.gender == "I"
        assert tag.number == "P"
        assert tag.case == "7"
        assert tag.grade == "2"
        assert tag.negation == "A"
        for name in ("possgender", "possnumber", "person", "tense", "voice", "var"):
            assert tag.slot(name) == "-"

    def test_punctuation_tag(self):
        tag = parse_czech_tag("Z:-------------")
        assert tag.pos == "Z"
        assert tag.subpos == ":"
        assert all(v == "-" for k, v in tag.slots.items() if k not in ("pos", "subpos"))

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

    def test_slots_mirror_raw(self):
        raw = "VB-P---3P-AA---"
        tag = parse_czech_tag(raw)
        assert "".join(tag.slots.values()) == raw
        assert list(tag.slots) == list(tagsets.SLOT_NAMES)

    @pytest.mark.parametrize("raw", ["VB-P---3P-AA---", "AAIP7----2A----", "Z:-------------"])
    def test_format_round_trip(self, raw):
        assert format_analysis(parse_czech_tag(raw)) == raw

    @given(czech_tag_texts)
    def test_accepts_exactly_the_permitted_alphabet(self, raw):
        tag = parse_czech_tag(raw)
        assert format_analysis(tag) == raw
        assert parse_czech_tag(format_analysis(tag)) == tag

    @given(st.text(max_size=30))
    def test_predicate_matches_parser(self, text):
        if is_czech_tag(text):
            parse_czech_tag(text)
        else:
            with pytest.raises(MalformedTag):
                parse_czech_tag(text)


class TestGermanFeatureSeq:
    def test_finite_verb(self):
        seq = parse_feature_seq("<+V><3><Sg><Pres><Ind>")
        assert seq.kind == "verbal-finite"
        assert (seq.person, seq.number, seq.tense, seq.mood) == ("3", "Sg", "Pres", "Ind")

    def test_nominal(self):
        seq = parse_feature_seq("<+NN><Fem><Acc><Sg><NA>")
        assert seq.kind == "nominal"
        assert (seq.head, seq.gender, seq.case, seq.number, seq.strength) == (
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
            GermanFeatureSeq("nominal", ("+NN", "Fem", "Acc", "Sg"))
        with pytest.raises(MalformedAnalysis):
            GermanFeatureSeq("bare")


class TestGermanAnalysis:
    def test_verb_stem(self):
        a = parse_german_analysis("treffen||<+V><3><Sg><Pres><Ind>")
        assert [s.lexeme for s in a.stem_segments] == ["treffen"]
        assert a.feature_seq.kind == "verbal-finite"
        assert a.inflected

    def test_compound_stem(self):
        a = parse_german_analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>")
        assert [(s.lexeme, s.markup) for s in a.stem_segments] == [
            ("Meer", "NN"),
            ("Boden", None),
        ]
        assert a.feature_seq.kind == "nominal"

    def test_bare_form(self):
        a = parse_german_analysis("und[KON]")
        assert not a.inflected
        assert a.stem_segments == (StemSegment("und"),)
        assert a.feature_seq.bare_tag == "KON"

    def test_punctuation_bare_form(self):
        a = parse_german_analysis(",[$]")
        assert a.stem_segments[0].lexeme == ","
        assert format_analysis(a) == ",[$]"

    @pytest.mark.parametrize("raw", [rep for rep, _ in TABLE1_ROWS])
    def test_table_rows_round_trip(self, raw):
        assert format_analysis(parse_german_analysis(raw)) == raw

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
        a = parse_german_analysis("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>")
        m = MorphAnalysis.from_german(a, surface="Meeresboden")
        assert m.lemma == "Meer<NN>Boden"
        assert m.surface == "Meeresboden"
        assert format_analysis(m.to_german_analysis()) == format_analysis(a)


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
        analysis = parse_german_analysis(raw)
        assert format_analysis(analysis) == raw
        assert parse_german_analysis(format_analysis(analysis)) == analysis


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


def uncached_feature_token(token):
    if not tagsets._ANGLE_SEQ_RE.match(token):
        return None
    try:
        return parse_feature_seq(token)
    except MalformedAnalysis:
        return None


def uncached_stem_side(text):
    if not text:
        raise MalformedAnalysis("empty stem side")
    segments, pos = [], 0
    while pos < len(text):
        m = tagsets._SEGMENT_RE.match(text, pos)
        if m is None or m.start() != pos:
            raise MalformedAnalysis(f"cannot parse stem side {text!r} at offset {pos}")
        segments.append(StemSegment(m.group(1), m.group(2)))
        pos = m.end()
    return tuple(segments)


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
            assert tagsets.parse_feature_token(token) == uncached_feature_token(token)

    @given(st.lists(markup_texts, min_size=1, max_size=4))
    def test_stem_side_memo(self, texts):
        for text in texts + texts:
            assert parse_outcome(parse_stem_side, text) == parse_outcome(uncached_stem_side, text)

    @pytest.mark.parametrize("token", ["<+NN><Fem><Acc><Sg><NA>", "<Foo><Bar>", "Wolke", ""])
    def test_feature_token_repeated(self, token):
        first = tagsets.parse_feature_token(token)
        assert tagsets.parse_feature_token(token) == first == uncached_feature_token(token)

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
        monkeypatch.setattr(tagsets, "_FEATURE_TOKENS", {})
        monkeypatch.setattr(tagsets, "_STEM_SIDES", {})
        for i in range(10):
            assert tagsets.parse_feature_token(f"<+V><{i}>") == uncached_feature_token(f"<+V><{i}>")
            assert parse_stem_side(f"a{i}<NN>b") == uncached_stem_side(f"a{i}<NN>b")
            assert len(tagsets._FEATURE_TOKENS) <= 3
            assert len(tagsets._STEM_SIDES) <= 3
