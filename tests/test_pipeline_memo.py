"""The per-distinct-pair memos of prepare and postprocess against per-token oracles.

``prepare_variant`` analyses and encodes each distinct (target token,
parse tag) pair once, the German branch of ``postprocess`` merges and
generates each distinct (stem, tag) pair once, and a Czech pair found in
the lexicon is one lookup.  The oracles below are the per-sentence and
per-occurrence code those shortcuts replaced: every stream goes through
the oracle walk, and every pair through ``generate_with_fallback``.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from morphmt import interleave, pipeline, tagsets
from morphmt.bpe import learn_bpe, segment_line
from morphmt.compounds import rejoin_split_tokens
from morphmt.morphlex import (
    Diagnostics,
    LexiconConflict,
    NoCompatibleAnalysis,
    ParadigmLexicon,
    analyze,
    generate_with_fallback,
    load_lexicon,
    parse_tag_text,
    select_analysis,
)
from morphmt.pipeline import (
    ParallelCorpus,
    PipelineConfig,
    PostprocessResult,
    postprocess,
    prepare_variant,
)
from morphmt.tagsets import (
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    format_tag,
    tag_predicate_for_mode,
)

from conftest import FIG1_MORPHGEN, TABLE1_PARSE_TAGS, TABLE1_ROWS, entry_rows
from oracles import (
    Analysis,
    CompoundSplit,
    candidates,
    disambiguate,
    encode_record,
    merge_stem,
    revert_lenient,
    split_analysis,
    to_german_analysis,
)
from test_interleave import oracle_walk
from test_tagsets import oracle_is_bare

LEXICON_MODES = ["morphgen", "serialization", "german-stemmed", "german-stemmed-split"]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_analyses_for(lex, tokens, parse_tags):
    """One analysis per token of a sentence, disambiguated when parse tags are given."""
    if parse_tags is not None and len(parse_tags) != len(tokens):
        raise ValueError(f"{len(tokens)} tokens but {len(parse_tags)} parse tags")
    analyses = []
    for position, token in enumerate(tokens):
        options = candidates(lex, token)
        if not options:
            raise MalformedAnalysis(f"no analysis for {token!r}")
        if parse_tags is None:
            analyses.append(options[0])
        else:
            analyses.append(disambiguate(options, parse_tags[position]))
    return analyses


def oracle_encode_target(analyses, mode):
    if mode.startswith("german"):
        for a in analyses:
            unreadable = unreadable_german_key(a)
            if unreadable is not None:
                raise MalformedAnalysis(unreadable)
    if mode != "german-stemmed-split":
        return [token for a in analyses for token in encode_record(a, mode)]
    tokens = []
    for a in analyses:
        split = split_analysis(to_german_analysis(a))
        if isinstance(split, CompoundSplit):
            tokens.extend(split.tokens)
        else:
            tokens.extend(encode_record(a, "german-stemmed"))
    return tokens


def oracle_prepare(corpus, cfg, lex, parse_tags):
    """(target lines, merges, dropped) of a corpus with empty sources; an
    error in a sentence is raised with its 1-based line before it."""
    encoded, dropped = [], []
    for index, (_, target) in enumerate(corpus.pairs):
        tags = parse_tags[index] if parse_tags is not None else None
        try:
            analyses = oracle_analyses_for(lex, target.split(), tags)
        except (MalformedAnalysis, NoCompatibleAnalysis) as exc:
            dropped.append((index, str(exc)))
            continue
        except ValueError as exc:
            raise ValueError(f"line {index + 1}: {exc}") from None
        try:
            encoded.append(" ".join(oracle_encode_target(analyses, cfg.mode)))
        except ValueError as exc:
            raise type(exc)(f"line {index + 1}: {exc}") from None
    table = learn_bpe([token for line in encoded for token in line.split()], cfg.bpe_merges)
    protected = tag_predicate_for_mode(cfg.mode) if cfg.protect_tags else None
    return [segment_line(table, line, protected) for line in encoded], table.merges, dropped


def oracle_postprocess_line(line, mode, lex):
    """postprocess_line with every pair generated where it occurs, every
    German pair merged there too through the split tokens, and the line's
    records in a Diagnostics of their own, at line 0."""
    diagnostics = Diagnostics()
    repairs = diagnostics.repairs
    tokens = revert_lenient(line.split(), diagnostics)
    if mode == "baseline":
        diagnostics.lines = 1
        return " ".join(tokens), diagnostics
    if mode == "german-stemmed-split":
        tokens, orphans = rejoin_split_tokens(tokens)
        repairs.extend((0, pos, "orphan-separator") for pos, _ in orphans)
    stream = oracle_walk(tokens, "german-stemmed" if mode.startswith("german") else mode)
    if stream.error is not None:
        diagnostics.errors.append((0, stream.error.kind, stream.error.position))
    words, unknown_modifiers = [], []
    for item in stream.items:
        if item.kind == "dropped-tag":
            repairs.append((0, item.position, item.kind))
        elif item.kind == "word-without-tag":
            repairs.append((0, item.position, item.kind))
            words.append(item.word)
        elif item.kind == interleave.ITEM_BARE or mode == "serialization":
            words.append(item.word)
        elif mode == "morphgen":
            words.append(generate_with_fallback(lex, item.word, item.tag, diagnostics))
        else:
            try:
                analysis, _ = merge_stem(item.word, item.features, lex, unknown_modifiers)
            except MalformedAnalysis:
                repairs.append((0, item.position, "unparseable-stem"))
                words.append(item.word)
                continue
            words.append(generate_with_fallback(lex, analysis.stem_text, item.tag, diagnostics))
    diagnostics.unknown_modifiers = [(0, lexeme) for lexeme in unknown_modifiers]
    diagnostics.lines = 1
    return " ".join(words), diagnostics


def oracle_postprocess(lines, mode, lex):
    result = PostprocessResult([], Diagnostics())
    for line in lines:
        text, diagnostics = oracle_postprocess_line(line, mode, lex)
        result.lines.append(text)
        result.diagnostics.merge(diagnostics)
    return result


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (MalformedAnalysis, NoCompatibleAnalysis, ValueError) as exc:
        return type(exc).__name__, str(exc)


def prepare_outcome(corpus, cfg, lex, parse_tags):
    prepared = prepare_variant(corpus, cfg, lex, target_parse_tags=parse_tags)
    return prepared.corpus.targets, prepared.target_table.merges, prepared.dropped


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

SURFACES = {
    "czech": sorted({surface for _, _, surface in entry_rows("czech_toy.tsv")}),
    "german": sorted({surface for _, _, surface in entry_rows("german_toy.tsv")}),
}
UNKNOWN_WORDS = ["Hvanda", "xyz"]
# Parse tags of the worked example plus tags no candidate of most words fits.
PARSE_TAGS = sorted(set(TABLE1_PARSE_TAGS)) + ["VVFIN-Pl", "NN-Gen.Pl", "ADJA-Nom.Sg.Masc"]


@st.composite
def prepare_cases(draw):
    """(mode, lexicon name, target lines, parse tags or None) over a small
    vocabulary, so that pairs repeat within and across sentences."""
    mode = draw(st.sampled_from(LEXICON_MODES))
    lexicon = draw(st.sampled_from(["czech", "german"]))
    words = st.sampled_from(SURFACES[lexicon] + UNKNOWN_WORDS)
    tags = st.sampled_from(PARSE_TAGS)
    sentence = st.lists(st.tuples(words, tags), max_size=6)
    sentences = draw(st.lists(sentence, min_size=1, max_size=6))
    targets = [" ".join(word for word, _ in sentence) for sentence in sentences]
    parse_tags = None
    if draw(st.booleans()):
        parse_tags = [[tag for _, tag in sentence] for sentence in sentences]
    return mode, lexicon, targets, parse_tags


class TestPrepareMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(prepare_cases())
    def test_prepare_matches_oracle(self, czech_lexicon, german_lexicon, case):
        mode, lexicon, targets, parse_tags = case
        lex = czech_lexicon if lexicon == "czech" else german_lexicon
        corpus = ParallelCorpus.from_lines([""] * len(targets), targets)
        cfg = PipelineConfig.for_mode(mode, bpe_merges=10, protect_tags=True)
        assert outcome(prepare_outcome, corpus, cfg, lex, parse_tags) == outcome(
            oracle_prepare, corpus, cfg, lex, parse_tags
        )

    @pytest.mark.parametrize(
        "target, expected",
        [
            # An unknown word drops the sentence even after a word whose
            # encoding raises; else the first encoding error is raised.
            ("ab xyz", ([], (), [(0, "no analysis for 'xyz'")])),
            ("ab cd", ("MalformedAnalysis", "line 1: cannot parse stem side 'a||b' at offset 1")),
            ("cd ab", ("MalformedAnalysis", "line 1: cannot parse stem side 'c||d' at offset 1")),
        ],
    )
    def test_analysis_failure_comes_before_encoding_failure(self, target, expected):
        # Lemmas that are no stem side: split mode cannot encode them.
        lex = load_lexicon(
            "a||b\t<+NN><Masc><Nom><Sg><NA>\tab\nc||d\t<+NN><Masc><Nom><Sg><NA>\tcd\n"
        )
        corpus = ParallelCorpus.from_lines([""], [target])
        cfg = PipelineConfig.for_mode("german-stemmed-split")
        new = outcome(prepare_outcome, corpus, cfg, lex, None)
        assert new == outcome(oracle_prepare, corpus, cfg, lex, None)
        assert new == expected

    def test_parse_tag_count_still_checked_per_sentence(self, german_lexicon):
        corpus = ParallelCorpus.from_lines(["", ""], ["und Wolke", "und"])
        cfg = PipelineConfig.for_mode("german-stemmed")
        with pytest.raises(ValueError, match="2 tokens but 1 parse tags"):
            prepare_variant(corpus, cfg, german_lexicon, target_parse_tags=[["KON"], ["KON"]])

    def test_one_disambiguation_per_distinct_pair(self, german_lexicon, monkeypatch):
        calls = []

        def counting(lex, token, context):
            calls.append((token, context))
            return select_analysis(lex, token, context)

        monkeypatch.setattr(pipeline, "select_analysis", counting)
        surface = " ".join(word for _, word in TABLE1_ROWS)
        corpus = ParallelCorpus.from_lines([""] * 3, [surface] * 3)
        cfg = PipelineConfig.for_mode("german-stemmed-split")
        parse_tags = [TABLE1_PARSE_TAGS] * 3
        prepared = prepare_variant(corpus, cfg, german_lexicon, target_parse_tags=parse_tags)
        assert prepared.dropped == []
        distinct = set(zip(surface.split(), TABLE1_PARSE_TAGS))
        # Every pair of the sentence is distinct; its repeats add no call.
        assert sorted(calls) == sorted(distinct)
        assert len(distinct) == len(TABLE1_ROWS)


# Tag texts of both families and near misses: positional tags of 14 to 16
# characters (some with '='), angle-value runs (most of them no feature
# sequence) and bracketed bare tags, with some valid texts of each shape.
FEATURE_VALUES = [
    "+NN", "+ADJ", "+ART", "+V", "Pos", "Fem", "Masc", "Neut", "NoGend", "Nom", "Acc", "Dat",
    "Gen", "Sg", "Pl", "St", "Wk", "NA", "3", "Pres", "Ind", "PPast", "Inf",
]
tag_texts = st.one_of(
    st.text(alphabet=st.sampled_from(list("NFSAVB127-:") + ["="]), min_size=14, max_size=16),
    st.lists(st.sampled_from(FEATURE_VALUES), min_size=1, max_size=6).map(
        lambda values: "".join(f"<{value}>" for value in values)
    ),
    st.sampled_from(["KON", "$", "APPR-Dat", "", "a b"]).map(lambda tag: f"[{tag}]"),
    st.sampled_from(["NNFS2-----A----", "Z:-------------", "<+V><PPast>", "<+V><Inf>",
                     "<+V><3><Sg><Pres><Ind>", "<+NN><Masc><Dat><Sg><NA>", "[KON]"]),
)
# Plain lemmas (some also a surface, so that a bare row can encode), stem
# sides with markup, and lemmas that are no stem side.
row_lemmas = st.sampled_from([
    "pizza", "und", "x", "Meer<NN>Boden", "Hydrogen<NN>Sulfid<NN>reich<Pos>", "die<Def>",
    "längs<ADJ>Achse", "a||b", "Meer<NN", "§§<NN>§§",
])
generated_rows = st.lists(
    st.tuples(row_lemmas, tag_texts, st.sampled_from(["x", "y", "z", "und"])), max_size=10
)


class TestKeyEncoderMatchesRecordEncoder:
    @settings(max_examples=300, deadline=None)
    @given(generated_rows)
    def test_every_mode(self, rows):
        lex = ParadigmLexicon()
        for row in rows:
            try:
                lex.add_entry(*row)
            except (MalformedTag, MalformedAnalysis, LexiconConflict):
                pass
        for tag_text, tag in lex._tags.items():
            assert format_tag(parse_tag_text(tag_text)) == tag_text
            assert format_tag(tag) == tag_text
        for surface in ("x", "y", "z", "und"):
            for key in analyze(lex, surface):
                tag_text, lemma = key
                record = Analysis(lemma, parse_tag_text(tag_text), surface)
                # prepare_variant passes baseline targets through, so no
                # baseline word reaches the key encoder.
                for mode in LEXICON_MODES:
                    expected = outcome(encode_record, record, mode)
                    if mode.startswith("german"):
                        unreadable = unreadable_german_key(record)
                        if unreadable is not None:
                            expected = ("MalformedAnalysis", unreadable)
                    assert outcome(pipeline._encode_analysis, lex, key, surface, mode) == expected


def unreadable_german_key(record):
    """Why postprocessing could not read back a German key's tokens as its
    surface, or None: a tag that is no feature sequence, a bare lemma and
    tag that are no bare token or whose lexeme is not the surface, or a
    lemma that is no stem side."""
    lemma, tag, surface = record
    if not isinstance(tag, GermanFeatureSeq):
        return "not a German analysis"
    if tag.kind == "bare":
        token = lemma + record.tag_text
        if not oracle_is_bare(token):
            return f"not a bare token: {token!r}"
        if lemma != surface:
            return f"bare token {token!r} would read back as {lemma!r}, not {surface!r}"
        return None
    try:
        tagsets.parse_stem_side(lemma)
    except MalformedAnalysis as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# postprocess
# ---------------------------------------------------------------------------

STEMS = [
    # known, compound, unknown-modifier compound, unparseable, unknown
    "treffen", "Wolke", "Meer<NN>Boden", "Nacht<NN>Markt", "dicht<Pos>", "a<NN>§§<X>§§",
    "Hvanda",
]
FEATURES = [
    "<+NN><Masc><Dat><Sg><NA>", "<+NN><Masc><Nom><Sg><NA>", "<+NN><Fem><Acc><Sg><NA>",
    "<+V><3><Sg><Pres><Ind>", "<+ADJ><Neut><Dat><Sg><St>",
]
OTHER_TOKENS = [
    # split compound parts, separators and bare tokens
    "Meer", "Boden", "Nacht", "Markt", "Haus", "a||b",
    "§§<NN>§§", "§§<ADJ>§§", "und[KON]", ".[$]",
    # Czech tags and lemmas
    "NNFS2-----A----", "NNFS1-----A----", "VB-P---3P-AA---", "pizza", "existovat",
    # BPE pieces
    "Bo@@", "den", "piz@@", "za", "@@",
]
# Stems are often drawn together with a feature token, so German pairs
# are common and the same stem recurs under different tags.
stream_units = st.one_of(
    st.sampled_from(STEMS + FEATURES + OTHER_TOKENS).map(lambda token: [token]),
    st.tuples(st.sampled_from(STEMS), st.sampled_from(FEATURES)).map(list),
)
stream_lines = st.lists(
    st.lists(stream_units, max_size=6).map(lambda units: " ".join(sum(units, []))),
    max_size=6,
)

COVERING_LINES = [
    "Meer §§<NN>§§ Bo@@ den <+NN><Masc><Dat><Sg><NA> und[KON]",
    "Nacht §§<NN>§§ Markt <+NN><Masc><Nom><Sg><NA>",  # unknown modifier, fallback
    "a<NN>§§<X>§§ <+NN><Masc><Dat><Sg><NA>",  # unparseable stem
    # one stem under two tags, the second incompatible
    "Wolke <+NN><Fem><Acc><Sg><NA> Wolke <+NN><Masc><Dat><Sg><NA>",
    "§§<NN>§§ Wolke <+NN><Fem><Acc><Sg><NA> §§<ADJ>§§",  # orphan separators
    "Hvanda <+V><3><Sg><Pres><Ind> treffen <+V><3><Sg><Pres><Ind> @@",  # unknown lemma
    FIG1_MORPHGEN,
    "NNFS1-----A---- Hvanda piz@@ za",  # unknown lemma, orphan word
    "NNIP1-----A---- pizza VB-P---3P-AA--- existovat Z:-------------",  # incompatible tag
]


def lexicon_for(mode, czech_lexicon, german_lexicon):
    return german_lexicon if mode.startswith("german") else czech_lexicon


class TestPostprocessMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["baseline"] + LEXICON_MODES), stream_lines)
    @example("german-stemmed-split", COVERING_LINES)
    @example("german-stemmed", COVERING_LINES)
    @example("morphgen", COVERING_LINES)
    @example("serialization", COVERING_LINES)
    def test_postprocess_matches_oracle(self, czech_lexicon, german_lexicon, mode, lines):
        lex = lexicon_for(mode, czech_lexicon, german_lexicon)
        # Every line twice, so every pair recurs in a later line too.
        lines = lines + lines[::-1]
        assert postprocess(lines, PipelineConfig.for_mode(mode), lex) == oracle_postprocess(
            lines, mode, lex
        )

    def test_covering_lines_cover_every_czech_record(self, czech_lexicon):
        diagnostics = oracle_postprocess(COVERING_LINES, "morphgen", czech_lexicon).diagnostics
        events = {event for _, _, event in diagnostics.repairs}
        assert {"dropped-tag", "word-without-tag", "dangling-marker"} <= events
        reasons = {failure.reason for _, failure in diagnostics.fallbacks}
        assert reasons == {"unknown-lemma", "incompatible-tag"}
        # Lexicon hits as well as misses.
        assert diagnostics.generated > len(diagnostics.fallbacks)

    def test_covering_lines_cover_every_record(self, german_lexicon):
        result = oracle_postprocess(COVERING_LINES, "german-stemmed-split", german_lexicon)
        diagnostics = result.diagnostics
        events = {event for _, _, event in diagnostics.repairs}
        assert {"unparseable-stem", "orphan-separator", "dangling-marker"} <= events
        reasons = {failure.reason for _, failure in diagnostics.fallbacks}
        assert reasons == {"unknown-lemma", "incompatible-tag"}
        assert diagnostics.unknown_modifiers and diagnostics.errors

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(LEXICON_MODES), stream_lines)
    @example("german-stemmed-split", COVERING_LINES)
    def test_two_jobs_match_oracle(self, czech_lexicon, german_lexicon, mode, lines):
        lex = lexicon_for(mode, czech_lexicon, german_lexicon)
        lines = (lines + lines[::-1]) * 2
        result = postprocess(lines, PipelineConfig.for_mode(mode), lex, jobs=2)
        assert result == oracle_postprocess(lines, mode, lex)


def test_postprocess_line_keys_its_records_by_the_lines_counted(german_lexicon):
    # Every kind of record, written into the caller's diagnostics at its
    # line index; the line is counted when done.
    diagnostics = Diagnostics(lines=4)
    line = ("§§<NN>§§ Nacht §§<NN>§§ Markt <+NN><Masc><Nom><Sg><NA> a<NN>§§<X>§§ "
            "<+NN><Masc><Dat><Sg><NA> <+V><3><Sg><Pres><Ind> Hvanda <+V><3><Sg><Pres><Ind> @@")
    text = pipeline.postprocess_line(line, "german-stemmed-split", german_lexicon, {}, diagnostics)
    assert text == "Nachtmarkt a<NN>§§<X>§§ Hvanda"
    assert diagnostics.lines == 5
    records = [diagnostics.fallbacks, diagnostics.repairs, diagnostics.errors,
               diagnostics.unknown_modifiers]
    assert all(records)
    assert {record[0] for kind in records for record in kind} == {4}


# ---------------------------------------------------------------------------
# Bound
# ---------------------------------------------------------------------------


def test_memos_emptied_at_limit(german_lexicon, monkeypatch):
    monkeypatch.setattr(tagsets, "_MEMO_LIMIT", 3)
    sizes = []
    remember = pipeline._remember

    def spy(memo, key, value):
        value = remember(memo, key, value)
        sizes.append(len(memo))
        return value

    monkeypatch.setattr(pipeline, "_remember", spy)
    surface = " ".join(word for _, word in TABLE1_ROWS)
    corpus = ParallelCorpus.from_lines([""] * 2, [surface] * 2)
    cfg = PipelineConfig.for_mode("german-stemmed-split", bpe_merges=10, protect_tags=True)
    parse_tags = [TABLE1_PARSE_TAGS] * 2

    prepared = prepare_outcome(corpus, cfg, german_lexicon, parse_tags)
    prepare_sizes = sizes[:]
    sizes.clear()
    assert prepared == oracle_prepare(corpus, cfg, german_lexicon, parse_tags)
    lines = prepared[0]
    result = postprocess(lines, cfg, german_lexicon)
    assert result == oracle_postprocess(lines, cfg.mode, german_lexicon)
    assert result.lines == [surface] * 2

    for observed in (prepare_sizes, sizes):
        assert max(observed) == 3
        # Full at 3 entries, then emptied before the next one is stored.
        assert 1 in observed[observed.index(3):]
