"""prepare and postprocess against the reference model in ``spec.py``.

``prepare_variant`` analyses and encodes each distinct (target token,
parse tag) pair once, from the lexicon row key it selects; the German
branch of ``postprocess`` merges and generates each distinct (stem, tag)
pair once; a Czech line is walked as runs of pairs and generated a
column at a time.  The model does none of this: it reads the raw lexicon
rows for every token.  The properties below compare the two on generated
lexicons, sentences and damaged backend lines, in all five modes, output
text and every ``Diagnostics`` field, and run generated covered corpora
through ``prepare | translate --backend cat | postprocess`` in process.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import spec
from morphmt import pipeline, tagsets
from morphmt.bpe import revert_bpe
from morphmt.cli import main
from morphmt.conventions import tokenize
from morphmt.morphlex import Diagnostics, load_lexicon, select_analysis
from morphmt.pipeline import ParallelCorpus, PipelineConfig, postprocess, prepare_variant
from morphmt.tagsets import TAG_ALPHABET, MalformedAnalysis

from conftest import FIG1_MORPHGEN, TABLE1_PARSE_TAGS, TABLE1_ROWS, toy_lexicon

MODES = list(spec.MODES)
LEXICON_MODES = MODES[1:]
CZECH_TOY = toy_lexicon("czech_toy.tsv")
GERMAN_TOY = toy_lexicon("german_toy.tsv")


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def src_prepare(targets, mode, lex, parse_tags=None):
    """(target lines, dropped) of ``prepare_variant``, its BPE reverted."""
    corpus = ParallelCorpus.from_lines([""] * len(targets), targets)
    cfg = PipelineConfig.for_mode(mode, merges=0)
    prepared = prepare_variant(corpus, cfg, lex, target_parse_tags=parse_tags)
    lines = [" ".join(revert_bpe(tokenize(line))) for line in prepared.corpus.targets]
    return lines, prepared.dropped


def spec_prepare(targets, mode, rows, parse_tags=None):
    """The same from the model; an error names its 1-based line."""
    lines, dropped = [], []
    for index, target in enumerate(targets):
        tags = None if parse_tags is None else parse_tags[index]
        try:
            result = spec.prepare(target, mode, rows, tags)
        except ValueError as exc:
            raise type(exc)(f"line {index + 1}: {exc}") from None
        if isinstance(result, spec.Dropped):
            dropped.append((index, result.reason))
        else:
            lines.append(" ".join(result))
    return lines, dropped


def assert_postprocess_matches(lines, mode, rows, mods, lex):
    result = postprocess(lines, PipelineConfig.for_mode(mode), lex)
    texts, diagnostics = spec.postprocess_lines(lines, mode, rows, mods)
    assert result.lines == texts
    assert result.diagnostics == diagnostics


# ---------------------------------------------------------------------------
# Generated lexicons
# ---------------------------------------------------------------------------

# Czech words never reach 15 characters, so none reads as a positional tag;
# "@@" may occur inside a word but never ends one (see
# test_word_ends_in_the_marker).  Form feed, U+0085, U+00A0 and U+2028 are
# word characters: only space, tab and carriage return separate tokens.
czech_words = st.text(
    alphabet="abcčeěiknoprřsšuyzžAB@§<>[]|\x0c\x85\xa0\u2028", min_size=1, max_size=6
).filter(lambda word: not word.endswith("@@"))
czech_tags = st.one_of(
    st.sampled_from(["NNFS1-----A----", "NNFS2-----A----", "NNIP1-----A----", "NNIP2-----A----",
                     "VB-P---3P-AA---", "Z:-------------", "AAIP7----2A----"]),
    st.text(alphabet=sorted(TAG_ALPHABET), min_size=15, max_size=15),
)
# Now and then a lemma of two tokens, which morphgen cannot encode.
czech_lemmas = st.one_of(czech_words, czech_words, czech_words, st.sampled_from(["a b", "a\rb", " a"]))
czech_rows = st.lists(st.tuples(czech_lemmas, czech_tags, czech_words), max_size=10)

FEATURES = [
    "<+NN><Masc><Dat><Sg><NA>", "<+NN><Fem><Acc><Sg><NA>", "<+NN><Neut><Nom><Sg><NA>",
    "<+ADJ><Pos><NoGend><Dat><Sg><Wk>", "<+ADJ><Neut><Dat><Sg><St>", "<+V><3><Sg><Pres><Ind>",
    "<+V><PPast>", "<+V><Inf>", "<+ART><Masc><Nom><Sg><St>",
]
BARE_TAGS = ["[KON]", "[ADV]", "[$]", "[APPR-Dat]", "[PIS]"]
# German context parse tags, one of them no context at all.
CONTEXTS = sorted(set(TABLE1_PARSE_TAGS)) + [
    "VVFIN-Pl", "NN-Gen.Pl", "ADJA-Nom.Sg.Masc", "VVINF", "VVPP", "ART-Dat", "NN-Foo",
]
lexemes = st.one_of(
    st.sampled_from(["Meer", "Boden", "Haus", "Markt", "Nacht", "längs", "Achse", "und", "Öl"]),
    st.text(alphabet="abäöüßAÖ@§", min_size=1, max_size=4).filter(
        lambda lexeme: not lexeme.endswith("@@")  # see test_word_ends_in_the_marker
    ),
)
german_surfaces = st.text(alphabet="abäöüßAÖ-@§", min_size=1, max_size=6)
# A stem: lexemes with split (NN, ADJ) or other markup between them and
# now and then after the last.
stems = st.builds(
    lambda parts, last: "".join(f"{lexeme}<{m}>" if m else lexeme for lexeme, m in parts)
    + (f"<{last}>" if last else ""),
    st.lists(st.tuples(lexemes, st.sampled_from(["NN", "ADJ", "NN", "Pos", "Def", None])),
             min_size=1, max_size=3),
    st.sampled_from([None, None, "Pos"]),
)
# Rows only the adversarial lexicons have: positional tags, lemmas that are
# no stem side, bare rows that are no bare token or read back as another word.
odd_rows = st.tuples(
    st.sampled_from(["a||b", "Meer<NN", "§§<NN>§§", "x", "und", "a<NN>§§<X>§§"]),
    st.sampled_from(["NNFS1-----A----", "[KON]"] + FEATURES[:2]),
    st.sampled_from(["x", "und", "ab"]),
)


# Strategies are built once: building one per draw costs more than drawing.
modifier_links = st.lists(st.tuples(lexemes, st.sampled_from(["", "s", "es", "n"])), max_size=4)
bare_rows = st.lists(st.tuples(lexemes, st.sampled_from(BARE_TAGS)), max_size=4)
inflected_rows = st.lists(st.tuples(stems, st.sampled_from(FEATURES), german_surfaces), max_size=8)
odd_row_lists = st.lists(odd_rows, max_size=3)


@st.composite
def german_lexicons(draw, adversarial=False):
    """(rows, modifier pairs).  A compound row comes with the row of its
    merged stem, under the same tag and surface."""
    mods = {}
    for modifier, link in draw(modifier_links):
        mods.setdefault(modifier, modifier + link)
    mods = sorted(mods.items())
    rows = {}
    for lexeme, tag in draw(bare_rows):
        rows.setdefault((lexeme, tag), lexeme)
    for stem, tag, surface in draw(inflected_rows):
        if (stem, tag) in rows:
            continue
        try:
            merged = spec.merge_compound(stem, tag, mods, [])
        except MalformedAnalysis:
            merged = stem
        if rows.setdefault((merged, tag), surface) == surface:
            rows[stem, tag] = surface
    if adversarial:
        for lemma, tag, surface in draw(odd_row_lists):
            rows.setdefault((lemma, tag), surface)
    return [(lemma, tag, surface) for (lemma, tag), surface in rows.items()], mods


def unique(rows):
    """The rows with each (lemma, tag) kept once: the first."""
    seen = {}
    for lemma, tag, surface in rows:
        seen.setdefault((lemma, tag), surface)
    return [(lemma, tag, surface) for (lemma, tag), surface in seen.items()]


@st.composite
def lexicons(draw):
    """Czech, German or mixed rows, with the modifier pairs."""
    kind = draw(st.sampled_from(["czech", "german", "mixed"]))
    rows, mods = [], []
    if kind != "czech":
        rows, mods = draw(german_lexicons(adversarial=kind == "mixed"))
    if kind != "german":
        rows = unique(rows + draw(czech_rows))
    return rows, mods


@st.composite
def prepare_cases(draw):
    """(mode, rows, mods, target lines, parse tags or None)."""
    mode = draw(st.sampled_from(MODES))
    rows, mods = draw(lexicons())
    words = sorted({surface for _, _, surface in rows}) + ["xyz"]
    pairs = st.sampled_from([(word, tag) for word in words for tag in CONTEXTS])
    sentences = draw(st.lists(st.lists(pairs, max_size=5), min_size=1, max_size=4))
    targets = [" ".join(word for word, _ in sentence) for sentence in sentences]
    parse_tags = None
    if draw(st.booleans()):
        parse_tags = [[tag for _, tag in sentence] for sentence in sentences]
    return mode, rows, mods, targets, parse_tags


def bpe_pieces(token, cut):
    """A token as BPE would write it cut ``cut`` characters in, if it can be."""
    if 0 < cut < len(token):
        return [token[:cut] + "@@", token[cut:]]
    return [token]


SPECIAL_TOKENS = [
    "§§<NN>§§", "§§<ADJ>§§", "§§<X>§§", "§§", "und[KON]", ".[$]", "[KON]", "<+NN>", "<>", "[",
    "piz@@", "@@", "x@@@", "abcdefghijklmno", *FEATURES[:3],
]
_SPACES = [" ", " ", " ", "  ", "\t", "\r", "\x0c", "\x85", "\xa0", "\u2028"]


CUTS = st.sampled_from([0, 0, 0, 1, 2])
SPACINGS = st.sampled_from([None, None, [" ", "  "], _SPACES])
# One space before or after a line that is otherwise normalized.
EDGES = st.sampled_from([("", ""), ("", ""), (" ", ""), ("", " ")])
LINE_ENDS = st.sampled_from(["", "", "@@", "@@@@", " @@"])


@st.composite
def backend_lines(draw, rows):
    """A damaged backend line: the lexicon's tags, lemmas, surfaces and
    split stems in and out of order, separators, bare and feature tokens,
    BPE pieces, whitespace of every kind and dangling markers."""
    units = [[token] for token in sorted({token for row in rows for token in row})]
    units += [[token] for token in SPECIAL_TOKENS]
    for lemma, tag, surface in rows:
        units += [[tag, lemma], [lemma, tag]]
        split = outcome(spec.encode, tag, lemma, surface, "german-stemmed-split")
        if isinstance(split, list):
            units.append(split)
    tokens = []
    for unit in draw(st.lists(st.sampled_from(units), max_size=6)):
        for token in unit:
            tokens += bpe_pieces(token, draw(CUTS))
    spaces = draw(SPACINGS)
    if spaces is None:
        lead, trail = draw(EDGES)
        line = lead + " ".join(tokens) + trail
    else:
        gaps = draw(st.lists(st.sampled_from(spaces), min_size=len(tokens) + 1,
                             max_size=len(tokens) + 1))
        line = "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]
    return line + draw(LINE_ENDS)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


# The worked examples on the toy lexicons, with an unknown word and a blank line.
TOY_TARGETS = [" ".join(word for _, word in TABLE1_ROWS), "existují miliony druhů pizzy .",
               "pizzy xyz", ""]


class TestPrepareMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(prepare_cases())
    @example(("german-stemmed-split", *GERMAN_TOY, TOY_TARGETS[:1], [TABLE1_PARSE_TAGS]))
    @example(("german-stemmed", *GERMAN_TOY, TOY_TARGETS, None))
    @example(("morphgen", *CZECH_TOY, TOY_TARGETS, None))
    @example(("serialization", *CZECH_TOY, TOY_TARGETS, None))
    def test_prepare_matches_oracle(self, case):
        mode, rows, mods, targets, parse_tags = case
        lex = load_lexicon(spec.lexicon_document(rows, mods))
        assert outcome(src_prepare, targets, mode, lex, parse_tags) == outcome(
            spec_prepare, targets, mode, rows, parse_tags
        )

    @pytest.mark.parametrize(
        "target, expected",
        [
            # An unknown word drops the sentence even after a word whose
            # encoding raises; else the first encoding error is raised.
            ("ab xyz", ([], [(0, "no analysis for 'xyz'")])),
            ("ab cd", ("MalformedAnalysis", "line 1: cannot parse stem side 'a||b' at offset 1")),
            ("cd ab", ("MalformedAnalysis", "line 1: cannot parse stem side 'c||d' at offset 1")),
        ],
    )
    def test_analysis_failure_comes_before_encoding_failure(self, target, expected):
        # Lemmas that are no stem side: split mode cannot encode them.
        rows = [("a||b", "<+NN><Masc><Nom><Sg><NA>", "ab"), ("c||d", "<+NN><Masc><Nom><Sg><NA>", "cd")]
        lex = load_lexicon(spec.lexicon_document(rows))
        mode = "german-stemmed-split"
        new = outcome(src_prepare, [target], mode, lex)
        assert new == outcome(spec_prepare, [target], mode, rows)
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


class TestKeyEncoderMatchesRecordEncoder:
    @settings(max_examples=100, deadline=None)
    @given(german_lexicons(adversarial=True), czech_rows)
    def test_every_mode(self, german, czech):
        # Every surface of a German, Czech and odd lexicon, alone in a sentence.
        rows, mods = german
        rows = unique(rows + czech)
        lex = load_lexicon(spec.lexicon_document(rows, mods))
        targets = sorted({surface for _, _, surface in rows})
        for mode in LEXICON_MODES:
            for target in targets:
                assert outcome(src_prepare, [target], mode, lex) == outcome(
                    spec_prepare, [target], mode, rows
                )


# ---------------------------------------------------------------------------
# postprocess
# ---------------------------------------------------------------------------

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
# A toy or a generated lexicon, and damaged lines of its tokens.
postprocess_cases = st.one_of(st.sampled_from([CZECH_TOY, GERMAN_TOY]), lexicons()).flatmap(
    lambda lexicon: st.tuples(st.just(lexicon), st.lists(backend_lines(lexicon[0]), max_size=6))
)


class TestPostprocessMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(MODES), postprocess_cases)
    @example("german-stemmed-split", (GERMAN_TOY, COVERING_LINES))
    @example("german-stemmed", (GERMAN_TOY, COVERING_LINES))
    @example("morphgen", (CZECH_TOY, COVERING_LINES))
    @example("serialization", (CZECH_TOY, COVERING_LINES))
    def test_postprocess_matches_oracle(self, mode, case):
        (rows, mods), lines = case
        lex = load_lexicon(spec.lexicon_document(rows, mods))
        # Every line twice, so every pair recurs in a later line too.
        assert_postprocess_matches(lines + lines[::-1], mode, rows, mods, lex)

    def test_covering_lines_cover_every_czech_record(self):
        _, diagnostics = spec.postprocess_lines(COVERING_LINES, "morphgen", *CZECH_TOY)
        events = {event for _, _, event in diagnostics.repairs}
        assert {"dropped-tag", "word-without-tag", "dangling-marker"} <= events
        reasons = {failure.reason for _, failure in diagnostics.fallbacks}
        assert reasons == {"unknown-lemma", "incompatible-tag"}
        # Lexicon hits as well as misses.
        assert diagnostics.generated > len(diagnostics.fallbacks)

    def test_covering_lines_cover_every_record(self):
        _, diagnostics = spec.postprocess_lines(COVERING_LINES, "german-stemmed-split", *GERMAN_TOY)
        events = {event for _, _, event in diagnostics.repairs}
        assert {"unparseable-stem", "orphan-separator", "dangling-marker"} <= events
        reasons = {failure.reason for _, failure in diagnostics.fallbacks}
        assert reasons == {"unknown-lemma", "incompatible-tag"}
        assert diagnostics.unknown_modifiers and diagnostics.errors

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(LEXICON_MODES), postprocess_cases)
    @example("german-stemmed-split", (GERMAN_TOY, COVERING_LINES))
    def test_two_jobs_match_oracle(self, mode, case):
        (rows, mods), lines = case
        lex = load_lexicon(spec.lexicon_document(rows, mods))
        lines = (lines + lines[::-1]) * 2
        result = postprocess(lines, PipelineConfig.for_mode(mode), lex, jobs=2)
        assert (result.lines, result.diagnostics) == spec.postprocess_lines(lines, mode, rows, mods)


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
    mode = "german-stemmed-split"
    parse_tags = [TABLE1_PARSE_TAGS] * 2

    lines, dropped = src_prepare([surface] * 2, mode, german_lexicon, parse_tags)
    prepare_sizes = sizes[:]
    sizes.clear()
    assert (lines, dropped) == spec_prepare([surface] * 2, mode, GERMAN_TOY[0], parse_tags)
    assert_postprocess_matches(lines, mode, *GERMAN_TOY, german_lexicon)
    assert spec.postprocess_lines(lines, mode, *GERMAN_TOY)[0] == [surface] * 2

    for observed in (prepare_sizes, sizes):
        assert max(observed) == 3
        # Full at 3 entries, then emptied before the next one is stored.
        assert 1 in observed[observed.index(3):]


# ---------------------------------------------------------------------------
# End to end: prepare | translate --backend cat | postprocess
# ---------------------------------------------------------------------------


def covered(rows, mode):
    """The surfaces whose sentence of one word the model encodes."""
    surfaces = sorted({surface for _, _, surface in rows})
    return [s for s in surfaces if isinstance(outcome(spec.prepare, s, mode, rows), list)]


@st.composite
def covered_corpora(draw, mode):
    """(rows, mods, sentences) whose words are all covered by the lexicon."""
    if mode.startswith("german"):
        rows, mods = draw(german_lexicons())
    else:
        rows, mods = unique(draw(czech_rows)), []
    surfaces = covered(rows, mode)
    assume(surfaces)
    sentence = st.lists(st.sampled_from(surfaces), max_size=6).map(" ".join)
    return rows, mods, draw(st.lists(sentence, min_size=1, max_size=4))


def cli_round_trip(mode, rows, mods, sentences, merges=8, protect=False, sources=None,
                   split_hyphens=False):
    """The bytes ``postprocess`` writes for the sentences, run through the
    three stages in process, and each stage's exit code.

    ``prepare`` also reads the source lines, empty by default.  Every line
    it writes, on either side, is its tokens joined by single spaces, and
    each source line reverts to the words of its input line, hyphens split
    with ``split_hyphens`` as ``spec.split_hyphens`` says.
    """
    sources = [""] * len(sentences) if sources is None else sources
    with tempfile.TemporaryDirectory() as tmp:
        lexicon, source, target, prepared, prepared_source, translated, output = (
            os.path.join(tmp, name)
            for name in ("lex.tsv", "src.txt", "in.txt", "prep", "prep.src", "trans", "out")
        )
        Path(lexicon).write_text(spec.lexicon_document(rows, mods), encoding="utf-8")
        Path(source).write_text("".join(s + "\n" for s in sources), encoding="utf-8")
        Path(target).write_text("".join(s + "\n" for s in sentences), encoding="utf-8")
        protect_flag = "--protect-tags" if protect else "--no-protect-tags"
        split_flag = "--split-source-hyphens" if split_hyphens else "--no-split-source-hyphens"
        codes = (
            main(["prepare", "--mode", mode, "--lexicon", lexicon, "--source", source,
                  "--target", target, "--out-source", prepared_source, "--out-target", prepared,
                  "--merges", str(merges), protect_flag, split_flag]),
            main(["translate", "--backend", "cat", prepared, "-o", translated]),
            main(["postprocess", "--mode", mode, "--lexicon", lexicon, translated, "-o", output]),
        )
        prepared_lines = [Path(path).read_text(encoding="utf-8").split("\n")[:-1]
                          for path in (prepared_source, prepared)]
        for line in prepared_lines[0] + prepared_lines[1]:
            assert " ".join(tokenize(line)) == line
        words = [[part for word in tokenize(s)
                  for part in (spec.split_hyphens(word) if split_hyphens else [word])]
                 for s in sources]
        assert [revert_bpe(tokenize(line)) for line in prepared_lines[0]] == words
        return codes, Path(output).read_bytes()


# Source words with hyphens inside, at either end and doubled.
source_words = st.one_of(
    st.text(alphabet="ab-", min_size=1, max_size=6),
    st.sampled_from(["a-b-", "-a-b", "a--b", "-", "--", "a-b--"]),
)
source_sentences = st.lists(source_words, max_size=5).map(" ".join)


class TestEndToEnd:
    """For lexicon-covered sentences, the three stages give back the input bytes."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data(), st.integers(0, 30), st.booleans(), st.booleans())
    @pytest.mark.parametrize("mode", LEXICON_MODES)
    def test_round_trip(self, mode, data, merges, protect, split_hyphens):
        rows, mods, sentences = data.draw(covered_corpora(mode))
        sources = data.draw(st.lists(source_sentences, min_size=len(sentences),
                                     max_size=len(sentences)))
        expected = "".join(s + "\n" for s in sentences).encode("utf-8")
        assert cli_round_trip(mode, rows, mods, sentences, merges, protect, sources,
                              split_hyphens) == ((0, 0, 0), expected)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2(a): a 15-letter ASCII lemma reads "
                                           "as a positional tag in postprocess")
    @pytest.mark.parametrize("mode", ["morphgen", "serialization"])
    def test_lemma_read_as_a_tag(self, mode):
        rows = [("representatives", "NNFS1-----A----", "representatives")]
        assert covered(rows, mode) == ["representatives"]
        expected = b"representatives\n"
        assert cli_round_trip(mode, rows, [], ["representatives"]) == ((0, 0, 0), expected)

    @pytest.mark.parametrize("mode", ["german-stemmed", "german-stemmed-split"])
    def test_part_spells_a_separator(self, mode):
        # postprocess could not merge the stem, so prepare stops on its line.
        rows = [("a<NN>§§<Def>§§", "<+NN><Masc><Dat><Sg><NA>", "x")]
        error = ("line 1: lexeme expected at 2 in "
                 "('a', '§§<NN>§§', '§§<Def>§§', '<+NN><Masc><Dat><Sg><NA>')")
        lex = load_lexicon(spec.lexicon_document(rows))
        assert outcome(src_prepare, ["x"], mode, lex) == ("MalformedAnalysis", error)
        assert outcome(spec_prepare, ["x"], mode, rows) == ("MalformedAnalysis", error)

    @pytest.mark.xfail(strict=True, reason="a stream token that ends in the BPE marker and that "
                                           "BPE leaves whole is joined to the next one")
    def test_word_ends_in_the_marker(self):
        rows = [("@@", "NNFS1-----A----", "x"), ("c", "NNFS2-----A----", "y")]
        assert covered(rows, "morphgen") == ["x", "y"]
        # With 20 merges "@@" is one symbol, so BPE leaves the lemma whole.
        assert cli_round_trip("morphgen", rows, [], ["x y"], merges=20) == ((0, 0, 0), b"x y\n")
