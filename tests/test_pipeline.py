"""Corpus filtering, variant preparation, backend contract, postprocessing."""

import random

import pytest

from morphmt import bpe, pipeline
from morphmt.backend import BackendFailure, translate_external
from morphmt.conventions import tokenize
from morphmt.interleave import LengthMismatch
from morphmt.morphlex import load_lexicon
from morphmt.pipeline import (
    ParallelCorpus,
    PipelineConfig,
    filter_corpus,
    postprocess,
    prepare_variant,
)
from morphmt.tagsets import MalformedAnalysis

from conftest import (
    FIG1_BASELINE_BPE,
    FIG1_MORPHGEN,
    FIG1_SERIALIZATION,
    FIG1_SOURCE,
    FIG1_SURFACE,
    TABLE1_PARSE_TAGS,
    TABLE1_ROWS,
    entry_rows,
)

TABLE1_SURFACE = " ".join(surface for _, surface in TABLE1_ROWS)


def fig1_corpus():
    return ParallelCorpus.from_lines([FIG1_SOURCE], [FIG1_SURFACE])


class TestConfig:
    def test_mode_defaults(self):
        czech = PipelineConfig.for_mode("morphgen")
        assert (czech.bpe_merges, czech.maxlen, czech.minlen) == (49500, 100, 1)
        baseline = PipelineConfig.for_mode("baseline")
        assert baseline.maxlen == 50
        german = PipelineConfig.for_mode("german-stemmed")
        assert (german.bpe_merges, german.maxlen, german.minlen) == (29500, 100, 5)

    def test_overrides(self):
        cfg = PipelineConfig.for_mode("morphgen", bpe_merges=10, seed=7)
        assert cfg.bpe_merges == 10
        assert cfg.seed == 7

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(mode="baseline", bpe_merges=0, maxlen=3, minlen=5)
        with pytest.raises(ValueError):
            PipelineConfig(mode="nonsense", bpe_merges=0, maxlen=5, minlen=1)


class TestFilterCorpus:
    def test_short_target_dropped(self):
        cfg = PipelineConfig.for_mode("german-stemmed")
        corpus = ParallelCorpus.from_lines(["src"], ["nur drei wörter"])
        assert len(filter_corpus(corpus, cfg)) == 0

    def test_inclusive_upper_bound(self):
        cfg = PipelineConfig.for_mode("baseline")
        fifty = " ".join(f"w{i}" for i in range(50))
        fiftyone = " ".join(f"w{i}" for i in range(51))
        corpus = ParallelCorpus.from_lines(["a", "b"], [fifty, fiftyone])
        kept = filter_corpus(corpus, cfg)
        assert kept.targets == [fifty]

    def test_inclusive_lower_bound(self):
        cfg = PipelineConfig.for_mode("german-stemmed")
        five = "eins zwei drei vier fünf"
        corpus = ParallelCorpus.from_lines(["a"], [five])
        assert filter_corpus(corpus, cfg).targets == [five]

    def test_sample_larger_than_corpus(self):
        cfg = PipelineConfig.for_mode("baseline", sample_size=100)
        corpus = ParallelCorpus.from_lines(["a", "b"], ["x y", "z w"])
        assert filter_corpus(corpus, cfg).pairs == corpus.pairs

    def test_sampling_deterministic_and_order_preserving(self):
        cfg = PipelineConfig.for_mode("baseline", sample_size=5, seed=11)
        lines = [f"line {i} with some words" for i in range(40)]
        corpus = ParallelCorpus.from_lines(lines, lines)
        once = filter_corpus(corpus, cfg)
        twice = filter_corpus(corpus, cfg)
        assert once.pairs == twice.pairs
        assert len(once) == 5
        indices = [lines.index(t) for t in once.targets]
        assert indices == sorted(indices)

    def test_dropped_index_is_the_input_index(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen", maxlen=3)
        targets = ["pizzy pizzy pizzy pizzy", "pizzy .", "zzzunknown", ". pizzy"]
        kept = filter_corpus(ParallelCorpus.from_lines([""] * 4, targets), cfg)
        prepared = prepare_variant(filter_corpus(kept, cfg), cfg, czech_lexicon)
        assert prepared.dropped == [(2, "no analysis for 'zzzunknown'")]
        assert len(prepared.corpus) == 2

    def test_misaligned_corpus_rejected(self):
        with pytest.raises(ValueError):
            ParallelCorpus.from_lines(["a"], ["x", "y"])


class TestPrepareVariant:
    def test_fig1_morphgen_line(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen")
        prepared = prepare_variant(fig1_corpus(), cfg, czech_lexicon)
        assert prepared.corpus.targets == [FIG1_MORPHGEN]
        assert prepared.dropped == []

    def test_fig1_serialization_line(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("serialization")
        prepared = prepare_variant(fig1_corpus(), cfg, czech_lexicon)
        assert prepared.corpus.targets == [FIG1_SERIALIZATION]

    def test_baseline_passthrough(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("baseline")
        prepared = prepare_variant(fig1_corpus(), cfg, czech_lexicon)
        assert prepared.corpus.targets == [FIG1_SURFACE]
        assert prepared.corpus.sources == [FIG1_SOURCE]

    def test_baseline_small_budget_splits(self):
        cfg = PipelineConfig.for_mode("baseline", bpe_merges=3)
        corpus = ParallelCorpus.from_lines([""], ["aaaa bbbb"])
        prepared = prepare_variant(corpus, cfg)
        assert "@@" in prepared.corpus.targets[0]

    def test_german_stemmed_split_table1(self, german_lexicon):
        cfg = PipelineConfig.for_mode("german-stemmed-split")
        corpus = ParallelCorpus.from_lines([""], [TABLE1_SURFACE])
        prepared = prepare_variant(
            corpus, cfg, german_lexicon, target_parse_tags=[TABLE1_PARSE_TAGS]
        )
        line = prepared.corpus.targets[0]
        assert "Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>" in line

    def test_unanalyzable_sentence_dropped(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen")
        corpus = ParallelCorpus.from_lines(
            ["a", "b"], [FIG1_SURFACE, "úplně neznámá věta"]
        )
        prepared = prepare_variant(corpus, cfg, czech_lexicon)
        assert len(prepared.corpus) == 1
        assert len(prepared.dropped) == 1
        assert prepared.dropped[0][0] == 1

    def test_source_tags_interleaved(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen")
        corpus = ParallelCorpus.from_lines(["he sees"], [FIG1_SURFACE])
        prepared = prepare_variant(
            corpus, cfg, czech_lexicon, source_tags=[["PRP", "VBZ"]]
        )
        assert prepared.corpus.sources[0].startswith("PRP he VBZ sees")

    def test_hyphen_splitting(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen", split_source_hyphens=True)
        corpus = ParallelCorpus.from_lines(["hydrogen-sulfide-rich water"], [FIG1_SURFACE])
        prepared = prepare_variant(corpus, cfg, czech_lexicon)
        assert prepared.corpus.sources[0] == "hydrogen- sulfide- rich water"

    def test_trailing_hyphen_stays_on_the_last_part(self, czech_lexicon):
        # No empty token: "a-b-" is two words, so two tags, not three.
        cfg = PipelineConfig.for_mode("morphgen", split_source_hyphens=True)
        corpus = ParallelCorpus.from_lines(["a-b- -c-d a--b z"], [FIG1_SURFACE])
        tags = [["T", "U", "V", "W", "X", "Y", "Z", "Q", "R"]]
        prepared = prepare_variant(corpus, cfg, czech_lexicon, source_tags=tags)
        assert prepared.corpus.sources == ["T a- U b- V - W c- X d Y a- Z - Q b R z"]
        with pytest.raises(LengthMismatch, match="^line 1: 3 words vs 4 tags$"):
            prepare_variant(ParallelCorpus.from_lines(["a-b- z"], [FIG1_SURFACE]), cfg,
                            czech_lexicon, source_tags=[["T", "U", "V", "W"]])

    @pytest.mark.parametrize("lemma", ["a b", "a\rb", " a"])
    def test_morphgen_lemma_of_two_tokens_stops_the_run(self, lemma):
        # postprocess would read the lemma back as two words: "x y" became "a b y".
        lex = load_lexicon(f"{lemma}\tNNFS1-----A----\tx\nc\tNNFS2-----A----\ty\n")
        corpus = ParallelCorpus.from_lines([""], ["x y"])
        with pytest.raises(MalformedAnalysis) as info:
            prepare_variant(corpus, PipelineConfig.for_mode("morphgen"), lex)
        assert str(info.value) == f"line 1: lemma is not a single token: {lemma!r}"
        # Serialization writes the surface, not the lemma.
        prepared = prepare_variant(corpus, PipelineConfig.for_mode("serialization"), lex)
        assert prepared.corpus.targets == ["NNFS1-----A---- x NNFS2-----A---- y"]

    @pytest.mark.parametrize("joint_bpe", [True, False])
    def test_each_line_is_cut_once_per_side(self, czech_lexicon, monkeypatch, joint_bpe):
        # The encoder's tokens go to BPE as they are: no side is joined and cut again.
        cuts = []

        def counting(line):
            cuts.append(line)
            return tokenize(line)

        monkeypatch.setattr(pipeline, "tokenize", counting)
        monkeypatch.setattr(bpe, "tokenize", counting)
        sources = ["he-she  sees", "x", "they\tsee"]
        targets = [FIG1_SURFACE, "xyzzy", "pizzy  ."]
        cfg = PipelineConfig.for_mode("morphgen", bpe_merges=5, protect_tags=True,
                                      joint_bpe=joint_bpe, split_source_hyphens=True)
        prepared = prepare_variant(ParallelCorpus.from_lines(sources, targets), cfg,
                                   czech_lexicon, source_tags=[["A", "B", "C"], ["X"], ["A", "B"]])
        assert [index for index, _ in prepared.dropped] == [1]
        # The dropped pair's target is cut, and its source never.
        assert cuts == [targets[0], sources[0], targets[1], targets[2], sources[2]]
        assert len(prepared.corpus) == 2

    def test_protect_tags_flag(self, czech_lexicon):
        # tiny budget so the tag would normally be split
        cfg = PipelineConfig.for_mode("morphgen", bpe_merges=0, protect_tags=True)
        prepared = prepare_variant(fig1_corpus(), cfg, czech_lexicon)
        tokens = prepared.corpus.targets[0].split()
        assert "VB-P---3P-AA---" in tokens

    @pytest.mark.parametrize("joint_bpe", [True, False])
    def test_protect_tags_leaves_the_source_alone(self, czech_lexicon, joint_bpe):
        # A 15-letter English word has the shape of a positional tag.
        corpus = ParallelCorpus.from_lines(["representatives meet ."], [FIG1_SURFACE])
        prepared = {
            protect: prepare_variant(corpus, PipelineConfig.for_mode(
                "morphgen", bpe_merges=5, protect_tags=protect, joint_bpe=joint_bpe,
            ), czech_lexicon)
            for protect in (True, False)
        }
        assert prepared[True].corpus.sources == prepared[False].corpus.sources
        assert prepared[True].corpus.sources[0].startswith("r@@ e@@ p@@ ")
        assert "VB-P---3P-AA---" in prepared[True].corpus.targets[0].split()
        assert "VB-P---3P-AA---" not in prepared[False].corpus.targets[0].split()

    def test_baseline_protects_no_token(self):
        corpus = ParallelCorpus.from_lines(["x"], ["abcdefghijklmno"])
        cfg = PipelineConfig.for_mode("baseline", bpe_merges=0, protect_tags=True)
        prepared = prepare_variant(corpus, cfg)
        assert prepared.corpus.targets == ["@@ ".join("abcdefghijklmno")]

    def test_per_side_bpe(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen", joint_bpe=False, bpe_merges=5)
        prepared = prepare_variant(fig1_corpus(), cfg, czech_lexicon)
        assert prepared.source_table.merges != prepared.target_table.merges

    def test_lexicon_required(self):
        cfg = PipelineConfig.for_mode("morphgen")
        with pytest.raises(ValueError):
            prepare_variant(fig1_corpus(), cfg, None)

    # Each case fails on the third input pair, the second one kept by the
    # filter; the first, of unknown words, is dropped.
    @pytest.mark.parametrize("mode, lexicon, tags, error, message", [
        ("german-stemmed", "german", {"target_parse_tags": [["KON", "NN"], ["KON"], ["KON"]]},
         ValueError, "line 3: 2 tokens but 1 parse tags"),
        ("german-stemmed", "german", {"target_parse_tags": [["KON", "NN"], ["KON"], ["KON", "NN-Foo"]]},
         ValueError, "line 3: unknown context feature 'Foo' in 'NN-Foo'"),
        ("morphgen", "czech", {"source_tags": [["X"], ["X"], ["X", "Y", "Z"]]}, LengthMismatch,
         "line 3: 1 words vs 3 tags"),
        ("german-stemmed-split", "czech", {}, MalformedAnalysis, "line 3: not a German analysis"),
    ], ids=["parse-tags", "context", "source-tags", "czech-lexicon-in-split-mode"])
    def test_sentence_errors_name_their_line(self, czech_lexicon, german_lexicon, mode, lexicon,
                                             tags, error, message):
        lex = czech_lexicon if lexicon == "czech" else german_lexicon
        words = "pizzy ." if lexicon == "czech" else "und Wolke"
        corpus = ParallelCorpus.from_lines(["a", "a b c", "a"], ["xyzzy qux", "x", words])
        cfg = PipelineConfig.for_mode(mode, minlen=2, maxlen=2, bpe_merges=0)
        kept = filter_corpus(corpus, cfg)
        assert kept._origin == [0, 2]
        with pytest.raises(error) as info:
            prepare_variant(kept, cfg, lex, **tags)
        assert type(info.value) is error and str(info.value) == message


class TestTranslateExternal:
    def test_identity_backend(self):
        lines = ["a b c", "d e f"]
        assert translate_external(lines, ["cat"]) == lines

    def test_callable_backend(self):
        assert translate_external(["x"], lambda lines: [l.upper() for l in lines]) == ["X"]

    def test_line_count_mismatch(self):
        with pytest.raises(BackendFailure):
            translate_external(["a", "b"], ["head", "-n", "1"])

    def test_nonzero_exit(self):
        with pytest.raises(BackendFailure):
            translate_external(["a"], ["false"])

    def test_missing_binary(self):
        with pytest.raises(BackendFailure):
            translate_external(["a"], ["definitely-not-a-real-binary-xyz"])

    def test_invalid_utf8_output(self):
        with pytest.raises(BackendFailure, match="^backend wrote invalid UTF-8 at byte 2$"):
            translate_external(["a"], ["printf", "ok\\377\\n"])

    @pytest.mark.parametrize("lines", [["a"], []])
    def test_empty_argv(self, lines):
        with pytest.raises(BackendFailure, match="^empty backend command$"):
            translate_external(lines, [])

    def test_table_lookup_mock(self, czech_lexicon):
        # a mock backend that "translates" the source into the morphgen line
        table = {FIG1_SOURCE: FIG1_MORPHGEN}

        def backend(lines):
            return [table[line] for line in lines]

        assert translate_external([FIG1_SOURCE], backend) == [FIG1_MORPHGEN]

    def test_empty_corpus(self):
        assert translate_external([], ["cat"]) == []

    def test_carriage_return_inside_a_line(self):
        assert translate_external(["a\rb", "c\u2028d"], ["cat"]) == ["a\rb", "c\u2028d"]


class TestPostprocess:
    def test_fig1_morphgen_row(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen")
        result = postprocess([FIG1_MORPHGEN], cfg, czech_lexicon)
        assert result.lines == [FIG1_SURFACE]
        assert result.diagnostics.fallbacks == []
        assert result.diagnostics.errors == []

    def test_baseline_is_bpe_reversion(self):
        cfg = PipelineConfig.for_mode("baseline")
        result = postprocess([FIG1_BASELINE_BPE], cfg)
        assert result.lines == [FIG1_SURFACE]

    def test_serialization_strips_tags(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("serialization")
        result = postprocess([FIG1_SERIALIZATION], cfg)
        assert result.lines == [FIG1_SURFACE]

    def test_german_row(self, german_lexicon):
        cfg = PipelineConfig.for_mode("german-stemmed")
        result = postprocess(["treffen <+V><3><Sg><Pres><Ind>"], cfg, german_lexicon)
        assert result.lines == ["trifft"]

    def test_unknown_lemma_falls_back(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen")
        result = postprocess(["NNFS1-----A---- Hvanda"], cfg, czech_lexicon)
        assert result.lines == ["Hvanda"]
        assert [(line, f.reason) for line, f in result.diagnostics.fallbacks] == [
            (0, "unknown-lemma")
        ]

    def test_orphan_word_emitted_verbatim(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen")
        result = postprocess(["existovat"], cfg, czech_lexicon)
        assert result.lines == ["existovat"]
        assert result.diagnostics.repairs == [(0, 0, "word-without-tag")]
        assert result.diagnostics.counts == {"odd-length": 1}

    def test_orphan_tag_dropped(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen")
        line = FIG1_MORPHGEN + " NNFS2-----A----"
        result = postprocess([line], cfg, czech_lexicon)
        assert result.lines == [FIG1_SURFACE]
        assert any(kind == "dropped-tag" for _, _, kind in result.diagnostics.repairs)

    def test_dangling_marker_recovered(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("baseline")
        result = postprocess(["exi@@ stují mili@@"], cfg)
        assert result.lines == ["existují mili"]
        assert any(kind == "dangling-marker" for _, _, kind in result.diagnostics.repairs)

    @pytest.mark.parametrize(
        "mode, line, text, position",
        [("baseline", "x @@", "x", 1), ("morphgen", "NNFS2-----A---- pizza @@", "pizzy", 2)],
    )
    def test_last_token_of_markers_only_dropped(self, czech_lexicon, mode, line, text, position):
        result = postprocess([line], PipelineConfig.for_mode(mode), czech_lexicon)
        assert result.lines == [text]
        assert result.diagnostics.repairs == [(0, position, "dangling-marker")]
        assert result.diagnostics.errors == []

    def test_line_count_preserved(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen")
        lines = [FIG1_MORPHGEN, "", "garbage only", FIG1_MORPHGEN]
        result = postprocess(lines, cfg, czech_lexicon)
        assert len(result.lines) == len(lines)

    def test_unknown_modifier_reported(self, german_lexicon):
        cfg = PipelineConfig.for_mode("german-stemmed-split")
        line = "Nacht §§<NN>§§ Markt <+NN><Masc><Nom><Sg><NA>"
        result = postprocess([line], cfg, german_lexicon)
        assert result.diagnostics.unknown_modifiers == [(0, "Nacht")]
        # degraded concatenation reaches generation and falls back
        assert result.lines == ["Nachtmarkt"]

    @pytest.mark.parametrize(
        "mode, stem_tokens, stem",
        [
            ("german-stemmed", "a<NN>§§<X>§§", "a<NN>§§<X>§§"),
            ("german-stemmed-split", "§§<NN>§§@@ <X>§§", "§§<NN>§§<X>§§"),
        ],
    )
    def test_stem_spelling_a_separator_is_repaired(
        self, german_lexicon, mode, stem_tokens, stem
    ):
        cfg = PipelineConfig.for_mode(mode)
        lines = [f"{stem_tokens} <+NN><Masc><Dat><Sg><NA>", "und[KON]"]
        result = postprocess(lines, cfg, german_lexicon)
        assert result.lines == [stem, "und"]
        assert result.diagnostics.repairs == [(0, 0, "unparseable-stem")]
        assert result.diagnostics.errors == []

    def test_jobs_preserve_order_and_reports(self, czech_lexicon, german_lexicon):
        malformed = {
            "morphgen": [
                FIG1_MORPHGEN,
                "NNFS1-----A---- Hvanda",
                "existovat",
                FIG1_MORPHGEN + " NNFS2-----A----",
                "NNFS2-----A---- piz@@ za mili@@",
                "",
            ],
            "german-stemmed-split": [
                "und[KON] Meer §§<NN>§§ Bo@@ den <+NN><Masc><Dat><Sg><NA>",
                "Nacht §§<NN>§§ Markt <+NN><Masc><Nom><Sg><NA> §§<NN>§§ sehen",
                "<+NN><Fem><Acc><Sg><NA> Haus §§<NN>§§ Markt <+NN><Masc><Nom><Sg><NA>",
                "a<NN>§§<X>§§ <+NN><Masc><Dat><Sg><NA> Wolke@@",
                "treffen <+V><3><Sg><Pres><Ind>",
            ],
        }
        for mode, block in malformed.items():
            lex = german_lexicon if mode.startswith("german") else czech_lexicon
            lines = block * 4
            cfg = PipelineConfig.for_mode(mode)
            sequential = postprocess(lines, cfg, lex, jobs=1)
            parallel = postprocess(lines, cfg, lex, jobs=2)
            assert sequential.lines == parallel.lines
            assert sequential.diagnostics == parallel.diagnostics
            diagnostics = sequential.diagnostics
            assert diagnostics.lines == len(lines)
            # Every record of the block recurs on each repeat, at its line.
            for records in (
                diagnostics.fallbacks,
                diagnostics.repairs,
                diagnostics.errors,
                diagnostics.unknown_modifiers,
            ):
                first = [record for record in records if record[0] < len(block)]
                assert records == [
                    (line + repeat * len(block), *rest)
                    for repeat in range(4)
                    for line, *rest in first
                ]
            assert diagnostics.fallbacks and diagnostics.repairs and diagnostics.errors
            assert diagnostics.unknown_modifiers or mode == "morphgen"


class TestFullRoundTrip:
    @pytest.mark.parametrize("mode", ["morphgen", "serialization"])
    def test_czech_round_trip(self, czech_lexicon, mode):
        rng = random.Random(3)
        surfaces = [s for _, _, s in entry_rows("czech_toy.tsv")]
        targets = [
            " ".join(rng.choice(surfaces) for _ in range(rng.randint(1, 9)))
            for _ in range(40)
        ]
        corpus = ParallelCorpus.from_lines([""] * len(targets), targets)
        cfg = PipelineConfig.for_mode(mode)
        prepared = prepare_variant(corpus, cfg, czech_lexicon)
        assert prepared.dropped == []
        raw = translate_external(prepared.corpus.targets, ["cat"])
        result = postprocess(raw, cfg, czech_lexicon)
        assert result.lines == targets
        assert result.diagnostics.fallbacks == []

    @pytest.mark.parametrize("mode", ["german-stemmed", "german-stemmed-split"])
    def test_german_round_trip(self, german_lexicon, mode):
        rng = random.Random(4)
        surfaces = sorted({s for _, _, s in entry_rows("german_toy.tsv")})
        targets = [
            " ".join(rng.choice(surfaces) for _ in range(rng.randint(1, 8)))
            for _ in range(40)
        ]
        corpus = ParallelCorpus.from_lines([""] * len(targets), targets)
        cfg = PipelineConfig.for_mode(mode)
        prepared = prepare_variant(corpus, cfg, german_lexicon)
        assert prepared.dropped == []
        raw = translate_external(prepared.corpus.targets, ["cat"])
        result = postprocess(raw, cfg, german_lexicon)
        assert result.lines == targets

    def test_deterministic_given_config_and_seed(self, czech_lexicon):
        cfg = PipelineConfig.for_mode("morphgen", sample_size=3, seed=9)
        lines = [FIG1_SURFACE] * 8
        corpus = ParallelCorpus.from_lines([FIG1_SOURCE] * 8, lines)
        first = prepare_variant(filter_corpus(corpus, cfg), cfg, czech_lexicon)
        second = prepare_variant(filter_corpus(corpus, cfg), cfg, czech_lexicon)
        assert first.corpus.pairs == second.corpus.pairs
        assert first.target_table.merges == second.target_table.merges
