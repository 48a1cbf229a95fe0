"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Headline corpus-scale numbers (vocabulary counts in the hundred
thousands, BLEU deltas of trained systems) need GPU training and real
corpora; acceptance therefore rests on exact reproduction of the worked
examples and on property suites, each at the tolerance asserted here.
"""

import random
import time
from contextlib import contextmanager

import pytest

from morphmt import evaluation
from morphmt.bpe import MergeTable, apply_bpe, learn_bpe, revert_bpe, vocab_stats
from morphmt.compounds import merge_stem
from morphmt.backend import translate_external
from morphmt.morphlex import load_lexicon, select_analysis
from morphmt.pipeline import (
    ParallelCorpus,
    PipelineConfig,
    _encode_analysis,
    postprocess,
    prepare_variant,
)
from morphmt.tagsets import parse_feature_seq, parse_german_analysis

from conftest import (
    FIG1_MORPHGEN,
    FIG1_SOURCE,
    FIG1_SURFACE,
    TABLE1_ROWS,
    VULKANISCH_CANDIDATES,
    entry_rows,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}")


def test_criterion_1_fig1_end_to_end(czech_lexicon):
    with criterion(1, "worked Czech sentence: prepare and postprocess byte-exact"):
        assert len(czech_lexicon) <= 10
        start = time.perf_counter()
        cfg = PipelineConfig.for_mode("morphgen")
        corpus = ParallelCorpus.from_lines([FIG1_SOURCE], [FIG1_SURFACE])
        prepared = prepare_variant(corpus, cfg, czech_lexicon)
        assert prepared.corpus.targets == [FIG1_MORPHGEN]
        result = postprocess([FIG1_MORPHGEN], cfg, czech_lexicon)
        assert result.lines == [FIG1_SURFACE]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_table1_reproduction(german_lexicon):
    with criterion(2, "worked German sentence: formats byte-exact, surfaces regenerated"):
        start = time.perf_counter()
        # Each analysis is the lexicon row key of its word: stem side (or
        # bare lexeme) and tag text.
        keys = [parse_german_analysis(representation)[:2] for representation, _ in TABLE1_ROWS]
        for (tag_text, lemma), (representation, _) in zip(keys, TABLE1_ROWS):
            bare = tag_text.startswith("[")
            assert (lemma + tag_text if bare else f"{lemma}||{tag_text}") == representation
        tokens = []
        for key, (_, surface) in zip(keys, TABLE1_ROWS):
            tokens += _encode_analysis(german_lexicon, key, surface, "german-stemmed")
        cfg = PipelineConfig.for_mode("german-stemmed")
        result = postprocess([" ".join(tokens)], cfg, german_lexicon)
        surface_line = " ".join(surface for _, surface in TABLE1_ROWS)
        assert result.lines == [surface_line]
        assert "Meeresboden" in result.lines[0]
        assert result.diagnostics.fallbacks == []
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_disambiguation():
    with criterion(3, "nine-way adjective ambiguity resolved by the parse tag"):
        lex = load_lexicon("".join(
            f"vulkanisch\t{tag_text}\tvulkanischen\n" for tag_text in VULKANISCH_CANDIDATES
        ))
        tag_text, _ = select_analysis(lex, "vulkanischen", "ADJA-Dat.Sg.Fem")
        assert tag_text == "<+ADJ><Pos><NoGend><Dat><Sg><Wk>"


def test_criterion_4_lemma_fallback(czech_lexicon):
    with criterion(4, "1000 unknown lemmas: output is the lemma, all counted"):
        rng = random.Random(41)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        tag_alphabet = "ANVZ123456789-"
        lines = []
        lemmas = []
        for i in range(1000):
            lemma = "zz" + "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            assert not czech_lexicon.knows_lemma(lemma)
            tag = "".join(rng.choice(tag_alphabet) for _ in range(15))
            lines.append(f"{tag} {lemma}")
            lemmas.append(lemma)
        cfg = PipelineConfig.for_mode("morphgen")
        result = postprocess(lines, cfg, czech_lexicon)
        assert result.lines == lemmas
        assert result.diagnostics.generated == 1000
        assert [(line, item.reason) for line, item in result.diagnostics.fallbacks] == [
            (line, "unknown-lemma") for line in range(1000)
        ]


def test_criterion_5_bpe_losslessness():
    with criterion(5, "BPE lossless over 10^4 random tokens; toy trace; monotone budget"):
        rng = random.Random(52)
        alphabet = "abcdefghijklmnopqrstuvwxyzäöü@<>-.§|0123456789"
        checked = 0
        for batch in range(100):
            pairs = []
            seen = set()
            for _ in range(rng.randint(0, 15)):
                pair = (
                    "".join(rng.choice("abcdef") for _ in range(rng.randint(1, 3))),
                    "".join(rng.choice("abcdef") for _ in range(rng.randint(1, 3))),
                )
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
            table = MergeTable(tuple(pairs))
            for _ in range(100):
                token = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(1, 14))
                )
                assert revert_bpe(apply_bpe(table, token)) == [token]
                checked += 1
        assert checked >= 10_000

        table = learn_bpe(["low", "low", "lowest"], 2)
        assert table.merges == (("l", "o"), ("lo", "w"))

        corpus = ["low", "lower", "lowest", "newest", "widest", "wide"] * 3
        tables = {n: learn_bpe(corpus, n) for n in range(0, 51)}
        for n in range(0, 51):
            for k in range(0, n + 1):
                assert tables[n].merges[: len(tables[k].merges)] == tables[k].merges


def test_criterion_6_vocabulary_reduction():
    with criterion(6, "stemming and compound splitting shrink the vocabulary"):
        modifiers = ["wasser", "berg", "feld"]
        heads = ["markt", "haus", "weg"]
        suffixes = ["es", "e", "en"]  # three inflected forms per lemma
        simple = ["tag", "zeit", "land"]

        surface_tokens = []
        stemmed_tokens = []
        split_tokens = []
        for modifier in modifiers:
            for head in heads:
                for suffix in suffixes:
                    surface_tokens.append(modifier + head + suffix)
                    stemmed_tokens += [modifier + head, f"T{suffix}"]
                    split_tokens += [modifier, "§§<NN>§§", head, f"T{suffix}"]
        for lemma in simple:
            for suffix in suffixes:
                surface_tokens.append(lemma + suffix)
                stemmed_tokens += [lemma, f"T{suffix}"]
                split_tokens += [lemma, f"T{suffix}"]

        report = vocab_stats(
            [
                ("surface", surface_tokens, learn_bpe(surface_tokens, 1000)),
                ("stemmed", stemmed_tokens, learn_bpe(stemmed_tokens, 1000)),
                ("stemmed+split", split_tokens, learn_bpe(split_tokens, 1000)),
            ]
        )
        sizes = {name: size for name, size, _ in report.rows}
        assert sizes["stemmed"] < sizes["surface"]
        assert sizes["stemmed+split"] < sizes["stemmed"]


def test_criterion_7_bleu_sanity():
    with criterion(7, "BLEU: identity 100.00, disjoint 0.00, hand-computed case"):
        lines = ["ein voller satz mit worten .", "noch einer hier ."]
        assert f"{evaluation.bleu(lines, lines):.2f}" == "100.00"
        assert f"{evaluation.bleu(['aaa bbb ccc'], ['xxx yyy zzz']):.2f}" == "0.00"
        # hand-counted modified precisions: 6/7, 4/6, 2/5, 1/4; BP = 1
        expected = 100.0 * (6 / 7 * 4 / 6 * 2 / 5 * 1 / 4) ** 0.25
        got = evaluation.bleu(
            ["the cat sat on the mat ."], ["the cat is on the mat ."]
        )
        assert got == pytest.approx(expected, abs=1e-4)


def test_criterion_8_novel_form_semantics():
    with criterion(8, "novel-form counts match brute-force recomputation"):
        rng = random.Random(83)
        known = [f"known{i}" for i in range(10)]
        vocab = set(known)
        outputs, sources, references = [], [], []
        for i in range(20):
            out_tokens = [rng.choice(known) for _ in range(3)]
            src_tokens = [f"src{i}a", f"src{i}b"]
            ref_tokens = [rng.choice(known)]
            if i % 2 == 0:
                out_tokens.append(f"novel{i % 5}")  # repeated novel types
            if i % 3 == 0:
                out_tokens.append(f"copied{i}")
                src_tokens.append(f"copied{i}")  # source copy: not novel
            if i % 4 == 0:
                out_tokens.append(f"confirmed{i}")
                ref_tokens.append(f"confirmed{i}")
            outputs.append(" ".join(out_tokens))
            sources.append(" ".join(src_tokens))
            references.append(" ".join(ref_tokens))

        report = evaluation.novel_forms(outputs, vocab, sources, references)

        # brute force, straight from the definition
        brute_items = []
        for i, line in enumerate(outputs):
            for token in line.split():
                if token in vocab or token in sources[i].split():
                    continue
                brute_items.append((token, i, token in references[i].split()))
        brute_types = {token for token, _, _ in brute_items}
        brute_confirmed = {token for token, _, ok in brute_items if ok}

        assert report.novel_tokens == len(brute_items)
        assert report.novel_types == len(brute_types)
        assert report.confirmed_by_reference == len(brute_confirmed)
        assert list(report.items) == brute_items
        assert report.novel_tokens > 0
        assert report.confirmed_by_reference > 0


def synthetic_czech_rows():
    rows = []
    cases = "1234567"
    for i in range(40):
        lemma = f"slovo{i}"
        for case in cases[: (i % 3) + 1]:
            rows.append((lemma, f"NNIS{case}-----A----", f"{lemma}u{case}"))
    rows.append((".", "Z:-------------", "."))
    return rows


def test_criterion_9_full_pipeline_round_trip(german_lexicon):
    with criterion(9, "500-sentence round trip in every non-baseline mode"):
        start = time.perf_counter()
        czech_rows = synthetic_czech_rows()
        czech_lex = load_lexicon("\n".join("\t".join(row) for row in czech_rows))
        german_rows = entry_rows("german_toy.tsv")
        rng = random.Random(97)

        def sentences(rows):
            surfaces = sorted({s for _, _, s in rows})
            return [
                " ".join(rng.choice(surfaces) for _ in range(rng.randint(3, 9)))
                for _ in range(500)
            ]

        jobs = [
            ("morphgen", czech_lex, czech_rows),
            ("serialization", czech_lex, czech_rows),
            ("german-stemmed", german_lexicon, german_rows),
            ("german-stemmed-split", german_lexicon, german_rows),
        ]
        for mode, lex, rows in jobs:
            targets = sentences(rows)
            corpus = ParallelCorpus.from_lines([""] * len(targets), targets)
            cfg = PipelineConfig.for_mode(mode)
            prepared = prepare_variant(corpus, cfg, lex)
            assert prepared.dropped == []
            raw = translate_external(prepared.corpus.targets, ["cat"])
            result = postprocess(raw, cfg, lex)
            assert result.lines == targets, f"round trip failed in {mode}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_10_compound_linking(german_lexicon):
    with criterion(10, "compound merge picks the stored linking elements"):
        features = parse_feature_seq("<+NN><Masc><Nom><Sg><NA>")
        merged, _ = merge_stem("Oszillation<NN>Generator", features, german_lexicon)
        assert merged == "Oszillationsgenerator"
        assert merged != "Oszillationengenerator"

        assert merge_stem("Haus<NN>Markt", features, german_lexicon) == ("Häusermarkt", True)
