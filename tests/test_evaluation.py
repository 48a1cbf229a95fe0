"""BLEU scoring, novel-form analysis and well-formedness checking."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from morphmt.evaluation import (
    EmptyCorpus,
    bleu,
    novel_forms,
    wellformedness,
)

from conftest import FIG1_MORPHGEN

# Hand-derived oracle for "the cat sat on the mat ." vs
# "the cat is on the mat .": modified precisions 6/7, 4/6, 2/5, 1/4
# (counted by hand over the n-gram tables), brevity penalty 1.
HAND_HYP = "the cat sat on the mat ."
HAND_REF = "the cat is on the mat ."
HAND_BLEU = 100.0 * (6 / 7 * 4 / 6 * 2 / 5 * 1 / 4) ** 0.25


class TestBleu:
    def test_identity_is_100(self):
        lines = ["some sentence here .", "another one ."]
        assert bleu(lines, lines) == pytest.approx(100.0)

    def test_disjoint_unigrams_is_0(self):
        assert bleu(["aaa bbb ccc ddd"], ["eee fff ggg hhh"]) == 0.0

    def test_hand_computed_case(self):
        assert bleu([HAND_HYP], [HAND_REF]) == pytest.approx(HAND_BLEU, abs=1e-4)

    def test_brevity_penalty(self):
        # all n-gram precisions are 1; only the penalty remains
        score = bleu(["a b c d"], ["a b c d e"])
        assert score == pytest.approx(100.0 * math.exp(1 - 5 / 4), abs=1e-6)

    def test_no_penalty_for_longer_hypothesis(self):
        score = bleu(["a b c d e"], ["a b c d"])
        expected = 100.0 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
        assert score == pytest.approx(expected, abs=1e-6)

    def test_lowercase_flag(self):
        hyp = ["The Cat sat on the mat ."]
        ref = ["the cat sat on the mat ."]
        assert bleu(hyp, ref) < 100.0
        assert bleu(hyp, ref, lowercase=True) == pytest.approx(100.0)
        assert bleu(hyp, ref, lowercase=True) == pytest.approx(
            bleu([hyp[0].lower()], [ref[0].lower()])
        )

    def test_smoothing_avoids_hard_zero(self):
        # unigram match exists but no common 4-gram
        hyp = ["a x b y c z d"]
        ref = ["a p b q c r d"]
        assert bleu(hyp, ref) == 0.0
        assert bleu(hyp, ref, smooth=True) > 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            bleu([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bleu(["a"], ["a", "b"])

    def test_empty_hypothesis_lines(self):
        assert bleu([""], ["a b c"]) == 0.0

    def test_permutation_symmetry(self):
        rng = random.Random(5)
        hyps = [f"tok{i} tok{i + 1} tok{i + 2} tok{i + 3} end" for i in range(12)]
        refs = [f"tok{i} tok{i + 1} tok{i + 2} other end" for i in range(12)]
        order = list(range(len(hyps)))
        rng.shuffle(order)
        assert bleu(hyps, refs) == pytest.approx(
            bleu([hyps[i] for i in order], [refs[i] for i in order])
        )

    @given(st.lists(st.sampled_from(["a b c d e", "f g h i j", "k l m"]), min_size=1, max_size=8))
    def test_self_bleu_is_100(self, lines):
        assert bleu(lines, lines) == pytest.approx(100.0)


class TestNovelForms:
    def test_token_in_training_vocab_not_novel(self):
        report = novel_forms(["known word"], {"known", "word"}, ["src"], ["ref"])
        assert report.novel_tokens == 0

    def test_novel_and_confirmed(self):
        report = novel_forms(
            ["fresh word"], {"word"}, ["source text"], ["fresh reference"]
        )
        assert report.novel_tokens == 1
        assert report.novel_types == 1
        assert report.confirmed_by_reference == 1
        assert report.items == (("fresh", 0, True),)

    def test_copy_from_source_not_novel(self):
        report = novel_forms(["Braper word"], {"word"}, ["about Braper"], ["ref"])
        assert report.novel_tokens == 0

    def test_types_vs_tokens(self):
        report = novel_forms(
            ["neu neu", "neu alt"], {"alt"}, ["s", "s"], ["r", "r"]
        )
        assert report.novel_tokens == 3
        assert report.novel_types == 1

    def test_confirmed_once_counts_once(self):
        report = novel_forms(
            ["neu", "neu"], set(), ["s", "s"], ["neu", "other"]
        )
        assert report.novel_types == 1
        assert report.confirmed_by_reference == 1
        assert report.items == (("neu", 0, True), ("neu", 1, False))

    def test_lowercase_flag(self):
        report = novel_forms(["Neu"], {"neu"}, ["s"], ["r"], lowercase=True)
        assert report.novel_tokens == 0

    def test_order_invariance_of_counts(self):
        outputs = ["a novel1", "b novel2", "c novel1"]
        sources = ["x", "y", "z"]
        refs = ["novel1", "q", "r"]
        vocab = {"a", "b", "c"}
        forward = novel_forms(outputs, vocab, sources, refs)
        backward = novel_forms(outputs[::-1], vocab, sources[::-1], refs[::-1])
        assert forward.novel_tokens == backward.novel_tokens
        assert forward.novel_types == backward.novel_types
        assert forward.confirmed_by_reference == backward.confirmed_by_reference

    def test_token_count_additive_over_concatenation(self):
        vocab = {"k"}
        a = novel_forms(["n1 k"], vocab, ["s"], ["r"])
        b = novel_forms(["n1 n2"], vocab, ["s"], ["r"])
        both = novel_forms(["n1 k", "n1 n2"], vocab, ["s", "s"], ["r", "r"])
        assert both.novel_tokens == a.novel_tokens + b.novel_tokens
        assert both.novel_types <= a.novel_types + b.novel_types

    def test_misaligned_corpora_rejected(self):
        with pytest.raises(ValueError):
            novel_forms(["a"], set(), ["s", "t"], ["r"])


class TestWellformedness:
    def test_all_well_formed(self):
        lines = [FIG1_MORPHGEN, FIG1_MORPHGEN]
        report = wellformedness(lines, "morphgen")
        assert report.errors == []
        assert report.lines == 2
        assert report.malformed_lines == 0

    def test_odd_line_counted(self):
        report = wellformedness(["VB-P---3P-AA---"], "morphgen")
        assert report.counts == {"odd-length": 1}

    def test_kinds_aggregated(self):
        lines = [
            FIG1_MORPHGEN,
            "existovat VB-P---3P-AA---",
            "Z:-------------",
        ]
        report = wellformedness(lines, "morphgen")
        assert report.counts == {"tag-expected": 1, "odd-length": 1}
        assert report.malformed_lines == 2

    def test_german_mode(self):
        report = wellformedness(
            ["und[KON] sehen <+V><3><Sg><Pres><Ind>", "sehen"], "german-stemmed"
        )
        assert report.counts == {"tag-expected": 1}

    def test_report_text(self):
        report = wellformedness(["Z:-------------"], "morphgen")
        text = report.to_text()
        assert "lines checked: 1" in text
        assert "odd-length" in text
