"""BLEU scoring, novel-form analysis and the well-formedness report of postprocess."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from morphmt.evaluation import (
    EmptyCorpus,
    bleu,
    novel_forms,
)
from morphmt.pipeline import PipelineConfig, postprocess

from conftest import FIG1_MORPHGEN
from oracles import counter_bleu

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


def generator_bleu(hypotheses, references, lowercase=False, smooth=False):
    """bleu() with n-gram Counters and a min() generator per n-gram: the oracle."""
    from collections import Counter

    def ngrams(tokens, order):
        return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))

    if lowercase:
        hypotheses = [h.lower() for h in hypotheses]
        references = [r.lower() for r in references]
    matches, totals = [0] * 4, [0] * 4
    hyp_length = ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens, ref_tokens = hyp.split(), ref.split()
        hyp_length += len(hyp_tokens)
        ref_length += len(ref_tokens)
        for n in range(1, 5):
            hyp_ngrams, ref_ngrams = ngrams(hyp_tokens, n), ngrams(ref_tokens, n)
            totals[n - 1] += sum(hyp_ngrams.values())
            matches[n - 1] += sum(min(c, ref_ngrams[g]) for g, c in hyp_ngrams.items())
    if hyp_length == 0:
        return 0.0
    log_sum, orders = 0.0, 0
    for n in range(1, 5):
        m, t = matches[n - 1], totals[n - 1]
        if t == 0:
            continue
        if smooth and n > 1:
            m, t = m + 1, t + 1
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
        orders += 1
    penalty = math.exp(1.0 - ref_length / hyp_length) if hyp_length < ref_length else 1.0
    return 100.0 * penalty * math.exp(log_sum / orders)


# Sentences of 0 to 6 tokens over a few words that differ only in case, so
# clipping, lowercasing and orders above the sentence length all occur; and
# of up to 12 tokens over two words, so n-grams of every order repeat.
bleu_sentence = st.one_of(
    st.lists(st.sampled_from(["a", "A", "b", "B", "c", "."]), max_size=6),
    st.lists(st.sampled_from(["a", "b"]), max_size=12),
).map(" ".join)
bleu_corpus = st.lists(st.tuples(bleu_sentence, bleu_sentence), min_size=1, max_size=6)


class TestBleuMatchesGeneratorCounts:
    @settings(max_examples=300)
    @given(bleu_corpus, st.booleans(), st.booleans())
    def test_same_score(self, pairs, lowercase, smooth):
        hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
        assert bleu(hyps, refs, lowercase, smooth) == generator_bleu(hyps, refs, lowercase, smooth)

    def test_random_corpus(self):
        rng = random.Random(7)
        words = [f"w{i}" for i in range(40)]
        hyps = [rng.choices(words, k=rng.randint(0, 25)) for _ in range(200)]
        # References share most of their hypothesis, so every order matches.
        refs = [" ".join(w if rng.random() < 0.8 else rng.choice(words) for w in h) for h in hyps]
        hyps = [" ".join(h) for h in hyps]
        for smooth in (False, True):
            score = bleu(hyps, refs, smooth=smooth)
            assert 0 < score < 100
            assert score == generator_bleu(hyps, refs, smooth=smooth)



def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestBleuMatchesCounterOracle:
    """Set counts per order, a Counter only where a sentence repeats an
    n-gram: the same floats and errors as counting every order in Counters."""

    @settings(max_examples=300)
    @given(bleu_corpus, st.booleans(), st.booleans())
    def test_same_score(self, pairs, lowercase, smooth):
        hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
        assert bleu(hyps, refs, lowercase, smooth) == counter_bleu(hyps, refs, lowercase, smooth)

    @settings(max_examples=100)
    @given(st.lists(bleu_sentence, max_size=3), st.lists(bleu_sentence, max_size=3),
           st.booleans(), st.booleans())
    def test_same_errors(self, hyps, refs, lowercase, smooth):
        args = (hyps, refs, lowercase, smooth)
        assert outcome(bleu, *args) == outcome(counter_bleu, *args)

    def test_error_texts(self):
        assert outcome(bleu, ["a"], ["a", "b"]) == (ValueError, "1 hypotheses vs 2 references")
        assert outcome(bleu, [], []) == (EmptyCorpus, "no sentences to score")


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


@pytest.fixture
def wellformedness(czech_lexicon, german_lexicon):
    """The diagnostics postprocess reports for system output in a mode."""

    def check(lines, mode):
        lex = german_lexicon if mode.startswith("german") else czech_lexicon
        return postprocess(lines, PipelineConfig.for_mode(mode), lex).diagnostics

    return check


class TestWellformedness:
    def test_all_well_formed(self, wellformedness):
        lines = [FIG1_MORPHGEN, FIG1_MORPHGEN]
        report = wellformedness(lines, "morphgen")
        assert report.errors == []
        assert report.lines == 2
        assert report.malformed_lines == 0

    def test_odd_line_counted(self, wellformedness):
        report = wellformedness(["VB-P---3P-AA---"], "morphgen")
        assert report.counts == {"odd-length": 1}
        assert report.errors == [(0, "odd-length", 0)]

    def test_kinds_aggregated(self, wellformedness):
        lines = [
            FIG1_MORPHGEN,
            "existovat VB-P---3P-AA---",
            "Z:-------------",
        ]
        report = wellformedness(lines, "morphgen")
        assert report.counts == {"tag-expected": 1, "odd-length": 1}
        assert report.malformed_lines == 2
        assert report.errors == [(1, "tag-expected", 0), (2, "odd-length", 0)]

    def test_german_mode(self, wellformedness):
        report = wellformedness(
            ["und[KON] sehen <+V><3><Sg><Pres><Ind>", "sehen"], "german-stemmed"
        )
        assert report.counts == {"tag-expected": 1}

    def test_report_text(self, wellformedness):
        report = wellformedness(["Z:-------------"], "morphgen")
        text = report.to_text()
        assert "lines checked: 1" in text
        assert "  line 0: odd-length at token 0" in text
