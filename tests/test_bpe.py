"""BPE learning, application, reversion and corpus statistics."""

import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from morphmt.bpe import (
    DanglingMarker,
    MergeTable,
    apply_bpe,
    learn_bpe,
    revert_bpe,
    _merge_word,
    segment_line,
    vocab_stats,
    word_end_fragment_stats,
)
from morphmt.conventions import tokenize
from morphmt.pipeline import PipelineConfig, postprocess
from morphmt.tagsets import is_czech_tag

import spec


class TestLearnBpe:
    def test_zero_merges(self):
        assert learn_bpe(["low", "low", "lowest"], 0).merges == ()

    def test_hand_traced_toy_corpus(self):
        # pair counts: (l,o)=3 and (o,w)=3 tie on frequency, (l,o) wins
        # lexicographically; after merging, (lo,w)=3 dominates.
        table = learn_bpe(["low", "low", "lowest"], 2)
        assert table.merges == (("l", "o"), ("lo", "w"))

    def test_fixpoint_on_repeated_word(self):
        table = learn_bpe(["abcd"] * 5, 1000)
        assert len(table) == 3  # ab, then one merge per remaining boundary
        assert apply_bpe(table, "abcd") == ["abcd"]

    def test_empty_corpus(self):
        assert learn_bpe([], 10).merges == ()

    def test_deterministic(self):
        corpus = ["banana", "bandana", "ananas"] * 3
        assert learn_bpe(corpus, 20).merges == learn_bpe(corpus, 20).merges

    @pytest.mark.parametrize("k,n", [(0, 5), (3, 5), (5, 5), (10, 50)])
    def test_monotone_budget(self, k, n):
        corpus = ["low", "lower", "lowest", "newest", "widest"] * 2
        big = learn_bpe(corpus, n)
        small = learn_bpe(corpus, k)
        assert big.merges[: len(small.merges)] == small.merges

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            learn_bpe(["a"], -1)


class TestApplyBpe:
    def test_partial_merge_leaves_marker(self):
        # merges cover piz but not the full word: "piz@@ zy"
        table = MergeTable((("p", "i"), ("pi", "z"), ("z", "y")))
        assert apply_bpe(table, "pizzy") == ["piz@@", "zy"]

    def test_single_character_token(self):
        table = MergeTable((("a", "b"),))
        assert apply_bpe(table, "x") == ["x"]
        assert apply_bpe(table, "a") == ["a"]

    def test_protected_token_passes_through(self):
        table = MergeTable(tuple((c, "-") for c in "NVZ"))
        tag = "NNFS2-----A----"
        assert apply_bpe(table, tag, protected=is_czech_tag) == [tag]
        assert len(apply_bpe(table, tag)) > 1

    def test_empty_table_splits_to_characters(self):
        table = MergeTable(())
        assert apply_bpe(table, "abc") == ["a@@", "b@@", "c"]

    def test_rank_order_respected(self):
        # (b,c) ranks above (a,b): "abc" becomes a + bc, not ab + c.
        table = MergeTable((("b", "c"), ("a", "b")))
        assert apply_bpe(table, "abc") == ["a@@", "bc"]

    def test_segment_line(self):
        table = MergeTable(())
        assert segment_line(table, "ab c") == "a@@ b c"


class TestRevertBpe:
    def test_fig_example(self):
        assert revert_bpe(["piz@@", "zy"]) == ["pizzy"]

    def test_single_token(self):
        assert revert_bpe(["a"]) == ["a"]

    def test_dangling_marker_rejected(self):
        with pytest.raises(DanglingMarker):
            revert_bpe(["piz@@"])

    def test_multiple_words(self):
        pieces = ["exi@@", "stují", "mili@@", "ony", "."]
        assert revert_bpe(pieces) == ["existují", "miliony", "."]


def token_loop_revert(subwords):
    """revert_bpe as a loop over the pieces, the oracle for the one-pass version."""
    out, current = [], []
    for piece in subwords:
        if piece.endswith("@@"):
            current.append(piece[:-2])
        else:
            current.append(piece)
            out.append("".join(current))
            current = []
    if current:
        raise DanglingMarker(f"sequence ends on a continuation marker: {subwords[-1]!r}")
    return out


# Pieces as tokenize yields them, but also empty: markers alone, runs of
# "@", markers mid-piece, a tab that tokenize cuts at but a hand-built
# piece list may still hold, and U+0085, which is token content.
revert_pieces = st.lists(
    st.lists(st.sampled_from(["a", "b", "@", "@@", "@@@", "\t", "\x85"]), max_size=4).map("".join),
    max_size=8,
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DanglingMarker as exc:
        return ("DanglingMarker", str(exc))


class TestRevertMatchesTokenLoop:
    @settings(max_examples=300)
    @given(revert_pieces)
    @example([])
    @example(["@@"])
    @example(["a@@", "@@", "b"])
    @example(["@@@", "x", "a@@@@"])
    @example(["a\t@@", "b\x85"])
    def test_revert(self, pieces):
        assert outcome(revert_bpe, pieces) == outcome(token_loop_revert, pieces)
        if pieces and not pieces[-1].endswith("@@"):
            # The pieces joined by single spaces, as one item, revert the same.
            assert revert_bpe([" ".join(pieces)]) == revert_bpe(pieces)

    @settings(max_examples=300)
    @given(revert_pieces)
    @example(["x", "@@"])
    @example(["x@@", "@@"])
    @example(["a@@@@@"])
    @example(["@@@@"])
    def test_postprocess_repairs(self, pieces):
        line = " ".join(pieces)
        result = postprocess([line], PipelineConfig.for_mode("baseline"))
        assert (result.lines, result.diagnostics) == spec.postprocess_lines([line], "baseline")


class TestMergeTableSerialization:
    def test_text_round_trip(self):
        table = learn_bpe(["low", "low", "lowest"], 2)
        assert MergeTable.from_text(table.to_text()).merges == table.merges

    def test_merge_starting_with_hash_kept(self):
        table = learn_bpe(["#tag"] * 5, 3)
        assert table.merges[0] == ("#", "t")
        restored = MergeTable.from_text(table.to_text())
        assert restored.merges == table.merges
        assert segment_line(restored, "#tag") == "#tag"

    @given(st.lists(st.text(alphabet="#ab", min_size=1, max_size=6), max_size=12),
           st.integers(0, 20))
    def test_text_round_trip_with_hash(self, words, merges):
        table = learn_bpe(words, merges)
        assert MergeTable.from_text(table.to_text()).merges == table.merges

    @given(st.lists(st.text(alphabet="a@ \t\r\x0c\x85\xa0\u2028", max_size=8), max_size=8),
           st.integers(0, 20))
    @example(["\xa0\xa0"], 1)
    @example(["a\r"], 1)
    def test_text_round_trip_of_every_token(self, lines, merges):
        # A merge of any two symbols of tokenize's tokens, Unicode spaces
        # included, reads back from its written line.
        table = learn_bpe([token for line in lines for token in tokenize(line)], merges)
        assert MergeTable.from_text(table.to_text() + "\n") == table

    def test_separator_inside_a_merge(self):
        table = MergeTable.from_text("a\x0cb c\r\nd e\r\n")
        assert table.merges == (("a\x0cb", "c"), ("d", "e"))

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError):
            MergeTable((("a", "b"), ("a", "b")))

    def test_rank_is_position(self):
        table = MergeTable((("a", "b"), ("c", "d")))
        assert table.rank[("a", "b")] == 0
        assert table.rank[("c", "d")] == 1


tokens = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzäöüß@<>|-.§0123456789", min_size=1, max_size=14
)


@st.composite
def merge_tables(draw):
    n = draw(st.integers(0, 20))
    pairs = []
    seen = set()
    for _ in range(n):
        left = draw(st.text(alphabet="abcdefghi", min_size=1, max_size=3))
        right = draw(st.text(alphabet="abcdefghi", min_size=1, max_size=3))
        if (left, right) not in seen:
            seen.add((left, right))
            pairs.append((left, right))
    return MergeTable(tuple(pairs))


class TestLosslessnessProperties:
    @given(merge_tables(), tokens)
    def test_revert_inverts_apply(self, table, token):
        assert revert_bpe(apply_bpe(table, token)) == [token]

    @given(merge_tables(), tokens)
    def test_pieces_concatenate_to_token(self, table, token):
        pieces = apply_bpe(table, token)
        assert "".join(p[:-2] if p.endswith("@@") else p for p in pieces) == token

    @settings(max_examples=30)
    @given(st.lists(tokens, min_size=0, max_size=20), merge_tables())
    def test_line_round_trip(self, words, table):
        line = " ".join(words)
        segmented = segment_line(table, line)
        assert revert_bpe(segmented.split()) == line.split()

    def test_learned_table_round_trip_bulk(self):
        rng = random.Random(13)
        corpus = [
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 10)))
            for _ in range(400)
        ]
        table = learn_bpe(corpus, 50)
        for token in corpus:
            assert revert_bpe(apply_bpe(table, token)) == [token]


class TestWordEndFragmentStats:
    def test_counts_split_word_ends_only(self):
        lines = ["spiel@@ ten", "spiel@@ ten", "spiel@@ ten ganz"]
        assert word_end_fragment_stats(lines) == [("ten", 3)]

    def test_no_split_words(self):
        assert word_end_fragment_stats(["alles gut hier"]) == []

    def test_sorted_by_frequency_then_fragment(self):
        lines = ["a@@ zz", "a@@ zz", "b@@ ten", "c@@ ten", "d@@ aa"]
        assert word_end_fragment_stats(lines) == [("ten", 2), ("zz", 2), ("aa", 1)]

    def test_middle_pieces_not_counted(self):
        # only the final piece of a split word counts, not inner ones
        assert word_end_fragment_stats(["a@@ b@@ c"]) == [("c", 1)]


class TestVocabStats:
    def test_empty_corpus(self):
        report = vocab_stats([("empty", [], MergeTable(()))])
        assert report.rows == (("empty", 0, 0),)

    def test_stemming_reduces_vocab(self):
        # Five lemmas with three inflected forms each: the surface variant
        # has 15 types, the stemmed one 5 lemma types + 3 tag types.
        lemmas = ["haus", "baum", "berg", "fluss", "wald"]
        suffixes = ["es", "e", "en"]
        surface_tokens = [lemma + s for lemma in lemmas for s in suffixes] * 3
        stem_tokens = [t for lemma in lemmas for s in suffixes for t in (f"T{s}", lemma)] * 3
        surface_table = learn_bpe(surface_tokens, 200)
        stem_table = learn_bpe(stem_tokens, 200)
        report = vocab_stats(
            [
                ("surface", surface_tokens, surface_table),
                ("stemmed", stem_tokens, stem_table),
            ]
        )
        (_, surface_size, _), (_, stem_size, _) = report.rows
        assert surface_size == 15
        assert stem_size == len(lemmas) + len(suffixes)
        assert stem_size < surface_size

    def test_report_layout(self):
        report = vocab_stats([("surface", ["a", "b"], MergeTable(()))])
        text = report.to_text()
        assert text.splitlines()[0].split() == ["variant", "vocab", "vocab", "w/", "BPE"]
        assert "surface" in text

    @given(st.lists(tokens, max_size=60), st.integers(0, 30))
    def test_segmented_vocab_within_symbol_budget(self, corpus, budget):
        # the continuation marker decorates a symbol without adding to the
        # symbol inventory, so the budget bound applies to stripped pieces
        table = learn_bpe(corpus, budget)
        pieces = {
            piece.removesuffix("@@")
            for token in corpus
            for piece in apply_bpe(table, token)
        }
        character_inventory = {c for t in corpus for c in t}
        assert len(pieces) <= budget + len(character_inventory)


# ---------------------------------------------------------------------------
# The incremental learner against the naive one it replaced
# ---------------------------------------------------------------------------


def naive_learn_bpe(tokens, num_merges):
    """Reference learner: recount every pair of every word type per merge.

    Returns the merges as a list; unlike ``MergeTable`` it does not reject
    a pair that forms again after its merge and is picked twice.
    """
    vocab = Counter(tokens)
    words = [list(w) for w in vocab]
    freqs = [vocab[w] for w in vocab]
    merges = []
    for _ in range(num_merges):
        pair_counts = Counter()
        for symbols, freq in zip(words, freqs):
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] += freq
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        words = [_merge_word(symbols, best) for symbols in words]
    return merges


def assert_same_merges(tokens, num_merges):
    expected = naive_learn_bpe(tokens, num_merges)
    if len(set(expected)) != len(expected):
        with pytest.raises(ValueError, match="duplicate"):
            learn_bpe(tokens, num_merges)
    else:
        assert learn_bpe(tokens, num_merges).merges == tuple(expected)


learner_tokens = st.one_of(
    st.text(alphabet="a", min_size=1, max_size=9),  # runs of one character
    st.text(alphabet="ab@§éž", min_size=1, max_size=8),
    st.sampled_from(["@@", "§§", "a@@", "§§<NN>§§", "x", "ß", "@"]),
)


class TestIncrementalLearner:
    @settings(max_examples=300)
    @given(st.lists(learner_tokens, max_size=40), st.integers(0, 120))
    @example([], 5)
    @example(["aaaa", "aaa", "aa", "a"], 50)
    @example(["@@", "a@@", "§§", "x"], 0)
    def test_matches_naive_learner(self, tokens, num_merges):
        assert_same_merges(tokens, num_merges)

    @settings(max_examples=50)
    @given(st.lists(learner_tokens, min_size=1, max_size=30))
    def test_matches_naive_learner_past_the_fixpoint(self, tokens):
        budget = sum(len(w) - 1 for w in set(tokens)) + 3
        assert len(naive_learn_bpe(tokens, budget)) < budget
        assert_same_merges(tokens, budget)

    def test_matches_naive_learner_on_a_zipfian_corpus(self):
        rng = random.Random(5)
        types = ["".join(rng.choice("abcdeáč") for _ in range(rng.randint(1, 9)))
                 for _ in range(300)]
        corpus = rng.choices(types, [1 / (r + 1) for r in range(len(types))], k=3000)
        assert_same_merges(corpus, 150)


# ---------------------------------------------------------------------------
# segment_line's memo against uncached apply_bpe
# ---------------------------------------------------------------------------


class Unhashable:
    """A predicate that cannot be a dict key."""

    __hash__ = None

    def __call__(self, token):
        return token.startswith("<")


def is_short(token):
    return len(token) < 3


PREDICATES = [None, is_czech_tag, is_short, Unhashable()]
memo_lines = st.lists(
    st.lists(st.one_of(tokens, st.sampled_from(["<x>", "NNFS2-----A----", "ab"])),
             max_size=8).map(" ".join),
    max_size=6,
)


def uncached(table, line, protected):
    return " ".join(" ".join(apply_bpe(table, t, protected)) for t in line.split())


class TestSegmentationMemo:
    @settings(max_examples=60)
    @given(merge_tables(), memo_lines, st.sampled_from(PREDICATES))
    def test_matches_apply_bpe(self, table, lines, protected):
        for line in lines + lines:
            assert segment_line(table, line, protected) == uncached(table, line, protected)

    @settings(max_examples=60)
    @given(merge_tables(), memo_lines,
           st.lists(st.sampled_from(PREDICATES), min_size=2, max_size=5))
    def test_one_table_under_predicates_in_turn(self, table, lines, predicates):
        for protected in predicates:
            for line in lines:
                assert segment_line(table, line, protected) == uncached(table, line, protected)

    @settings(max_examples=40)
    @given(merge_tables(), memo_lines, st.sampled_from(PREDICATES[:3]))
    def test_pickled_after_use(self, table, lines, protected):
        fresh = pickle.dumps(MergeTable(table.merges))
        for line in lines:
            segment_line(table, line, protected)
        assert pickle.dumps(table) == fresh  # the memo is not shipped
        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and copy.rank == table.rank
        for line in lines:
            assert segment_line(copy, line, protected) == uncached(table, line, protected)
