"""BPE learning, application, reversion and corpus statistics."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from morphmt.bpe import (
    DanglingMarker,
    MergeTable,
    apply_bpe,
    learn_bpe,
    revert_bpe,
    segment_line,
    vocab_stats,
    word_end_fragment_stats,
)
from morphmt.tagsets import is_czech_tag


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


class TestMergeTableSerialization:
    def test_text_round_trip(self):
        table = learn_bpe(["low", "low", "lowest"], 2)
        assert MergeTable.from_text(table.to_text()).merges == table.merges

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
