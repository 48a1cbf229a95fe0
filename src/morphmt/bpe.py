"""Byte-pair-encoding segmentation and the corpus statistics built on it.

Merges are learned per word over character symbols: the most frequent
adjacent symbol pair is merged iteratively, frequency ties broken by
lexicographic order on the pair so that learning is fully deterministic.
Pair counts are kept incrementally (Sennrich et al. 2016): one initial
count, a pair -> word index and a heap with lazy invalidation, so each
merge touches only the word types that contain the merged pair.
Applying a merge table splits a token into pieces, all but the last
carrying the ``@@`` continuation marker; reverting concatenates marked
runs back into whole tokens.  Segmentation is lossless:
``revert(apply(w)) == [w]`` for every token and table.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable, Iterable, Sequence

from . import FrozenRecord
from .conventions import split_lines, tokenize

__all__ = [
    "MARKER",
    "DanglingMarker",
    "MergeTable",
    "VocabReport",
    "learn_bpe",
    "apply_bpe",
    "segment_line",
    "segment_tokens",
    "revert_bpe",
    "word_end_fragment_stats",
    "vocab_stats",
]

MARKER = "@@"


class DanglingMarker(ValueError):
    """A subword sequence ends on a continuation marker."""


class MergeTable(FrozenRecord):
    """Ordered list of learned merges; rank is the learning position."""

    def __init__(self, merges: tuple[tuple[str, str], ...]) -> None:
        if len(set(merges)) != len(merges):
            raise ValueError("duplicate pairs in merge table")
        object.__setattr__(self, "merges", merges)
        # Neither the rank nor segment_line's memo, [protected predicate,
        # {token: segmented text}], is a field: equality and repr see the merges only.
        object.__setattr__(self, "rank", {p: i for i, p in enumerate(merges)})
        object.__setattr__(self, "_memo", [None, {}])

    def __len__(self) -> int:
        return len(self.merges)

    def to_text(self) -> str:
        """One merge per line, ``left right``; line order is the rank."""
        return "\n".join(f"{a} {b}" for a, b in self.merges)

    @classmethod
    def from_text(cls, text: str) -> MergeTable:
        merges = []
        for lineno, line in enumerate(split_lines(text), start=1):
            parts = tokenize(line)
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError(f"merge table line {lineno}: expected 'left right'")
            merges.append((parts[0], parts[1]))
        return cls(tuple(merges))


def learn_bpe(tokens: Iterable[str], num_merges: int) -> MergeTable:
    """Learn up to ``num_merges`` merges from a token stream.

    Words start as character sequences with an implicit end at the word
    boundary (no explicit end-of-word symbol).  Learning stops early once
    no adjacent pair remains, i.e. every word is a single symbol.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    vocab = Counter(tokens)
    words: list[list[str]] = [list(w) for w in vocab]
    freqs: list[int] = list(vocab.values())
    counts: dict[tuple[str, str], int] = {}
    where: dict[tuple[str, str], set[int]] = {}
    for i, (symbols, freq) in enumerate(zip(words, freqs)):
        for pair in zip(symbols, symbols[1:]):
            counts[pair] = counts.get(pair, 0) + freq
            where.setdefault(pair, set()).add(i)
    # Min-heap on (-count, pair): highest count, then the smallest pair.
    # An entry whose count is no longer the pair's count is stale.
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while heap and len(merges) < num_merges:
        negative, best = heapq.heappop(heap)
        if counts[best] != -negative:
            continue
        merges.append(best)
        delta: dict[tuple[str, str], int] = {}
        # A pair can form again after its merge, so `where` may be re-filled.
        for i in where.pop(best):
            symbols = words[i]
            merged = _merge_word(symbols, best)
            if len(merged) == len(symbols):
                continue  # the index is a superset: this word lost the pair earlier
            freq = freqs[i]
            for pair in zip(symbols, symbols[1:]):
                delta[pair] = delta.get(pair, 0) - freq
            for pair in zip(merged, merged[1:]):
                delta[pair] = delta.get(pair, 0) + freq
                where.setdefault(pair, set()).add(i)
            words[i] = merged
        for pair, change in delta.items():
            if change:
                count = counts[pair] = counts.get(pair, 0) + change
                if count:
                    heapq.heappush(heap, (-count, pair))
    return MergeTable(tuple(merges))


def _merge_word(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    """Merge every (non-overlapping, leftmost-first) occurrence of pair."""
    if len(symbols) < 2:
        return symbols
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def apply_bpe(
    table: MergeTable,
    token: str,
    protected: Callable[[str], bool] | None = None,
) -> list[str]:
    """Segment one token by greedy application in ascending rank order.

    Tokens accepted by the ``protected`` predicate pass through whole;
    all output pieces except the last carry the ``@@`` marker.
    """
    if protected is not None and protected(token):
        return [token]
    if len(token) < 2:
        return [token]
    symbols = list(token)
    rank = table.rank
    while len(symbols) > 1:
        best: tuple[str, str] | None = None
        best_rank = len(table.merges)
        for pair in zip(symbols, symbols[1:]):
            r = rank.get(pair)
            if r is not None and r < best_rank:
                best, best_rank = pair, r
        if best is None:
            break
        symbols = _merge_word(symbols, best)
    if len(symbols) == 1:
        return symbols
    return [s + MARKER for s in symbols[:-1]] + [symbols[-1]]


def segment_line(
    table: MergeTable, line: str, protected: Callable[[str], bool] | None = None
) -> str:
    """:func:`segment_tokens` of the :func:`~morphmt.conventions.tokenize` tokens of a line."""
    return segment_tokens(table, tokenize(line), protected)


def segment_tokens(
    table: MergeTable, tokens: Sequence[str], protected: Callable[[str], bool] | None = None
) -> str:
    """Apply BPE to every token and join the pieces into one line.

    Each distinct token is segmented once per table and predicate: the
    table keeps the segmentations under the last predicate it was used
    with (compared by identity) and drops them when the predicate changes.
    """
    memo = table._memo
    if memo[0] is not protected:
        memo[:] = [protected, {}]
    segmented = memo[1]
    for token in tokens:
        if token not in segmented:
            segmented[token] = " ".join(apply_bpe(table, token, protected))
    return " ".join(map(segmented.__getitem__, tokens))


def revert_bpe(subwords: list[str]) -> list[str]:
    """Concatenate marked runs back into whole tokens.

    The inverse of :func:`apply_bpe` over a whole sequence; raises
    :class:`DanglingMarker` when the sequence ends mid-word.  The pieces
    are joined into one line and every ``@@`` before a space is deleted
    (the reference ``sed 's/@@ //g'``), so an item may also be several
    pieces joined by single spaces: a line with no tab, ``\\r``, leading,
    trailing or doubled space reverts as ``[line]``, as its tokens do.
    """
    if not subwords:
        return []
    if subwords[-1].endswith(MARKER):
        raise DanglingMarker(f"sequence ends on a continuation marker: {subwords[-1]!r}")
    return " ".join(subwords).replace(MARKER + " ", "").split(" ")


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------


def word_end_fragment_stats(lines: Iterable[str]) -> list[tuple[str, int]]:
    """Frequencies of final pieces of split words in a segmented corpus.

    A word-end fragment is a marker-free piece immediately preceded (in
    the same word) by a marked piece.  Whole, unsplit words contribute
    nothing.  Sorted by descending frequency, lexicographic on ties.
    """
    counts: Counter[str] = Counter()
    for line in lines:
        previous_marked = False
        for token in tokenize(line):
            marked = token.endswith(MARKER)
            if previous_marked and not marked:
                counts[token] += 1
            previous_marked = marked
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


class VocabReport(FrozenRecord):
    """Distinct-token counts per corpus variant, before and after BPE."""

    def __init__(self, rows: tuple[tuple[str, int, int], ...]) -> None:
        object.__setattr__(self, "rows", rows)

    def to_text(self) -> str:
        name_width = max([len("variant")] + [len(r[0]) for r in self.rows])
        lines = [f"{'variant':<{name_width}}  {'vocab':>9}  {'vocab w/ BPE':>12}"]
        for name, size, size_bpe in self.rows:
            lines.append(f"{name:<{name_width}}  {size:>9}  {size_bpe:>12}")
        return "\n".join(lines)


def vocab_stats(
    variants: list[tuple[str, Iterable[str], MergeTable]],
    protected: Callable[[str], bool] | None = None,
) -> VocabReport:
    """Vocabulary sizes per named variant, before and after segmentation.

    Each variant is (name, token stream, merge table for that variant).
    """
    rows = []
    for name, tokens, table in variants:
        vocab = set(tokens)
        segmented: set[str] = set()
        for token in vocab:
            segmented.update(apply_bpe(table, token, protected))
        rows.append((name, len(vocab), len(segmented)))
    return VocabReport(tuple(rows))
