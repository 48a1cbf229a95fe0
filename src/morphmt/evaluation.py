"""Corpus-level BLEU and the diagnostic analyses of system output.

* :func:`bleu` - classic corpus BLEU-4: geometric mean of modified
  n-gram precisions times the brevity penalty, no smoothing by default
  (any zero precision yields 0.0); optional add-one smoothing for tiny
  test sets.
* :func:`novel_forms` - tokens produced by the system that occur neither
  in the training target vocabulary nor in the aligned source sentence;
  a novel form is confirmed when the aligned reference contains it.

The well-formedness of a tag/word stream is checked where it is decoded:
``postprocess`` reports each malformed line in its
:class:`~morphmt.morphlex.Diagnostics`.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from typing import Iterable

from . import FrozenRecord

__all__ = [
    "EmptyCorpus",
    "NovelFormReport",
    "bleu",
    "novel_forms",
]

MAX_ORDER = 4


class EmptyCorpus(ValueError):
    """BLEU is undefined for an empty corpus."""


def _ngrams(shifted: list[list[str]], order: int) -> Iterable:
    """The n-grams of a sentence from its shifted token lists, in order;
    unigrams are the tokens themselves."""
    if order == 1:
        return shifted[0]
    return zip(*shifted[:order])


def bleu(
    hypotheses: list[str],
    references: list[str],
    lowercase: bool = False,
    smooth: bool = False,
) -> float:
    """Corpus BLEU-4 in [0, 100] for one reference per sentence.

    With ``smooth`` set, add-one smoothing is applied to the precisions
    of order 2 and above, which keeps tiny test sets off the hard zero.
    A sentence's clipped matches of one order are counted with a set of
    its hypothesis n-grams, or with two ``Counter``s where the hypothesis
    repeats an n-gram of that order.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyCorpus("no sentences to score")
    if lowercase:
        hypotheses = [h.lower() for h in hypotheses]
        references = [r.lower() for r in references]

    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_length = 0
    ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = hyp.split()
        ref_tokens = ref.split()
        hyp_length += len(hyp_tokens)
        ref_length += len(ref_tokens)
        orders = min(len(hyp_tokens), MAX_ORDER)
        # tokens, tokens[1:], ...: order n zips the first n of them.
        hyp_shifted = [hyp_tokens[i:] for i in range(orders)]
        ref_shifted = [ref_tokens[i:] for i in range(orders)]
        for n in range(1, orders + 1):
            count = len(hyp_tokens) - n + 1
            totals[n - 1] += count
            # Clipped matches: each reference occurrence covers at most one
            # hypothesis n-gram.  When the hypothesis n-grams are distinct,
            # that is the number of them the reference contains.
            hyp_ngrams = set(_ngrams(hyp_shifted, n))
            if len(hyp_ngrams) == count:
                matches[n - 1] += len(hyp_ngrams.intersection(_ngrams(ref_shifted, n)))
            else:
                hyp_counts = Counter(_ngrams(hyp_shifted, n))
                ref_counts = Counter(_ngrams(ref_shifted, n))
                matches[n - 1] += sum(
                    map(min, hyp_counts.values(), map(ref_counts.get, hyp_counts, repeat(0)))
                )

    if hyp_length == 0:
        return 0.0
    # Orders with no hypothesis n-grams at all (corpus shorter than the
    # order) are undefined rather than zero and drop out of the mean, so
    # that identical corpora always score 100.
    log_sum = 0.0
    orders = 0
    for n in range(1, MAX_ORDER + 1):
        m, t = matches[n - 1], totals[n - 1]
        if t == 0:
            continue
        if smooth and n > 1:
            m, t = m + 1, t + 1
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
        orders += 1
    precision = math.exp(log_sum / orders)
    if hyp_length < ref_length:
        brevity_penalty = math.exp(1.0 - ref_length / hyp_length)
    else:
        brevity_penalty = 1.0
    return 100.0 * brevity_penalty * precision


# ---------------------------------------------------------------------------
# Novel surface forms
# ---------------------------------------------------------------------------


class NovelFormReport(FrozenRecord):
    """Novel-form counts: occurrences, distinct types, reference hits."""

    def __init__(
        self, novel_tokens: int, novel_types: int, confirmed_by_reference: int,
        items: tuple[tuple[str, int, bool], ...],  # (token, sentence index, confirmed)
    ) -> None:
        object.__setattr__(self, "novel_tokens", novel_tokens)
        object.__setattr__(self, "novel_types", novel_types)
        object.__setattr__(self, "confirmed_by_reference", confirmed_by_reference)
        object.__setattr__(self, "items", items)

    def to_text(self) -> str:
        lines = [
            f"novel tokens: {self.novel_tokens}",
            f"novel types: {self.novel_types}",
            f"confirmed by reference: {self.confirmed_by_reference}",
        ]
        for token, index, confirmed in self.items:
            status = "confirmed" if confirmed else "unconfirmed"
            lines.append(f"  {index}\t{token}\t{status}")
        return "\n".join(lines)


def novel_forms(
    outputs: list[str],
    training_vocab: Iterable[str],
    source_sentences: list[str],
    references: list[str],
    lowercase: bool = False,
) -> NovelFormReport:
    """Count output tokens absent from training data and source sentence.

    A token is novel iff it is not in the training target vocabulary and
    not in its own source sentence (verbatim copies do not count); it is
    confirmed iff the aligned reference contains it.  Matching is exact
    and case-sensitive unless ``lowercase`` is set.
    """
    if not (len(outputs) == len(source_sentences) == len(references)):
        raise ValueError("outputs, sources and references must align")

    def fold(text: str) -> str:
        return text.lower() if lowercase else text

    vocab = {fold(token) for token in training_vocab}
    items: list[tuple[str, int, bool]] = []
    confirmed_types: set[str] = set()
    novel_types: set[str] = set()
    for index, (out, src, ref) in enumerate(
        zip(outputs, source_sentences, references)
    ):
        source_tokens = {fold(t) for t in src.split()}
        reference_tokens = {fold(t) for t in ref.split()}
        for token in out.split():
            folded = fold(token)
            if folded in vocab or folded in source_tokens:
                continue
            confirmed = folded in reference_tokens
            items.append((token, index, confirmed))
            novel_types.add(folded)
            if confirmed:
                confirmed_types.add(folded)
    return NovelFormReport(
        novel_tokens=len(items),
        novel_types=len(novel_types),
        confirmed_by_reference=len(confirmed_types),
        items=tuple(items),
    )

