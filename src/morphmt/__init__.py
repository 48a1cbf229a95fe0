"""morphmt: two-step morphology-aware MT corpus processing.

Translation systems for richly inflecting target languages are trained
on sequences of interleaved morphological tags and lemmas (or stems)
instead of surface text; after translation, a deterministic generation
step turns the predicted (tag, lemma) pairs back into inflected surface
forms, falling back to the bare lemma when generation fails.  This
package provides the corpus machinery around that idea: tag formats,
a paradigm lexicon with analysis and generation, sentence encodings,
BPE segmentation, German compound splitting and merging, the end-to-end
pipeline, and evaluation utilities.

The names below are resolved on first access (PEP 562), so ``import
morphmt`` loads no submodule, and a name loads only the module that
defines it.
"""

import importlib

__version__ = "0.1.0"

# The names each submodule re-exports.
_REEXPORTS = {
    "tagsets": (
        "GermanAnalysis",
        "GermanFeatureSeq",
        "MalformedAnalysis",
        "MalformedTag",
        "MorphAnalysis",
        "PositionalTag",
        "StemSegment",
        "format_analysis",
        "format_tag",
        "parse_czech_tag",
        "parse_german_analysis",
    ),
    "morphlex": (
        "Diagnostics",
        "GenerationFailure",
        "LexiconConflict",
        "LexiconParse",
        "NoCompatibleAnalysis",
        "ParadigmLexicon",
        "analyze",
        "disambiguate",
        "generate",
        "generate_with_fallback",
        "load_lexicon",
    ),
    "interleave": (
        "InterleavedSentence",
        "LengthMismatch",
        "WellformednessError",
        "decode",
        "encode",
        "tag_source",
    ),
    "bpe": (
        "DanglingMarker",
        "MergeTable",
        "VocabReport",
        "apply_bpe",
        "learn_bpe",
        "revert_bpe",
        "vocab_stats",
        "word_end_fragment_stats",
    ),
    "compounds": (
        "CompoundSplit",
        "merge_compound",
        "split_compound",
    ),
    "pipeline": (
        "BackendFailure",
        "ParallelCorpus",
        "PipelineConfig",
        "PostprocessResult",
        "PreparedVariant",
        "filter_corpus",
        "postprocess",
        "prepare_variant",
        "translate_external",
    ),
    "evaluation": (
        "EmptyCorpus",
        "NovelFormReport",
        "bleu",
        "novel_forms",
        "wellformedness",
    ),
}
_ORIGIN = {name: module for module, names in _REEXPORTS.items() for name in names}

__all__ = [*_ORIGIN, *_REEXPORTS]


def __getattr__(name: str):
    if name in _REEXPORTS:  # a submodule
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
