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
"""

__version__ = "0.1.0"

from .tagsets import (  # noqa: F401
    GermanAnalysis,
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    MorphAnalysis,
    PositionalTag,
    StemSegment,
    format_analysis,
    format_tag,
    parse_czech_tag,
    parse_german_analysis,
)
from .morphlex import (  # noqa: F401
    Diagnostics,
    GenerationFailure,
    LexiconConflict,
    LexiconParse,
    NoCompatibleAnalysis,
    ParadigmLexicon,
    analyze,
    disambiguate,
    generate,
    generate_with_fallback,
    load_lexicon,
)
from .interleave import (  # noqa: F401
    InterleavedSentence,
    LengthMismatch,
    WellformednessError,
    decode,
    encode,
    tag_source,
)
from .bpe import (  # noqa: F401
    DanglingMarker,
    MergeTable,
    VocabReport,
    apply_bpe,
    learn_bpe,
    revert_bpe,
    vocab_stats,
    word_end_fragment_stats,
)
from .compounds import (  # noqa: F401
    CompoundSplit,
    merge_compound,
    split_compound,
)
from .pipeline import (  # noqa: F401
    BackendFailure,
    ParallelCorpus,
    PipelineConfig,
    PostprocessResult,
    PreparedVariant,
    filter_corpus,
    postprocess,
    prepare_variant,
    translate_external,
)
from .evaluation import (  # noqa: F401
    EmptyCorpus,
    NovelFormReport,
    bleu,
    novel_forms,
    wellformedness,
)
