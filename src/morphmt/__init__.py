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
        "GermanFeatureSeq",
        "MalformedAnalysis",
        "MalformedTag",
        "StemSegment",
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
        "generate",
        "generate_with_fallback",
        "load_lexicon",
    ),
    "interleave": (
        "LengthMismatch",
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
    "compounds": ("split_compound",),
    "backend": (
        "BackendFailure",
        "translate_external",
    ),
    "pipeline": (
        "ParallelCorpus",
        "PipelineConfig",
        "PostprocessResult",
        "PreparedVariant",
        "filter_corpus",
        "postprocess",
        "prepare_variant",
    ),
    "evaluation": (
        "EmptyCorpus",
        "NovelFormReport",
        "bleu",
        "novel_forms",
    ),
}
_ORIGIN = {name: module for module, names in _REEXPORTS.items() for name in names}


class Record:
    """Base of the value types: a record's fields are its ``__init__`` parameters.

    Unlike ``@dataclass``, a class statement generates no code at import.
    Records of one class are equal when their fields are, and ``repr``
    shows them; a parameter named with a leading underscore is left out
    of both.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            params = code.co_varnames[1 : code.co_argcount]
            cls._fields = tuple(name for name in params if not name.startswith("_"))

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._asdict() == other._asdict()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record that rejects assignment: ``__init__`` sets fields with ``object.__setattr__``."""

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, name) for name in self._fields]))


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
