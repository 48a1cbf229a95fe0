"""The lazy package namespace: the same public names, loaded on first use."""

import subprocess
import sys

import pytest

import morphmt

# What ``from morphmt import *`` bound when the package imported every
# submodule eagerly: the re-exported names and the submodules themselves.
PUBLIC_NAMES = {
    "tagsets": [
        "GermanAnalysis", "GermanFeatureSeq", "MalformedAnalysis", "MalformedTag",
        "MorphAnalysis", "PositionalTag", "StemSegment", "format_analysis", "format_tag",
        "parse_czech_tag", "parse_german_analysis",
    ],
    "morphlex": [
        "Diagnostics", "GenerationFailure", "LexiconConflict", "LexiconParse",
        "NoCompatibleAnalysis", "ParadigmLexicon", "analyze", "disambiguate", "generate",
        "generate_with_fallback", "load_lexicon",
    ],
    "interleave": [
        "InterleavedSentence", "LengthMismatch", "WellformednessError", "decode", "encode",
        "tag_source",
    ],
    "bpe": [
        "DanglingMarker", "MergeTable", "VocabReport", "apply_bpe", "learn_bpe", "revert_bpe",
        "vocab_stats", "word_end_fragment_stats",
    ],
    "compounds": ["CompoundSplit", "merge_compound", "split_compound"],
    "backend": ["BackendFailure", "translate_external"],
    "pipeline": [
        "ParallelCorpus", "PipelineConfig", "PostprocessResult", "PreparedVariant",
        "filter_corpus", "postprocess", "prepare_variant",
    ],
    "evaluation": ["EmptyCorpus", "NovelFormReport", "bleu", "novel_forms", "wellformedness"],
}
ALL_NAMES = {name for names in PUBLIC_NAMES.values() for name in names} | set(PUBLIC_NAMES)


def fresh_modules(code):
    """The morphmt modules loaded after running ``code`` in a new interpreter."""
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys; {code}; print(sorted(m for m in sys.modules if m.startswith('morphmt')))"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from morphmt import *", namespace)
    assert set(namespace) - {"__builtins__"} == ALL_NAMES


def test_dir_lists_the_public_names():
    assert ALL_NAMES <= set(dir(morphmt))


def test_each_name_is_the_defining_module_attribute():
    mismatched = [
        f"{module}.{name}" for module, names in PUBLIC_NAMES.items() for name in names
        if getattr(morphmt, name) is not getattr(getattr(morphmt, module), name)
    ]
    assert mismatched == []


def test_unknown_attribute():
    with pytest.raises(AttributeError, match=r"^module 'morphmt' has no attribute 'no_such_name'$"):
        morphmt.no_such_name


def test_import_loads_no_submodule():
    assert fresh_modules("import morphmt") == "['morphmt']"


def test_a_name_loads_only_its_module():
    assert fresh_modules("import morphmt; morphmt.bleu") == "['morphmt', 'morphmt.evaluation']"
    assert fresh_modules("from morphmt import revert_bpe") == (
        "['morphmt', 'morphmt.bpe', 'morphmt.conventions']"
    )
    assert fresh_modules("from morphmt import translate_external") == (
        "['morphmt', 'morphmt.backend', 'morphmt.conventions']"
    )


def test_pipeline_reexports_the_backend():
    import morphmt.backend
    import morphmt.pipeline

    for name in PUBLIC_NAMES["backend"]:
        assert name in morphmt.pipeline.__all__
        assert getattr(morphmt.pipeline, name) is getattr(morphmt.backend, name)


def test_pipeline_reexports_the_merge_budgets():
    import morphmt.conventions
    import morphmt.pipeline

    for name in ("CZECH_DEFAULT_MERGES", "GERMAN_DEFAULT_MERGES"):
        assert getattr(morphmt.pipeline, name) is getattr(morphmt.conventions, name)
        assert name not in morphmt.pipeline.__all__


def test_pipeline_import_leaves_subprocess_out():
    # Only a run of the backend imports subprocess.
    result = subprocess.run(
        [sys.executable, "-c", "import morphmt.pipeline, sys; print('subprocess' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
