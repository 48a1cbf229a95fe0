"""The lazy package namespace: the same public names, loaded on first use."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import morphmt

ROOT = Path(__file__).resolve().parent.parent

# What ``from morphmt import *`` bound when the package imported every
# submodule eagerly, the re-exported names and the submodules themselves,
# less the names deleted since (the German analysis record and its
# formatter, the positional-tag record, and the walk's error type).
PUBLIC_NAMES = {
    "tagsets": [
        "GermanFeatureSeq", "MalformedAnalysis", "MalformedTag", "StemSegment",
        "format_tag", "parse_czech_tag", "parse_german_analysis",
    ],
    "morphlex": [
        "Diagnostics", "GenerationFailure", "LexiconConflict", "LexiconParse",
        "NoCompatibleAnalysis", "ParadigmLexicon", "analyze", "generate",
        "generate_with_fallback", "load_lexicon",
    ],
    "interleave": ["LengthMismatch", "tag_source"],
    "bpe": [
        "DanglingMarker", "MergeTable", "VocabReport", "apply_bpe", "learn_bpe", "revert_bpe",
        "vocab_stats", "word_end_fragment_stats",
    ],
    "compounds": ["split_compound"],
    "backend": ["BackendFailure", "translate_external"],
    "pipeline": [
        "ParallelCorpus", "PipelineConfig", "PostprocessResult", "PreparedVariant",
        "filter_corpus", "postprocess", "prepare_variant",
    ],
    "evaluation": ["EmptyCorpus", "NovelFormReport", "bleu", "novel_forms"],
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
    assert fresh_modules("import morphmt; morphmt.bleu") == (
        "['morphmt', 'morphmt.conventions', 'morphmt.evaluation']"
    )
    assert fresh_modules("from morphmt import revert_bpe") == (
        "['morphmt', 'morphmt.bpe', 'morphmt.conventions']"
    )
    assert fresh_modules("from morphmt import translate_external") == (
        "['morphmt', 'morphmt.backend', 'morphmt.conventions']"
    )


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


def test_no_second_token_rule():
    # A line is cut into tokens by conventions.tokenize only, and trimmed of
    # conventions.TOKEN_SEPARATORS only: str.split(), str.strip(), lstrip()
    # and rstrip() with no argument also cut or trim U+0085, U+00A0, U+2028
    # and form feed, which str.isspace() also reads as space.
    bare_calls = []
    for path in sorted((ROOT / "src" / "morphmt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("split", "strip", "lstrip", "rstrip", "isspace")
                    and not node.args and not node.keywords):
                bare_calls.append(f"{path.name}:{node.lineno}")
    assert bare_calls == []


# Public definitions that nothing names: none is allowed.
UNNAMED_DEFINITIONS: set[str] = set()


def test_every_public_definition_is_named_elsewhere():
    # A public module-level function or class, or a public method of a
    # class, counts as used when code in src/ or perfbench/*.py names it:
    # a name, an attribute or an imported name, anywhere but its own def.
    named, defined = set(), {}
    paths = sorted((ROOT / "src" / "morphmt").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        if path.parent.name != "morphmt":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        defined[f"{path.stem}.{node.name}.{member.name}"] = member.name
    assert {where for where, name in defined.items() if name not in named} == UNNAMED_DEFINITIONS
