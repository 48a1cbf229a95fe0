"""The value types: equality, hashing, immutability, pickling and checks."""

import pickle
import subprocess
import sys

import pytest

from morphmt import (
    Diagnostics,
    GenerationFailure,
    GermanFeatureSeq,
    MalformedAnalysis,
    MalformedTag,
    MergeTable,
    NovelFormReport,
    ParallelCorpus,
    PipelineConfig,
    PostprocessResult,
    PreparedVariant,
    StemSegment,
    VocabReport,
    parse_czech_tag,
)
from morphmt.cli import RunManifest, _Result

TABLE = MergeTable((("a", "b"), ("ab", "c")))

# A factory per type, so each call builds a new, equal value.
FROZEN = {
    "GermanFeatureSeq": lambda: GermanFeatureSeq(("+NN", "Fem", "Acc", "Sg", "NA")),
    "StemSegment": lambda: StemSegment("Meer", "NN"),
    "GenerationFailure": lambda: GenerationFailure("Braper", "NNFS1-----A----", "unknown-lemma"),
    "MergeTable": lambda: MergeTable((("a", "b"), ("ab", "c"))),
    "VocabReport": lambda: VocabReport((("baseline", 3, 5),)),
    "NovelFormReport": lambda: NovelFormReport(1, 1, 0, (("neuwort", 0, False),)),
}
MUTABLE = {
    "Diagnostics": lambda: Diagnostics(
        lines=2, generated=1, fallbacks=[(0, GenerationFailure("x", "y", "unknown-lemma"))],
        repairs=[(1, 0, "dropped-tag")], errors=[(1, "tag-without-word", 0)],
        unknown_modifiers=[(0, "Meer")],
    ),
    "PipelineConfig": lambda: PipelineConfig.for_mode("german-stemmed-split", seed=3),
    "ParallelCorpus": lambda: ParallelCorpus([("a", "b"), ("c", "d")], [0, 2]),
    "PreparedVariant": lambda: PreparedVariant(ParallelCorpus([("a", "b")]), TABLE, TABLE, [(1, "x")]),
    "PostprocessResult": lambda: PostprocessResult(["a"], Diagnostics(lines=1)),
    "RunManifest": lambda: RunManifest("0.1.0", "bleu", {"smooth": False}, {"a": "0"}, {"n": 1}, 7),
    "_Result": lambda: _Result(["a"], {}, {"lines": 1}, notes=["note"], side_outputs=[("p", ["x"])]),
}
ALL = {**FROZEN, **MUTABLE}
# The first field of each type.
FIRST = {
    "GermanFeatureSeq": "values", "StemSegment": "lexeme",
    "GenerationFailure": "lemma", "MergeTable": "merges", "VocabReport": "rows",
    "NovelFormReport": "novel_tokens", "Diagnostics": "lines",
    "PipelineConfig": "mode", "ParallelCorpus": "pairs", "PreparedVariant": "corpus",
    "PostprocessResult": "lines", "RunManifest": "tool_version", "_Result": "lines",
}


@pytest.mark.parametrize("name", sorted(ALL))
def test_equal_values_are_equal(name):
    a, b = ALL[name](), ALL[name]()
    assert a == b and not a != b
    assert a != object() and a != tuple(vars(a).values())


@pytest.mark.parametrize("name", sorted(ALL))
def test_pickle_round_trip(name):
    value = ALL[name]()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy == value
    assert copy.__dict__.keys() == value.__dict__.keys()


@pytest.mark.parametrize("name", sorted(ALL))
def test_not_iterable_or_orderable(name):
    value = ALL[name]()
    with pytest.raises(TypeError):
        iter(value)
    with pytest.raises(TypeError):
        value < ALL[name]()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values_hash_equal_and_reject_assignment(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert hash(a) == hash(b) and len({a, b}) == 1
    field = FIRST[name]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_values_are_unhashable_and_assignable(name):
    a, b = MUTABLE[name](), MUTABLE[name]()
    with pytest.raises(TypeError):
        hash(a)
    setattr(a, FIRST[name], "changed")
    assert a != b


def test_unequal_fields_differ():
    assert StemSegment("Meer", "NN") != StemSegment("Meer")
    assert hash(StemSegment("Meer", "NN")) != hash(StemSegment("Meer", "ADJ"))
    assert Diagnostics() != Diagnostics(lines=1)

    class Failure(GenerationFailure):
        pass

    # Records of another class are unequal, whatever their fields.
    assert GenerationFailure("a", "b", "c") != Failure("a", "b", "c")


def test_defaults():
    assert GermanFeatureSeq(bare_tag="KON").values == ()
    assert StemSegment("und").markup is None
    assert Diagnostics() == Diagnostics(0, 0, [], [], [], [])
    assert Diagnostics().fallbacks is not Diagnostics().fallbacks
    assert PipelineConfig("baseline", 0, 5).snapshot() == {
        "mode": "baseline", "merges": 0, "maxlen": 5, "minlen": 1, "sample_size": None,
        "seed": 0, "protect_tags": False, "joint_bpe": True, "split_source_hyphens": False,
    }
    assert PreparedVariant(ParallelCorpus([]), TABLE, TABLE).dropped == []
    assert RunManifest("v", "c", {}, {}).to_json(compact=True) == (
        '{"command": "c", "config": {}, "counters": {}, "input_checksums": {}, '
        '"seed": null, "tool_version": "v"}'
    )
    result = _Result([], {}, {})
    assert (result.seed, result.notes, result.side_outputs) == (None, [], [])


def test_repr_lists_the_fields():
    assert repr(StemSegment("Meer", "NN")) == "StemSegment(lexeme='Meer', markup='NN')"
    assert repr(ParallelCorpus([("a", "b")], [3])) == "ParallelCorpus(pairs=[('a', 'b')])"
    # A feature sequence's kind is derived from its values, not a field.
    assert repr(GermanFeatureSeq(("+V", "Inf"))) == (
        "GermanFeatureSeq(values=('+V', 'Inf'), bare_tag='')"
    )


def test_caches_and_private_fields_stay_out_of_equality():
    used = MergeTable((("a", "b"),))
    vars(used)["_memo"][1]["ab"] = "ab"
    assert used == MergeTable((("a", "b"),)) and used.rank == {("a", "b"): 0}
    assert ParallelCorpus([("a", "b")], [4]) == ParallelCorpus([("a", "b")])


@pytest.mark.parametrize("build, error, message", [
    (lambda: parse_czech_tag("NNFS1"), MalformedTag,
     "positional tag must have 15 characters, got 5: 'NNFS1'"),
    (lambda: parse_czech_tag("C=-------------"), MalformedTag,
     "illegal character '=' at position 1 in tag 'C=-------------'"),
    (lambda: GermanFeatureSeq(), MalformedAnalysis,
     "bare feature sequence needs only a parse tag"),
    (lambda: GermanFeatureSeq(("+NN", "Fem", "Acc", "Sg", "Xx")), MalformedAnalysis,
     "bad or missing strength 'Xx'"),
    (lambda: MergeTable((("a", "b"), ("a", "b"))), ValueError, "duplicate pairs in merge table"),
    (lambda: PipelineConfig("nonsense", 0, 5), ValueError, "unknown mode 'nonsense'"),
    (lambda: PipelineConfig("baseline", 0, 3, minlen=5), ValueError,
     "need maxlen >= minlen >= 1, got 3 / 5"),
    (lambda: PipelineConfig("baseline", -1, 5), ValueError, "merges must be >= 0"),
    (lambda: PipelineConfig("baseline", 0, 5, sample_size=-1), ValueError,
     "sample_size must be >= 0"),
])
def test_checks_raise_as_before(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value).startswith(message)


def test_no_stage_imports_dataclasses():
    # Every CLI stage is a fresh process; generating dataclasses at import
    # cost each of them about 28 ms.
    code = (
        "import sys, morphmt.cli, morphmt.pipeline, morphmt.evaluation\n"
        "print('dataclasses' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
