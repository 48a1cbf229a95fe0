"""The three workloads: their inputs, their CLI stages and their correctness checks.

A workload is one closed-loop client running one batch job: its stages run
one after another, each reading the files the previous one wrote.  Every
stage reads all of its input before writing, so this is equivalent to
piping the stages together.

* ``cs-prepare``: ``prepare --mode morphgen --protect-tags --filter`` on a
  Zipfian Czech corpus with an aligned source side.  The training-data
  path, and the only workload dominated by ``bpe.learn_bpe``.
* ``cs-postprocess``: ``postprocess --mode morphgen`` and ``bleu`` on noisy,
  test-set-sized backend output with a lexicon three times larger.  The
  step users rerun for every system output; dominated by lexicon loading
  and the per-line decode/generate/repair path.  No BPE is learned or
  applied inside its stages.
* ``de-split-roundtrip``: ``prepare --mode german-stemmed-split
  --parse-tags --protect-tags``, ``translate --backend cat`` and
  ``postprocess`` on compound-rich German.  The only workload that parses
  German feature sequences, disambiguates, splits and merges compounds and
  runs a backend process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import gen

# The alphabet of positional tags accepted by the seed's tag parser.  A
# lemma of exactly 15 such characters is read as a tag (ROADMAP 4a).
_TAG_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:-")
DEFECT_4A = "ROADMAP-4a lemma read as tag"


def _reads_as_tag(lemma: str) -> bool:
    return len(lemma) == 15 and set(lemma) <= _TAG_CHARS


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _read(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n")[:-1]


@dataclass
class Stage:
    """One CLI invocation: ``morphmt <argv>``; stdout goes to ``stdout``."""

    command: str
    argv: list[str]
    stdout: Path


@dataclass
class CheckResult:
    """Per-line verdicts of one batch job's outputs."""

    lines: int = 0
    failed_lines: int = 0
    # Failing lines explained by a named known defect, by defect.
    known_defects: dict[str, int] = field(default_factory=dict)
    # Failures no known defect explains; any entry makes the run incorrect.
    unexplained: list[str] = field(default_factory=list)

    def fail(self, index: int, reason: str, defect: str | None) -> None:
        self.failed_lines += 1
        if defect is None:
            self.unexplained.append(f"line {index}: {reason}")
        else:
            self.known_defects[defect] = self.known_defects.get(defect, 0) + 1


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.stages: list[Stage] = []
        self.outputs: list[Path] = []
        self.sentences = 0
        self.info: dict = {}

    def path(self, name: str) -> Path:
        return self.work / name

    def setup(self, library) -> None:
        """Write the inputs and define the stages; ``library`` is the morphmt package."""
        raise NotImplementedError

    def check(self, library) -> CheckResult:
        raise NotImplementedError


class CsPrepare(Workload):
    name = "cs-prepare"
    LEMMAS = 1000
    SENTENCES = 1200
    MEAN_LEN = 18
    MAXLEN = 32
    MERGES = 60

    def setup(self, library) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        lex = gen.czech_lexicon(rng, self.LEMMAS)
        self.corpus = gen.czech_sentences(rng, lex, self.SENTENCES, self.MEAN_LEN, self.MAXLEN)
        self.source = gen.english_source(rng, self.corpus)
        self.lexicon_text = lex.to_tsv()
        self.path("lexicon.tsv").write_text(self.lexicon_text, encoding="utf-8")
        _write(self.path("train.cs"), [" ".join(t[2] for t in s) for s in self.corpus])
        _write(self.path("train.en"), self.source)
        self.sentences = len(self.corpus)
        self.stages = [
            Stage("prepare", [
                "prepare", "--mode", "morphgen", "--lexicon", str(self.path("lexicon.tsv")),
                "--protect-tags", "--filter", "--maxlen", str(self.MAXLEN),
                "--merges", str(self.MERGES),
                "--source", str(self.path("train.en")), "--target", str(self.path("train.cs")),
                "--out-source", str(self.path("prep.en")), "--out-target", str(self.path("prep.cs")),
            ], self.path("prepare.stdout")),
        ]
        self.outputs = [self.path("prep.cs"), self.path("prep.en")]
        self.info = {"lexicon_rows": len(lex.rows), "filtered": sum(len(s) > self.MAXLEN for s in self.corpus)}

    def check(self, library) -> CheckResult:
        kept = [i for i, s in enumerate(self.corpus) if len(s) <= self.MAXLEN]
        targets, sources = _read(self.path("prep.cs")), _read(self.path("prep.en"))
        result = CheckResult(lines=len(self.corpus))
        if len(targets) != len(kept) or len(sources) != len(kept):
            result.unexplained.append(
                f"{len(targets)} target / {len(sources)} source lines for {len(kept)} kept pairs"
            )
            result.failed_lines = len(kept)
            return result
        # Round trip of the kept pairs: postprocess(prepare(x)) == x.
        lex = library.morphlex.load_lexicon(self.lexicon_text)
        cfg = library.pipeline.PipelineConfig.for_mode("morphgen")
        back = library.pipeline.postprocess(targets, cfg, lex).lines
        for k, i in enumerate(kept):
            sentence = self.corpus[i]
            if back[k] != " ".join(t[2] for t in sentence):
                defect = DEFECT_4A if any(_reads_as_tag(t[0]) for t in sentence) else None
                result.fail(i, "target does not round-trip", defect)
            elif sources[k].replace("@@ ", "") != self.source[i]:
                result.fail(i, "source side changed by BPE", None)
        return result


class CsPostprocess(Workload):
    name = "cs-postprocess"
    LEMMAS = 3000
    SENTENCES = 2000
    MEAN_LEN = 18
    BACKEND_MERGES = 20
    NOISY_SHARE = 0.1

    def setup(self, library) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        lex = gen.czech_lexicon(rng, self.LEMMAS)
        self.corpus = gen.czech_sentences(rng, lex, self.SENTENCES, self.MEAN_LEN, 3 * self.MEAN_LEN)
        streams = [[x for lemma, tag, _ in s for x in (tag, lemma)] for s in self.corpus]
        noisy, self.kinds, counts = gen.perturb_morphgen(rng, streams, self.NOISY_SHARE)
        # The backend's BPE, learned on a small budget with tags protected,
        # as ``prepare --protect-tags`` would.
        bpe, tagsets = library.bpe, library.tagsets
        table = bpe.learn_bpe((t for s in streams for t in s), self.BACKEND_MERGES)
        backend = []
        for stream, kind in zip(noisy, self.kinds):
            line = bpe.segment_line(table, " ".join(stream), tagsets.is_czech_tag)
            backend.append(line + "@@" if kind == "dangling-marker" else line)
        self.path("lexicon.tsv").write_text(lex.to_tsv(), encoding="utf-8")
        self.references = [" ".join(t[2] for t in s) for s in self.corpus]
        _write(self.path("backend.txt"), backend)
        _write(self.path("ref.cs"), self.references)
        self.sentences = len(self.corpus)
        self.stages = [
            Stage("postprocess", [
                "postprocess", "--mode", "morphgen", "--lexicon", str(self.path("lexicon.tsv")),
                "--jobs", "1", "-o", str(self.path("hyp.cs")), str(self.path("backend.txt")),
            ], self.path("postprocess.stdout")),
            Stage("bleu", [
                "bleu", "--manifest", str(self.path("bleu.manifest.json")),
                str(self.path("hyp.cs")), str(self.path("ref.cs")),
            ], self.path("bleu.stdout")),
        ]
        self.outputs = [self.path("hyp.cs"), self.path("bleu.stdout")]
        self.info = {"lexicon_rows": len(lex.rows), "perturbed": counts}

    def check(self, library) -> CheckResult:
        hyps = _read(self.path("hyp.cs"))
        result = CheckResult(lines=len(self.corpus))
        if len(hyps) != len(self.corpus):
            result.unexplained.append(f"{len(hyps)} output lines for {len(self.corpus)} inputs")
            result.failed_lines = len(self.corpus)
            return result
        for i, (hyp, ref, kind) in enumerate(zip(hyps, self.references, self.kinds)):
            # A damaged line only has to give a line; a clean one must
            # reproduce its reference.
            if kind is None and hyp != ref:
                defect = DEFECT_4A if any(_reads_as_tag(t[0]) for t in self.corpus[i]) else None
                result.fail(i, "clean line not reproduced", defect)
        score = _read(self.path("bleu.stdout"))
        try:
            ok = len(score) == 1 and 0.0 <= float(score[0]) <= 100.0
        except ValueError:
            ok = False
        if not ok:
            result.unexplained.append(f"bleu printed {score!r}")
        return result


class DeSplitRoundtrip(Workload):
    name = "de-split-roundtrip"
    NOUNS = 300
    COMPOUNDS = 200
    ADJECTIVES = 80
    VERBS = 80
    SENTENCES = 1500
    MEAN_LEN = 12
    MERGES = 20

    def setup(self, library) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        lex = gen.german_lexicon(rng, self.NOUNS, self.COMPOUNDS, self.ADJECTIVES, self.VERBS)
        corpus = gen.german_sentences(rng, lex, self.SENTENCES, self.MEAN_LEN)
        self.references = [" ".join(w for w, _ in s) for s in corpus]
        self.path("lexicon.tsv").write_text(lex.to_tsv(), encoding="utf-8")
        _write(self.path("train.de"), self.references)
        _write(self.path("train.parse"), [" ".join(t for _, t in s) for s in corpus])
        self.sentences = len(corpus)
        lexicon = str(self.path("lexicon.tsv"))
        self.stages = [
            Stage("prepare", [
                "prepare", "--mode", "german-stemmed-split", "--lexicon", lexicon,
                "--parse-tags", str(self.path("train.parse")), "--protect-tags",
                "--merges", str(self.MERGES), "--target", str(self.path("train.de")),
                "--out-target", str(self.path("prep.de")),
            ], self.path("prepare.stdout")),
            Stage("translate", [
                "translate", "--backend", "cat", "-o", str(self.path("trans.de")),
                str(self.path("prep.de")),
            ], self.path("translate.stdout")),
            Stage("postprocess", [
                "postprocess", "--mode", "german-stemmed-split", "--lexicon", lexicon,
                "--jobs", "1", "-o", str(self.path("out.de")), str(self.path("trans.de")),
            ], self.path("postprocess.stdout")),
        ]
        self.outputs = [self.path("out.de")]
        self.info = {"lexicon_rows": len(lex.rows), "modifiers": len(lex.modifiers)}

    def check(self, library) -> CheckResult:
        out = _read(self.path("out.de"))
        result = CheckResult(lines=len(self.references))
        if len(out) != len(self.references):
            result.unexplained.append(f"{len(out)} output lines for {len(self.references)} inputs")
            result.failed_lines = len(self.references)
            return result
        for i, (line, ref) in enumerate(zip(out, self.references)):
            if line != ref:
                result.fail(i, "does not round-trip", None)
        return result


WORKLOADS = {w.name: w for w in (CsPrepare, CsPostprocess, DeSplitRoundtrip)}
