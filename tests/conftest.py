"""Shared fixtures: toy lexicons and the worked example sentences."""

from pathlib import Path

import pytest

from morphmt import morphlex

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# English-Czech worked example: one sentence in all representations.
FIG1_SOURCE = "there are a million different kinds of pizza ."
FIG1_SURFACE = "existují miliony druhů pizzy ."
FIG1_MORPHGEN = (
    "VB-P---3P-AA--- existovat NNIP1-----A---- milión NNIP2-----A---- druh "
    "NNFS2-----A---- pizza Z:------------- ."
)
FIG1_SERIALIZATION = (
    "VB-P---3P-AA--- existují NNIP1-----A---- miliony NNIP2-----A---- druhů "
    "NNFS2-----A---- pizzy Z:------------- ."
)
FIG1_BASELINE_BPE = "existují miliony druhů piz@@ zy ."

# English-German worked example: 21 words, (stemmed representation, surface).
TABLE1_ROWS = [
    ("und[KON]", "und"),
    ("hier[ADV]", "hier"),
    ("sehen||<+V><3><Sg><Pres><Ind>", "sieht"),
    ("man[PIS]", "man"),
    ("eine<Indef>||<+ART><Fem><Acc><Sg><St>", "eine"),
    ("Wolke||<+NN><Fem><Acc><Sg><NA>", "Wolke"),
    ("von[APPR-Dat]", "von"),
    ("dicht<Pos>||<+ADJ><Neut><Dat><Sg><St>", "dichtem"),
    ("Hydrogen<NN>Sulfid<NN>reich<Pos>||<+ADJ><Neut><Dat><Sg><St>", "hydrogensulfid-reichem"),
    ("Wasser||<+NN><Neut><Dat><Sg><NA>", "Wasser"),
    (",[$]", ","),
    ("das[PRELS]", "das"),
    ("aus[APPR-Dat]", "aus"),
    ("eine<Indef>||<+ART><Fem><Dat><Sg><St>", "einer"),
    ("vulkanisch||<+ADJ><Pos><NoGend><Dat><Sg><Wk>", "vulkanischen"),
    ("längs<ADJ>Achse||<+NN><Fem><Dat><Sg><NA>", "Längsachse"),
    ("an[APPR-Dat]", "an"),
    ("die<Def>||<+ART><Masc><Dat><Sg><St>", "dem"),
    ("Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>", "Meeresboden"),
    ("treten||<+V><3><Sg><Pres><Ind>", "tritt"),
    (".[$]", "."),
]

# Per-word parse tags of the same sentence, used for disambiguation.
TABLE1_PARSE_TAGS = [
    "KON",
    "ADV",
    "VVFIN-Sg",
    "PIS-Nom.Sg",
    "ART-Acc.Sg.Fem",
    "NN-Acc.Sg.Fem",
    "APPR-Dat",
    "ADJA-Dat.Sg.Neut",
    "ADJA-Dat.Sg.Neut",
    "NN-Dat.Sg.Neut",
    "$,",
    "PRELS-Nom.Sg.Neut",
    "APPR-Dat",
    "ART-Dat.Sg.Fem",
    "ADJA-Dat.Sg.Fem",
    "NN-Dat.Sg.Fem",
    "APPR-Dat",
    "ART-Dat.Sg.Masc",
    "NN-Dat.Sg.Masc",
    "VVFIN-Sg",
    "$.",
]

# The nine candidate analyses of "vulkanischen" (strength-less rows carry
# the mandatory NA dummy), in the canonical order produced by analyze.
VULKANISCH_CANDIDATES = [
    "<+ADJ><Pos><Fem><Gen><Sg><Wk>",
    "<+ADJ><Pos><Masc><Acc><Sg><NA>",
    "<+ADJ><Pos><Masc><Gen><Sg><NA>",
    "<+ADJ><Pos><Neut><Gen><Sg><NA>",
    "<+ADJ><Pos><NoGend><Acc><Pl><Wk>",
    "<+ADJ><Pos><NoGend><Dat><Pl><NA>",
    "<+ADJ><Pos><NoGend><Dat><Sg><Wk>",
    "<+ADJ><Pos><NoGend><Gen><Pl><Wk>",
    "<+ADJ><Pos><NoGend><Nom><Pl><Wk>",
]


def lexicon_rows(name):
    """The rows of a lexicon under ``data/``, ``@mod`` rows included."""
    text = (DATA_DIR / name).read_text(encoding="utf-8")
    return [line.split("\t") for line in text.split("\n") if line and not line.startswith("#")]


def entry_rows(name):
    """The lemma, tag, surface rows of a lexicon under ``data/``, in file order."""
    return [row for row in lexicon_rows(name) if row[0] != "@mod"]


@pytest.fixture(scope="session")
def czech_lexicon():
    return morphlex.load_lexicon((DATA_DIR / "czech_toy.tsv").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def german_lexicon():
    return morphlex.load_lexicon((DATA_DIR / "german_toy.tsv").read_text(encoding="utf-8"))
