"""Seeded generators for the benchmark's lexicons, corpora and backend output.

Every function takes a ``random.Random`` and returns plain data; the same
seed gives the same bytes.  The data imitates what the toolkit meets in
practice rather than what makes it look good:

* Czech positional-tag paradigms with real syncretism (one surface, many
  tags), lemmas of 1-16 characters, some of them ASCII-only.  A 15-letter
  ASCII lemma is read as a tag by the seed code (ROADMAP 4a); such lemmas
  occur at whatever rate the lemma model produces and are never filtered.
* Token frequencies follow Zipf's law, and shorter lemmas tend to be more
  frequent (Zipf's law of abbreviation), as in real text.
* German stem+feature paradigms with compounds, ``@mod`` rows, merged-form
  rows and ambiguous adjective endings, plus per-token parse tags.
* A noisy backend: a fixed share of lines gets one of five repairable
  defects, and the count of each kind is returned.
"""

from __future__ import annotations

import bisect
import itertools
import random

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

_CZ_CONSONANTS = "bcdfghjklmnprstvz"
_CZ_CONSONANTS_DIACRITIC = "čďňřšťž"
_CZ_VOWELS = "aeiouy"
_CZ_VOWELS_DIACRITIC = "áéěíóúůý"
# Probability that one letter carries a diacritic.  At 0.1 about a fifth of
# 15-letter lemmas come out ASCII-only.
_DIACRITIC_RATE = 0.1


def _czech_word(rng: random.Random, length: int) -> str:
    """Consonant-vowel text of exactly ``length`` letters."""
    letters = []
    for i in range(length):
        vowel = i % 2 == 1 or (i == 0 and rng.random() < 0.3)
        if vowel:
            pool = _CZ_VOWELS_DIACRITIC if rng.random() < _DIACRITIC_RATE else _CZ_VOWELS
        else:
            pool = _CZ_CONSONANTS_DIACRITIC if rng.random() < _DIACRITIC_RATE else _CZ_CONSONANTS
        letters.append(rng.choice(pool))
    return "".join(letters)


def _length(rng: random.Random, low: int, high: int, mode: int) -> int:
    return min(high, max(low, round(rng.triangular(low, high, mode))))


def zipf_cum_weights(n: int) -> list[float]:
    """Cumulative Zipf weights (1/rank) for ranks 1..n."""
    return list(itertools.accumulate(1.0 / r for r in range(1, n + 1)))


def _zipf_pick(rng: random.Random, items: list, cum: list[float]):
    return items[bisect.bisect(cum, rng.random() * cum[-1])]


def _rank_by_length(rng: random.Random, words: list, key) -> list:
    """Order words so that shorter ones tend to get the frequent ranks."""
    return sorted(words, key=lambda w: len(key(w)) + rng.gauss(0.0, 3.0))


def sentence_length(rng: random.Random, mean: int, maxlen: int) -> int:
    """Lengths from 3 up to 1.5 x ``maxlen``; about a tenth exceed ``maxlen``."""
    return max(3, min(int(maxlen * 1.5), round(rng.lognormvariate(0, 0.45) * mean)))


# ---------------------------------------------------------------------------
# Czech
# ---------------------------------------------------------------------------

# Hard-declension endings by gender, singular cases 1-7 then plural 1-7.
_CZ_NOUN_ENDINGS = {
    "F": ("a", "y", "ě", "u", "o", "ě", "ou", "y", "", "ám", "y", "y", "ách", "ami"),
    "M": ("", "a", "ovi", "a", "e", "ovi", "em", "i", "ů", "ům", "y", "i", "ech", "y"),
    "I": ("", "u", "u", "", "e", "u", "em", "y", "ů", "ům", "y", "y", "ech", "y"),
    "N": ("o", "a", "u", "o", "o", "ě", "em", "a", "", "ům", "a", "a", "ech", "y"),
}
_CZ_ADJ_ENDINGS = {
    "M": ("ý", "ého", "ému", "ého", "ý", "ém", "ým", "í", "ých", "ým", "é", "í", "ých", "ými"),
    "I": ("ý", "ého", "ému", "ý", "ý", "ém", "ým", "é", "ých", "ým", "é", "é", "ých", "ými"),
    "F": ("á", "é", "é", "ou", "á", "é", "ou", "é", "ých", "ým", "é", "é", "ých", "ými"),
    "N": ("é", "ého", "ému", "é", "é", "ém", "ým", "á", "ých", "ým", "á", "á", "ých", "ými"),
}
_CZ_VERB_FORMS = (
    ("VB-S---1P-AA---", "ám"),
    ("VB-S---2P-AA---", "áš"),
    ("VB-S---3P-AA---", "á"),
    ("VB-P---1P-AA---", "áme"),
    ("VB-P---2P-AA---", "áte"),
    ("VB-P---3P-AA---", "ají"),
    ("Vf--------A----", "at"),
    ("VpYS---XR-AA---", "al"),
    ("VpQW---XR-AA---", "ala"),
    ("VpNS---XR-AA---", "alo"),
    ("VpMP---XR-AA---", "ali"),
)
# Function words keep fixed, real spellings.  Tags use only letters, digits,
# ':' and '-', the alphabet the tag parser accepts; PDT tags with other
# characters (ROADMAP 4b) make the whole lexicon fail to load, so they
# would fail every line rather than measure anything.
_CZ_PREPOSITIONS = (("v", "6"), ("na", "4"), ("s", "7"), ("z", "2"), ("k", "3"),
                    ("do", "2"), ("od", "2"), ("pro", "4"), ("po", "6"), ("o", "6"),
                    ("za", "4"), ("před", "7"), ("při", "6"), ("bez", "2"), ("mezi", "7"))
_CZ_CONJUNCTIONS = ("a", "i", "ale", "nebo", "že", "když", "aby", "protože")
_CZ_PUNCT_TAG = "Z:-------------"


def _cz_noun_tag(gender: str, number: str, case: int) -> str:
    return f"NN{gender}{number}{case}-----A----"


def _cz_adj_tag(gender: str, number: str, case: int) -> str:
    return f"AA{gender}{number}{case}----1A----"


class CzechLexicon:
    """Paradigms of generated Czech lemmas in Zipf rank order.

    ``paradigms`` holds one (lemma, [(tag, surface), ...]) per lemma, most
    frequent first; ``rows`` is every lexicon row.
    """

    def __init__(self, paradigms: list[tuple[str, list[tuple[str, str]]]]):
        self.paradigms = paradigms
        self.rows = [(lemma, tag, surface) for lemma, forms in paradigms for tag, surface in forms]
        self.cum = zipf_cum_weights(len(paradigms))

    def to_tsv(self) -> str:
        head = "# generated Czech paradigm lexicon: lemma<TAB>tag<TAB>surface\n"
        return head + "".join(f"{l}\t{t}\t{s}\n" for l, t, s in self.rows)


def czech_lexicon(rng: random.Random, n_lemmas: int) -> CzechLexicon:
    """Nouns, adjectives and verbs (2:1:1), plus fixed function words."""
    seen: set[str] = set()
    content: list[tuple[str, list[tuple[str, str]]]] = []
    while len(content) < n_lemmas:
        kind = rng.choice("NNAV")
        if kind == "N":
            gender = rng.choice("FMIN")
            endings = _CZ_NOUN_ENDINGS[gender]
            stem = _czech_word(rng, _length(rng, 2, 16 - len(endings[0]), 6))
            lemma = stem + endings[0]
            forms = [
                (_cz_noun_tag(gender, "SP"[i // 7], i % 7 + 1), stem + ending)
                for i, ending in enumerate(endings)
            ]
        elif kind == "A":
            stem = _czech_word(rng, _length(rng, 2, 15, 6))
            lemma = stem + "ý"
            forms = [
                (_cz_adj_tag(gender, "SP"[i // 7], i % 7 + 1), stem + ending)
                for gender, endings in _CZ_ADJ_ENDINGS.items()
                for i, ending in enumerate(endings)
            ]
        else:
            stem = _czech_word(rng, _length(rng, 1, 14, 5))
            lemma = stem + "at"
            forms = [(tag, stem + ending) for tag, ending in _CZ_VERB_FORMS]
        if lemma in seen:
            continue
        seen.add(lemma)
        content.append((lemma, forms))
    ranked = _rank_by_length(rng, content, key=lambda p: p[0])
    function_words = [(w, [(f"RR--{case}----------", w)]) for w, case in _CZ_PREPOSITIONS]
    function_words += [(w, [("J1-------------", w)]) for w in _CZ_CONJUNCTIONS]
    function_words += [(p, [(_CZ_PUNCT_TAG, p)]) for p in (".", ",", "?", "!", ";", ":")]
    # Function words are the most frequent types of real text; interleave
    # them into the top ranks.
    rng.shuffle(function_words)
    return CzechLexicon(function_words + ranked)


def czech_sentences(
    rng: random.Random, lex: CzechLexicon, n: int, mean_len: int, maxlen: int
) -> list[list[tuple[str, str, str]]]:
    """``n`` sentences of (lemma, tag, surface) tokens ending in a full stop."""
    sentences = []
    for _ in range(n):
        length = sentence_length(rng, mean_len, maxlen)
        tokens = []
        for _ in range(length - 1):
            lemma, forms = _zipf_pick(rng, lex.paradigms, lex.cum)
            tag, surface = rng.choice(forms)
            tokens.append((lemma, tag, surface))
        tokens.append((".", _CZ_PUNCT_TAG, "."))
        sentences.append(tokens)
    return sentences


def english_source(rng: random.Random, targets: list[list], n_types: int = 2500) -> list[str]:
    """Aligned English-like source lines of about the target length."""
    words = sorted(
        {_czech_word(rng, _length(rng, 1, 12, 4)).translate(_ASCII) for _ in range(n_types)}
    )
    words = _rank_by_length(rng, words, key=lambda w: w)
    cum = zipf_cum_weights(len(words))
    lines = []
    for target in targets:
        length = max(1, len(target) + rng.randint(-3, 3))
        lines.append(" ".join([_zipf_pick(rng, words, cum) for _ in range(length - 1)] + ["."]))
    return lines


_ASCII = str.maketrans("čďňřšťžáéěíóúůý", "cdnrstzaeeiouuy")


# ---------------------------------------------------------------------------
# Noisy backend output
# ---------------------------------------------------------------------------

PERTURBATIONS = ("dropped-tag", "duplicated-tag", "oov-lemma", "foreign-tag", "dangling-marker")


def perturb_morphgen(
    rng: random.Random,
    streams: list[list[str]],
    share: float,
) -> tuple[list[list[str]], list[str | None], dict[str, int]]:
    """Damage ``share`` of the TAG-lemma streams, one defect per damaged line.

    Returns the streams (dangling markers are added later, after BPE), the
    defect kind per line (``None`` for clean lines) and the count per kind.
    Out-of-lexicon lemmas contain ``q`` and ``w``, letters the generated
    lexicon never uses; foreign tags are taken from another part of speech,
    so they lie outside the lemma's paradigm.
    """
    noun_tag, verb_tag = "NNFS2-----A----", "VB-S---3P-AA---"
    out, kinds = [], []
    counts = dict.fromkeys(PERTURBATIONS, 0)
    for stream in streams:
        if rng.random() >= share:
            out.append(stream)
            kinds.append(None)
            continue
        kind = rng.choice(PERTURBATIONS)
        counts[kind] += 1
        kinds.append(kind)
        stream = list(stream)
        pair = 2 * rng.randrange(len(stream) // 2)
        if kind == "dropped-tag":
            del stream[pair]
        elif kind == "duplicated-tag":
            stream.insert(pair, stream[pair])
        elif kind == "oov-lemma":
            stream[pair + 1] = "qw" + _czech_word(rng, rng.randint(1, 10))
        elif kind == "foreign-tag":
            stream[pair] = verb_tag if stream[pair].startswith("N") else noun_tag
        out.append(stream)
    return out, kinds, counts


# ---------------------------------------------------------------------------
# German
# ---------------------------------------------------------------------------

_DE_CASES = ("Nom", "Acc", "Dat", "Gen")
_DE_LETTERS = "bdfghklmnprstwz"
_DE_VOWELS = "aeiou"
_DE_UMLAUT = {"a": "ä", "o": "ö", "u": "ü"}


def _de_stem(rng: random.Random, length: int) -> str:
    letters = [
        rng.choice(_DE_VOWELS if i % 2 else _DE_LETTERS) for i in range(length)
    ]
    if rng.random() < 0.15:
        letters[1] = _DE_UMLAUT.get(letters[1], letters[1])
    return "".join(letters)


def _de_noun_forms(gender: str, base: str) -> list[tuple[str, str]]:
    """(feature sequence, surface) for 4 cases x 2 numbers, with syncretism."""
    forms = []
    for number in ("Sg", "Pl"):
        for case in _DE_CASES:
            if gender == "Fem":
                surface = base if number == "Sg" else base + "en"
            elif number == "Sg":
                surface = base + "es" if case == "Gen" else base
            else:
                surface = base + "en" if case == "Dat" else base + "e"
            forms.append((f"<+NN><{gender}><{case}><{number}><NA>", surface))
    return forms


# Adjective endings: (gender, case, number, strength) -> ending.  The "-en"
# form alone covers nine analyses, as in the paper's worked example.
_DE_ADJ_FORMS = (
    ("Masc", "Nom", "Sg", "St", "er"), ("Masc", "Acc", "Sg", "NA", "en"),
    ("Masc", "Gen", "Sg", "NA", "en"), ("Neut", "Nom", "Sg", "St", "es"),
    ("Neut", "Dat", "Sg", "St", "em"), ("Neut", "Gen", "Sg", "NA", "en"),
    ("Fem", "Nom", "Sg", "Wk", "e"), ("Fem", "Gen", "Sg", "Wk", "en"),
    ("NoGend", "Dat", "Sg", "Wk", "en"), ("NoGend", "Nom", "Pl", "Wk", "en"),
    ("NoGend", "Acc", "Pl", "Wk", "en"), ("NoGend", "Gen", "Pl", "Wk", "en"),
    ("NoGend", "Dat", "Pl", "NA", "en"), ("NoGend", "Nom", "Pl", "St", "e"),
)
_DE_VERB_FORMS = (
    ("<+V><1><Sg><Pres><Ind>", "e"), ("<+V><2><Sg><Pres><Ind>", "st"),
    ("<+V><3><Sg><Pres><Ind>", "t"), ("<+V><1><Pl><Pres><Ind>", "en"),
    ("<+V><3><Pl><Pres><Ind>", "en"), ("<+V><3><Sg><Past><Ind>", "te"),
    ("<+V><Inf>", "en"), ("<+V><PPast>", "t"),
)
_DE_ARTICLES = (
    ("<+ART><Masc><Nom><Sg><St>", "der"), ("<+ART><Masc><Acc><Sg><St>", "den"),
    ("<+ART><Masc><Dat><Sg><St>", "dem"), ("<+ART><Masc><Gen><Sg><St>", "des"),
    ("<+ART><Fem><Nom><Sg><St>", "die"), ("<+ART><Fem><Acc><Sg><St>", "die"),
    ("<+ART><Fem><Dat><Sg><St>", "der"), ("<+ART><Fem><Gen><Sg><St>", "der"),
    ("<+ART><Neut><Nom><Sg><St>", "das"), ("<+ART><Neut><Acc><Sg><St>", "das"),
    ("<+ART><Neut><Dat><Sg><St>", "dem"), ("<+ART><Neut><Gen><Sg><St>", "des"),
)
_DE_BARE = (
    ("und", "KON"), ("oder", "KON"), ("aber", "KON"), ("hier", "ADV"), ("auch", "ADV"),
    ("nicht", "PTKNEG"), ("man", "PIS"), ("von", "APPR-Dat"), ("mit", "APPR-Dat"),
    ("aus", "APPR-Dat"), ("für", "APPR-Acc"), ("durch", "APPR-Acc"),
)
_DE_LINKS = ("", "", "s", "es", "en", "er")


def _parse_tag(features: str) -> str:
    """The context parse tag a tagger would give a token with these features."""
    values = features.strip("<>").split("><")
    head = values[0]
    if head == "+V":
        if values[1] == "Inf":
            return "VVINF"
        if values[1] == "PPast":
            return "VVPP"
        return f"VVFIN-{values[2]}"
    gender, case, number = values[-4], values[-3], values[-2]
    pos = {"+NN": "NN", "+ADJ": "ADJA", "+ART": "ART"}[head]
    if gender == "NoGend":
        return f"{pos}-{case}.{number}"
    return f"{pos}-{case}.{number}.{gender}"


class GermanLexicon:
    """German rows plus the (lemma, features, surface) pools sentences draw on."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, str, str]] = []
        self.modifiers: list[tuple[str, str]] = []
        # (stem lemma, features, surface) per generated word, by part of speech.
        self.nouns: list[list[tuple[str, str, str]]] = []
        self.compounds: list[list[tuple[str, str, str]]] = []
        self.adjectives: list[list[tuple[str, str, str]]] = []
        self.verbs: list[list[tuple[str, str, str]]] = []

    def to_tsv(self) -> str:
        head = "# generated German lexicon: stem<TAB>features<TAB>surface\n"
        rows = "".join(f"{l}\t{t}\t{s}\n" for l, t, s in self.rows)
        mods = "".join(f"@mod\t{m}\t{f}\n" for m, f in self.modifiers)
        return head + rows + mods


def german_lexicon(
    rng: random.Random, n_nouns: int, n_compounds: int, n_adjectives: int, n_verbs: int
) -> GermanLexicon:
    """Nouns, compounds of two or three nouns, adjectives, verbs and closed classes.

    Each compound has a markup-form row per form (``Meer<NN>Boden``) and a
    merged-form row (``Meeresboden``), the key generation uses after
    compound merging.  Modifiers with a linking element or umlaut get an
    ``@mod`` row; about half of those without one get none, which the merge
    step reports as an unknown modifier but still joins correctly.
    """
    lex = GermanLexicon()
    seen: set[str] = set()

    def fresh(length_low: int, length_high: int) -> str:
        while True:
            stem = _de_stem(rng, rng.randint(length_low, length_high))
            if stem not in seen:
                seen.add(stem)
                return stem

    genders = []
    for _ in range(n_nouns):
        lemma = fresh(3, 9).capitalize()
        gender = rng.choice(("Masc", "Fem", "Neut"))
        genders.append((lemma, gender))
        lex.nouns.append([(lemma, f, s) for f, s in _de_noun_forms(gender, lemma)])
    modifier_form: dict[str, str] = {}
    for lemma, _ in genders:
        link = rng.choice(_DE_LINKS)
        if link == "er" and lemma[1] in _DE_UMLAUT:
            form = lemma[0] + _DE_UMLAUT[lemma[1]] + lemma[2:] + "er"
        else:
            form = lemma + link
        modifier_form[lemma] = form
        if form != lemma or rng.random() < 0.5:
            lex.modifiers.append((lemma, form))
    made: set[tuple[str, ...]] = set()
    while len(lex.compounds) < n_compounds:
        parts = tuple(rng.choice(genders) for _ in range(rng.choice((2, 2, 2, 3))))
        names = tuple(p[0] for p in parts)
        if names in made or len(set(names)) != len(names):
            continue
        made.add(names)
        markup = "<NN>".join(names)
        merged = modifier_form[names[0]] + "".join(
            modifier_form[n].lower() for n in names[1:-1]
        ) + names[-1].lower()
        gender = parts[-1][1]
        forms = _de_noun_forms(gender, merged)
        lex.compounds.append([(markup, f, s) for f, s in forms])
        lex.rows += [(merged, f, s) for f, s in forms]
    for _ in range(n_adjectives):
        stem = fresh(3, 8)
        lex.adjectives.append(
            [(stem, f"<+ADJ><Pos><{g}><{c}><{n}><{st}>", stem + e) for g, c, n, st, e in _DE_ADJ_FORMS]
        )
    for _ in range(n_verbs):
        stem = fresh(2, 6)
        lex.verbs.append([(stem + "en", f, stem + e) for f, e in _DE_VERB_FORMS])
    for group in lex.nouns + lex.compounds + lex.adjectives + lex.verbs:
        lex.rows += group
    lex.rows += [("die<Def>", f, s) for f, s in _DE_ARTICLES]
    lex.rows += [(w, f"[{t}]", w) for w, t in _DE_BARE]
    lex.rows += [(".", "[$]", "."), (",", "[$]", ",")]
    return lex


def german_sentences(
    rng: random.Random, lex: GermanLexicon, n: int, mean_len: int
) -> list[list[tuple[str, str]]]:
    """Sentences of (surface, parse tag) tokens; about one noun in three is a compound."""
    pools = {
        "noun": (lex.nouns, zipf_cum_weights(len(lex.nouns))),
        "compound": (lex.compounds, zipf_cum_weights(len(lex.compounds))),
        "adjective": (lex.adjectives, zipf_cum_weights(len(lex.adjectives))),
        "verb": (lex.verbs, zipf_cum_weights(len(lex.verbs))),
    }
    kinds = ("article", "noun", "noun", "compound", "adjective", "verb", "bare", "bare", "comma")
    sentences = []
    for _ in range(n):
        length = sentence_length(rng, mean_len, 3 * mean_len)
        tokens = []
        for _ in range(length - 1):
            kind = rng.choice(kinds)
            if kind == "bare":
                word, tag = rng.choice(_DE_BARE)
                tokens.append((word, tag))
            elif kind == "comma":
                tokens.append((",", "$,"))
            elif kind == "article":
                features, surface = rng.choice(_DE_ARTICLES)
                tokens.append((surface, _parse_tag(features)))
            else:
                groups, cum = pools[kind]
                _, features, surface = rng.choice(_zipf_pick(rng, groups, cum))
                tokens.append((surface, _parse_tag(features)))
        tokens.append((".", "$."))
        sentences.append(tokens)
    return sentences
