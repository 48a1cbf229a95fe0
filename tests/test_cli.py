"""CLI subcommands: piping, manifests, config precedence, determinism."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morphmt import morphlex
from morphmt.cli import apply_config, build_parser, config_keys, main

from conftest import (
    DATA_DIR,
    FIG1_MORPHGEN,
    FIG1_SOURCE,
    FIG1_SURFACE,
)

CZECH_LEXICON = str(DATA_DIR / "czech_toy.tsv")
GERMAN_LEXICON = str(DATA_DIR / "german_toy.tsv")


@pytest.fixture
def run(monkeypatch, capsys):
    def runner(argv, stdin_text=None):
        if stdin_text is not None:
            buffer = io.TextIOWrapper(
                io.BytesIO(stdin_text.encode("utf-8")), encoding="utf-8"
            )
            monkeypatch.setattr(sys, "stdin", buffer)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return runner


class TestPostprocessCommand:
    def test_fig1_pipe(self, run):
        code, out, err = run(
            ["postprocess", "--mode", "morphgen", "--lexicon", CZECH_LEXICON],
            stdin_text=FIG1_MORPHGEN + "\n",
        )
        assert code == 0
        assert out == FIG1_SURFACE + "\n"

    def test_manifest_on_stderr(self, run):
        code, out, err = run(
            ["postprocess", "--mode", "morphgen", "--lexicon", CZECH_LEXICON],
            stdin_text=FIG1_MORPHGEN + "\n",
        )
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["command"] == "postprocess"
        assert manifest["counters"]["lines"] == 1
        assert manifest["counters"]["fallbacks"] == 0
        assert "<stdin>" in manifest["input_checksums"]

    def test_manifest_file(self, run, tmp_path):
        manifest_path = tmp_path / "run.json"
        code, out, _ = run(
            [
                "postprocess",
                "--mode",
                "morphgen",
                "--lexicon",
                CZECH_LEXICON,
                "--manifest",
                str(manifest_path),
            ],
            stdin_text=FIG1_MORPHGEN + "\n",
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["mode"] == "morphgen"

    def test_output_file_gets_sidecar_manifest(self, run, tmp_path):
        out_path = tmp_path / "surface.txt"
        code, _, _ = run(
            [
                "postprocess",
                "--mode",
                "morphgen",
                "--lexicon",
                CZECH_LEXICON,
                "--output",
                str(out_path),
            ],
            stdin_text=FIG1_MORPHGEN + "\n",
        )
        assert code == 0
        assert out_path.read_text() == FIG1_SURFACE + "\n"
        assert (tmp_path / "surface.txt.manifest.json").exists()

    def test_jobs_flag_preserves_output(self, run):
        lines = "\n".join([FIG1_MORPHGEN] * 5) + "\n"
        _, out1, _ = run(
            ["postprocess", "--mode", "morphgen", "--lexicon", CZECH_LEXICON],
            stdin_text=lines,
        )
        _, out2, _ = run(
            ["postprocess", "--mode", "morphgen", "--lexicon", CZECH_LEXICON, "--jobs", "2"],
            stdin_text=lines,
        )
        assert out1 == out2

    def test_missing_lexicon_is_an_error(self, run):
        code, _, err = run(
            ["postprocess", "--mode", "morphgen"], stdin_text="x\n"
        )
        assert code == 1
        assert "error" in err


class TestPrepareCommand:
    def test_target_only_stdin(self, run):
        code, out, _ = run(
            ["prepare", "--mode", "morphgen", "--lexicon", CZECH_LEXICON],
            stdin_text=FIG1_SURFACE + "\n",
        )
        assert code == 0
        assert out == FIG1_MORPHGEN + "\n"

    def test_protect_tags_leaves_source_words_to_bpe(self, run, tmp_path):
        # "representatives" is 15 ASCII letters: it reads as a positional tag.
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text("representatives meet .\n")
        tgt.write_text(FIG1_SURFACE + "\n")
        outputs = {}
        for protect in ("--protect-tags", "--no-protect-tags"):
            out_src = tmp_path / f"out{protect}.src"
            code, out, _ = run([
                "prepare", "--mode", "morphgen", "--lexicon", CZECH_LEXICON, protect,
                "--merges", "5", "--source", str(src), "--target", str(tgt),
                "--out-source", str(out_src),
            ])
            assert code == 0
            outputs[protect] = (out_src.read_text(), out)
        protected_source, protected_target = outputs["--protect-tags"]
        assert protected_source == outputs["--no-protect-tags"][0]
        assert protected_source.startswith("r@@ e@@ p@@ ")
        assert "VB-P---3P-AA---" in protected_target.split()

    def test_files_and_merge_table_out(self, run, tmp_path):
        src = tmp_path / "src.txt"
        tgt = tmp_path / "tgt.txt"
        src.write_text(FIG1_SOURCE + "\n")
        tgt.write_text(FIG1_SURFACE + "\n")
        out_src = tmp_path / "out.src"
        out_tgt = tmp_path / "out.tgt"
        table_path = tmp_path / "merges.txt"
        code, _, _ = run(
            [
                "prepare",
                "--mode",
                "morphgen",
                "--lexicon",
                CZECH_LEXICON,
                "--source",
                str(src),
                "--target",
                str(tgt),
                "--out-source",
                str(out_src),
                "--out-target",
                str(out_tgt),
                "--merge-table-out",
                str(table_path),
            ]
        )
        assert code == 0
        assert out_tgt.read_text() == FIG1_MORPHGEN + "\n"
        assert out_src.read_text() == FIG1_SOURCE + "\n"
        assert table_path.read_text().strip()

    def test_filter_counts_and_indices_refer_to_the_input(self, run):
        # Pair 0 is longer than --maxlen, pair 1 has no analysis.
        code, out, err = run(
            ["prepare", "--mode", "morphgen", "--lexicon", CZECH_LEXICON,
             "--filter", "--maxlen", "4", "--merges", "0"],
            stdin_text="pizzy pizzy pizzy pizzy pizzy\nzzzunknown\npizzy .\n",
        )
        assert code == 0
        assert len(out.splitlines()) == 1
        assert "morphmt: dropped pair 1: no analysis for 'zzzunknown'\n" in err
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["counters"] == {
            "pairs_in": 3, "pairs_out": 1, "dropped": 1, "merges_learned": 0,
        }

    def test_filter_keeps_parse_tags_aligned(self, run, tmp_path):
        tags = tmp_path / "parse.txt"
        tags.write_text("KON ADV VVFIN-Sg PIS-Nom.Sg\nART-Acc.Sg.Fem NN-Acc.Sg.Fem\n")
        code, out, err = run(
            ["prepare", "--mode", "german-stemmed", "--lexicon", GERMAN_LEXICON,
             "--filter", "--minlen", "1", "--maxlen", "3", "--merges", "0",
             "--protect-tags", "--parse-tags", str(tags)],
            stdin_text="und hier sieht man\neine Wolke\n",
        )
        assert code == 0, err
        assert out == "e@@ i@@ n@@ e@@ <@@ I@@ n@@ d@@ e@@ f@@ > <+ART><Fem><Acc><Sg><St> " \
            "W@@ o@@ l@@ k@@ e <+NN><Fem><Acc><Sg><NA>\n"

    @pytest.mark.parametrize("flag", ["--parse-tags", "--source-tags"])
    def test_short_tag_file_is_an_error(self, run, tmp_path, flag):
        tags = tmp_path / "tags.txt"
        tags.write_text("ART-Acc.Sg.Fem NN-Acc.Sg.Fem\n")
        code, out, err = run(
            ["prepare", "--mode", "german-stemmed-split", "--lexicon", GERMAN_LEXICON,
             "--merges", "0", flag, str(tags)],
            stdin_text="eine Wolke\neine Wolke\n",
        )
        assert (code, out) == (1, "")
        assert err == f"morphmt: error: {flag} has 1 lines for 2 target lines\n"

    def test_bad_context_is_an_error(self, run, tmp_path):
        tags = tmp_path / "parse.txt"
        tags.write_text("ART-Acc.Sg.Fem NN-Foo\nART-Acc.Sg.Fem NN-Foo\n")
        code, out, err = run(
            ["prepare", "--mode", "german-stemmed-split", "--lexicon", GERMAN_LEXICON,
             "--merges", "0", "--parse-tags", str(tags)],
            stdin_text="eine Wolke\neine Wolke\n",
        )
        assert (code, out) == (1, "")
        assert err == "morphmt: error: line 1: unknown context feature 'Foo' in 'NN-Foo'\n"

    @pytest.mark.parametrize("argv, target, files, message", [
        (["--mode", "german-stemmed", "--lexicon", GERMAN_LEXICON, "--parse-tags", "tags.txt"],
         "und Wolke\nund Wolke\n", {"tags.txt": "KON NN-Acc.Sg.Fem\nKON\n"},
         "line 2: 2 tokens but 1 parse tags"),
        (["--mode", "morphgen", "--lexicon", CZECH_LEXICON, "--source", "src.txt",
          "--source-tags", "tags.txt"],
         "pizzy .\npizzy .\n", {"src.txt": "a b\nc d\n", "tags.txt": "X Y\nZ\n"},
         "line 2: 2 words vs 1 tags"),
        # The line of the input pair, also after --filter dropped the first.
        (["--mode", "german-stemmed-split", "--lexicon", CZECH_LEXICON, "--filter",
          "--minlen", "2"],
         "pizzy\npizzy .\n", {}, "line 2: not a German analysis"),
    ], ids=["parse-tags", "source-tags", "czech-lexicon-in-split-mode"])
    def test_sentence_errors_name_their_line(self, run, tmp_path, monkeypatch, argv, target,
                                             files, message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        code, out, err = run(["prepare", "--merges", "0", *argv], stdin_text=target)
        assert (code, out) == (1, "")
        assert err == f"morphmt: error: {message}\n"

    @pytest.mark.parametrize("mode", ["german-stemmed", "german-stemmed-split"])
    @pytest.mark.parametrize("row, word, message", [
        ("a||b\t<+NN><Masc><Nom><Sg><NA>\tab", "ab", "cannot parse stem side 'a||b' at offset 1"),
        ("x<y\t[KON]\tq", "q", "not a bare token: 'x<y[KON]'"),
        # postprocess emits a bare token's lexeme as the word.
        ("x\t[KON]\tq", "q", "bare token 'x[KON]' would read back as 'x', not 'q'"),
        ("Haus\tNNFS1-----A----\tHaus", "Haus", "not a German analysis"),
    ], ids=["inflected-lemma", "bare-lemma", "bare-lemma-not-surface", "positional-tag"])
    def test_german_rows_postprocess_cannot_read_are_errors(self, run, tmp_path, mode, row, word,
                                                            message):
        # Encoded, such a row came back from postprocess as its lemma, not its surface.
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(f"und\t[KON]\tund\n{row}\n", encoding="utf-8")
        code, out, err = run(
            ["prepare", "--mode", mode, "--lexicon", str(lexicon), "--merges", "0"],
            stdin_text=f"und\nund {word}\n",
        )
        assert (code, out) == (1, "")
        assert err == f"morphmt: error: line 2: {message}\n"

    def test_separate_tables_both_written(self, run, tmp_path):
        # With --no-joint-bpe the source side has its own table, written
        # next to the target table; it segments the raw source the same way.
        src = tmp_path / "src.txt"
        src.write_text("the source side differs from\nthe target side entirely\n")
        tgt = tmp_path / "tgt.txt"
        tgt.write_text("pizza pizzy pizzu\npizzou pizze\n")
        table = tmp_path / "table.txt"
        code, out, err = run(
            ["prepare", "--mode", "baseline", "--merges", "6", "--no-joint-bpe",
             "--source", str(src), "--target", str(tgt), "--out-source", str(tmp_path / "out.src"),
             "--merge-table-out", str(table)],
        )
        assert code == 0, err
        counters = json.loads(err.strip().splitlines()[-1])["counters"]
        assert counters["merges_learned"] == counters["source_merges_learned"] == 6
        for side, path in (("source", src), ("target", tgt)):
            side_table = f"{table}.source" if side == "source" else str(table)
            code, segmented, _ = run(["bpe-apply", "--merge-table", side_table, str(path)])
            assert code == 0
            expected = (tmp_path / "out.src").read_text() if side == "source" else out
            assert segmented == expected
        assert (tmp_path / "table.txt.source").read_text() != table.read_text()

    def test_rerun_is_byte_identical(self, run):
        args = ["prepare", "--mode", "morphgen", "--lexicon", CZECH_LEXICON, "--seed", "3"]
        _, out1, _ = run(args, stdin_text=FIG1_SURFACE + "\n")
        _, out2, _ = run(args, stdin_text=FIG1_SURFACE + "\n")
        assert out1 == out2


class TestBpeCommands:
    def test_learn_apply_revert_chain(self, run, tmp_path):
        table_path = tmp_path / "merges.txt"
        code, out, _ = run(
            ["bpe-learn", "--merges", "2", "--output", str(table_path)],
            stdin_text="low low lowest\n",
        )
        assert code == 0
        assert table_path.read_text() == "l o\nlo w\n"

        code, out, _ = run(
            ["bpe-apply", "--merge-table", str(table_path)],
            stdin_text="low lowest\n",
        )
        assert code == 0
        assert out == "low low@@ e@@ s@@ t\n"

        code, out, _ = run(["bpe-revert"], stdin_text=out)
        assert code == 0
        assert out == "low lowest\n"

    def test_revert_rejects_dangling_marker(self, run):
        code, _, err = run(["bpe-revert"], stdin_text="piz@@\n")
        assert code == 1
        assert "marker" in err

    def test_apply_with_protection(self, run, tmp_path):
        table_path = tmp_path / "merges.txt"
        run(["bpe-learn", "--merges", "0", "--output", str(table_path)], stdin_text="x\n")
        tag = "NNFS2-----A----"
        code, out, _ = run(
            [
                "bpe-apply",
                "--merge-table",
                str(table_path),
                "--protect-tags",
                "--mode",
                "morphgen",
            ],
            stdin_text=tag + " ab\n",
        )
        assert code == 0
        assert out == tag + " a@@ b\n"

    def test_german_protection_keeps_every_tag_shape(self, run, tmp_path):
        table_path = tmp_path / "merges.txt"
        table_path.write_text("M e\n")
        code, out, _ = run(
            ["bpe-apply", "--merge-table", str(table_path), "--protect-tags",
             "--mode", "german-stemmed-split"],
            stdin_text="Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA> und[KON] <Foo><Bar>\n",
        )
        assert code == 0
        assert out == (
            "Me@@ e@@ r §§<NN>§§ B@@ o@@ d@@ e@@ n <+NN><Masc><Dat><Sg><NA> und[KON] "
            "<@@ F@@ o@@ o@@ >@@ <@@ B@@ a@@ r@@ >\n"
        )

    def test_baseline_protects_nothing(self, run, tmp_path):
        # A 15-letter word reads as a positional tag; baseline has no tags.
        table_path = tmp_path / "merges.txt"
        table_path.write_text("")
        code, out, _ = run(
            ["bpe-apply", "--merge-table", str(table_path), "--protect-tags", "--mode", "baseline"],
            stdin_text="abcdefghijklmno\n",
        )
        assert code == 0
        assert out == "@@ ".join("abcdefghijklmno") + "\n"


class TestLexiconCommands:
    def test_analyze(self, run):
        code, out, _ = run(
            ["analyze", "--lexicon", CZECH_LEXICON], stdin_text="pizzy\nxyzzy\n"
        )
        assert code == 0
        assert out == "pizzy\tpizza\tNNFS2-----A----\n"

    def test_generate(self, run):
        code, out, err = run(
            ["generate", "--lexicon", CZECH_LEXICON],
            stdin_text="pizza\tNNFS2-----A----\nBraper\tNNFS1-----A----\n",
        )
        assert code == 0
        assert out == "pizzy\nBraper\n"
        assert "unknown-lemma" in err

    def test_generate_keys_fallbacks_by_input_line(self, run, monkeypatch):
        # Lines 3 and 4 (1-based, the blank line 2 counted) fall back.
        seen = []
        real = morphlex.generate_with_fallback

        def spy(lex, lemma, tag_text, diagnostics, **kwargs):
            seen.append(diagnostics)
            return real(lex, lemma, tag_text, diagnostics, **kwargs)

        monkeypatch.setattr(morphlex, "generate_with_fallback", spy)
        code, out, err = run(
            ["generate", "--lexicon", CZECH_LEXICON],
            stdin_text="pizza\tNNFS2-----A----\n\nBraper\tNNFS1-----A----\npizza\tNNFS7-----A----\n",
        )
        assert code == 0
        assert [line for line, _ in seen[-1].fallbacks] == [2, 3]
        assert seen[-1].lines == 0
        assert "lines checked" not in err

    def test_generate_rejects_malformed_line(self, run):
        code, _, err = run(
            ["generate", "--lexicon", CZECH_LEXICON], stdin_text="no tab here\n"
        )
        assert code == 1
        assert "error" in err


class TestPostprocessRepairs:
    @pytest.mark.parametrize(
        "mode, line",
        [
            ("german-stemmed", "a<NN>§§<X>§§ <+NN><Masc><Dat><Sg><NA>"),
            ("german-stemmed-split", "§§<NN>§§@@ <X>§§ <+NN><Masc><Dat><Sg><NA>"),
        ],
    )
    def test_stem_spelling_a_separator_does_not_abort(self, run, mode, line):
        code, out, err = run(
            ["postprocess", "--mode", mode, "--lexicon", GERMAN_LEXICON],
            stdin_text=line + "\nund[KON]\n",
        )
        assert code == 0
        assert len(out.splitlines()) == 2
        assert out.endswith("\nund\n")
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["counters"]["recovery_events"] == 1


class TestCompoundCommands:
    def test_split_and_merge_are_inverse(self, run):
        line = "und[KON] Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>\n"
        code, split_out, _ = run(["split-compounds"], stdin_text=line)
        assert code == 0
        assert split_out == "und[KON] Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>\n"
        code, merged_out, _ = run(
            ["merge-compounds", "--lexicon", GERMAN_LEXICON], stdin_text=split_out
        )
        assert code == 0
        assert merged_out == "und[KON] Meeresboden||<+NN><Masc><Dat><Sg><NA>\n"

    def test_merge_passes_malformed_tokens_through(self, run):
        # An orphan feature token, a bare token, an orphan separator, an
        # unknown modifier, a clean compound and a trailing orphan word.
        line = (
            "<+NN><Fem><Acc><Sg><NA> und[KON] §§<NN>§§ "
            "Nacht §§<NN>§§ Markt <+NN><Masc><Nom><Sg><NA> "
            "Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA> sehen\n"
        )
        code, out, err = run(
            ["merge-compounds", "--lexicon", GERMAN_LEXICON], stdin_text=line
        )
        assert code == 0
        assert out == (
            "<+NN><Fem><Acc><Sg><NA> und[KON] "
            "Nachtmarkt||<+NN><Masc><Nom><Sg><NA> "
            "Meeresboden||<+NN><Masc><Dat><Sg><NA> sehen\n"
        )
        assert "morphmt: unknown compound modifier 'Nacht'\n" in err
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["counters"] == {
            "lines": 1,
            "compounds_merged": 2,
            "unknown_modifiers": 1,
        }

    def test_merge_error_names_its_line(self, run):
        # The stem spells a separator token: it cannot be merged.
        lines = "Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>\na<NN>§§<X>§§ <+NN><Masc><Dat><Sg><NA>\n"
        code, out, err = run(["merge-compounds", "--lexicon", GERMAN_LEXICON], stdin_text=lines)
        assert (code, out) == (1, "")
        assert err.startswith("morphmt: error: line 2: lexeme expected at 2 in ")

    def test_split_error_names_its_line(self, run):
        # The same stem as above, which cannot be split either.
        lines = "und[KON]\na<NN>§§<X>§§||<+NN><Masc><Dat><Sg><NA>\n"
        code, out, err = run(["split-compounds"], stdin_text=lines)
        assert (code, out) == (1, "")
        assert err.startswith("morphmt: error: line 2: lexeme expected at 2 in ")


class TestTranslateCommand:
    def test_identity_backend(self, run):
        code, out, _ = run(
            ["translate", "--backend", "cat"], stdin_text="a b\nc d\n"
        )
        assert code == 0
        assert out == "a b\nc d\n"

    def test_failing_backend(self, run):
        code, _, err = run(["translate", "--backend", "false"], stdin_text="a\n")
        assert code == 1
        assert "backend" in err

    @pytest.mark.parametrize("backend", ["", " \t "])
    def test_empty_backend_is_an_error(self, run, backend):
        code, out, err = run(["translate", "--backend", backend], stdin_text="a\n")
        assert (code, out, err) == (1, "", "morphmt: error: empty backend command\n")

    def test_empty_backend_key_is_an_error(self, run, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("backend =\n", encoding="utf-8")
        code, out, err = run(["translate", "--config", str(conf)], stdin_text="a\n")
        assert (code, out, err) == (1, "", "morphmt: error: empty backend command\n")

    def test_other_errors_propagate(self, run, monkeypatch):
        # Only the library's and the CLI's own errors become a message.
        def broken(*args, **kwargs):
            raise RuntimeError("not a library error")

        monkeypatch.setattr("morphmt.backend.translate_external", broken)
        with pytest.raises(RuntimeError, match="not a library error"):
            run(["translate", "--backend", "cat"], stdin_text="a\n")


class TestBleuCommand:
    def test_identity_prints_100(self, run, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("der test läuft gut .\n")
        ref.write_text("der test läuft gut .\n")
        code, out, _ = run(["bleu", "--lowercase", str(hyp), str(ref)])
        assert code == 0
        assert out == "100.00\n"

    def test_two_decimal_places(self, run, tmp_path):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("the cat sat on the mat .\n")
        ref.write_text("the cat is on the mat .\n")
        code, out, _ = run(["bleu", str(hyp), str(ref)])
        assert code == 0
        # 100 * (6/7 * 4/6 * 2/5 * 1/4) ** 0.25 = 48.8923...
        assert out == "48.89\n"


class TestNovelFormsCommand:
    def test_report(self, run, tmp_path):
        train = tmp_path / "train.txt"
        src = tmp_path / "src.txt"
        ref = tmp_path / "ref.txt"
        train.write_text("bekannt wort\n")
        src.write_text("source line\n")
        ref.write_text("neuwort reference\n")
        code, out, _ = run(
            [
                "novel-forms",
                "--train",
                str(train),
                "--source",
                str(src),
                "--references",
                str(ref),
            ],
            stdin_text="bekannt neuwort\n",
        )
        assert code == 0
        assert "novel tokens: 1" in out
        assert "confirmed by reference: 1" in out


class TestStatsCommand:
    def test_vocab_table(self, run, tmp_path):
        surface = tmp_path / "surface.txt"
        morph = tmp_path / "morph.txt"
        split = tmp_path / "split.txt"
        surface.write_text("hauses haeuser bergen berges\n")
        morph.write_text("haus T1 haus T2 berg T1 berg T2\n")
        split.write_text("haus T1 haus T1 berg T1\n")
        code, out, _ = run(
            ["stats", "--vocab", str(surface), str(morph), str(split), "--merges", "100"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + one row per variant
        # independent count: distinct tokens per file
        sizes = [int(line.split()[-2]) for line in lines[1:]]
        expected = [
            len(set(path.read_text().split())) for path in (surface, morph, split)
        ]
        assert sizes == expected

    def test_word_ends(self, run):
        code, out, _ = run(
            ["stats", "--word-ends"], stdin_text="spiel@@ ten\nspiel@@ ten\n"
        )
        assert code == 0
        assert out == "2\tten\n"


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, run, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(f"mode = morphgen\nlexicon = {CZECH_LEXICON}\n")
        code, out, _ = run(
            ["postprocess", "--config", str(config)], stdin_text=FIG1_MORPHGEN + "\n"
        )
        assert code == 0
        assert out == FIG1_SURFACE + "\n"

    def test_flags_override_config(self, run, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("merges = 2\n")
        code, _, err = run(
            ["bpe-learn", "--merges", "1", "--config", str(config)],
            stdin_text="low low lowest\n",
        )
        assert code == 0
        manifest = json.loads(err.strip().splitlines()[-1])
        assert manifest["config"]["merges"] == 1

    def test_config_value_used_when_flag_absent(self, run, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("merges = 2\n")
        code, out, _ = run(
            ["bpe-learn", "--config", str(config)], stdin_text="low low lowest\n"
        )
        assert code == 0
        assert out == "l o\nlo w\n"

    def test_unknown_key_rejected(self, run, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("# budget\nmerge = 3\n")
        code, out, err = run(
            ["prepare", "--mode", "baseline", "--config", str(config)], stdin_text="a b\n"
        )
        assert code == 1
        assert out == ""
        assert err == f"morphmt: error: {config}:2: unknown key 'merge'\n"

    def test_keys_of_other_subcommands_accepted(self, run, tmp_path):
        # One config file serves the whole pipeline: bpe-learn ignores the
        # prepare keys, and spelled flags name the same keys.
        config = tmp_path / "run.conf"
        config.write_text(f"mode = morphgen\nlexicon = {CZECH_LEXICON}\nsample-size = 3\nmerges = 2\n")
        code, out, _ = run(["bpe-learn", "--config", str(config)], stdin_text="low low lowest\n")
        assert code == 0
        assert out == "l o\nlo w\n"


    def test_prepare_keys_take_effect(self, run, tmp_path):
        # filter, out_source and manifest are read from args by the handler,
        # so the config file has to reach them there too.
        (tmp_path / "src.txt").write_text("x\ny z\n")
        config = tmp_path / "run.conf"
        config.write_text(f"mode = baseline\nfilter = yes\nmaxlen = 1\nmerges = 0\n"
                          f"source = {tmp_path / 'src.txt'}\nout_source = {tmp_path / 'out.src'}\n"
                          f"manifest = {tmp_path / 'run.json'}\n")
        code, out, err = run(["prepare", "--config", str(config)], stdin_text="a\nb c\n")
        assert (code, out, err) == (0, "a\n", "")
        assert (tmp_path / "out.src").read_text() == "x\n"
        manifest = json.loads((tmp_path / "run.json").read_text())
        assert manifest["counters"]["pairs_out"] == 1

    def test_flag_overrides_a_boolean_key(self, run, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("mode = baseline\nmerges = 0\nfilter = no\nmaxlen = 1\n")
        _, out, _ = run(["prepare", "--config", str(config)], stdin_text="a\nb c\n")
        assert out == "a\nb c\n"
        _, out, _ = run(["prepare", "--config", str(config), "--filter"], stdin_text="a\nb c\n")
        assert out == "a\n"

    def test_config_key_rejected(self, run, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("config = other.conf\n")
        code, out, err = run(["bpe-learn", "--merges", "1", "--config", str(config)], stdin_text="ab\n")
        assert (code, out) == (1, "")
        assert err == f"morphmt: error: {config}:1: unknown key 'config'\n"

    def test_value_outside_the_choices_rejected(self, run, tmp_path):
        # As on the command line: bpe-apply would protect Czech tags.
        (tmp_path / "merges.txt").write_text("a b\n")
        config = tmp_path / "run.conf"
        config.write_text("mode = german\n")
        code, out, err = run(["bpe-apply", "--merge-table", str(tmp_path / "merges.txt"),
                              "--protect-tags", "--config", str(config)], stdin_text="ab\n")
        assert (code, out) == (1, "")
        assert err == (f"morphmt: error: {config}: mode: invalid choice: 'german' (choose from "
                       "'baseline', 'morphgen', 'serialization', 'german-stemmed', "
                       "'german-stemmed-split')\n")

    def test_every_key_reaches_its_option(self):
        # Derived from the parser: for every subcommand, every key a config
        # file may name sets the option's value when the flag is absent.
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        samples = {int: "7", None: "x.txt"}
        for name, sub in subparsers.choices.items():
            positionals = [] if name != "bleu" else ["h", "r"]
            required = ["--train", "t", "--source", "s", "--references", "r"] if name == "novel-forms" else []
            for action in sub._actions:
                if not action.option_strings or action.dest in ("help", "config") or action.required:
                    continue
                args = parser.parse_args([name, *required, *positionals])
                if action.nargs == 0:
                    raw = "yes"
                else:
                    raw = action.choices[-1] if action.choices else samples[action.type]
                apply_config(args, sub, {action.dest: raw})
                value = getattr(args, action.dest)
                assert value != action.default, (name, action.dest)
                assert action.dest in config_keys(parser)


class TestLineSplitting:
    """A line ends at \\n (\\r\\n is one line end); other separators are content."""

    def test_unicode_separators_do_not_end_lines(self, run):
        code, out, err = run(["bpe-revert"], stdin_text="a\u0085b c\nd\u2028e\n")
        assert code == 0
        assert out.count("\n") == 2
        assert json.loads(err)["counters"]["lines"] == 2

    def test_backend_line_keeps_its_separator(self, run):
        code, out, err = run(["translate", "--backend", "cat"], stdin_text="x\u2028y\n")
        assert code == 0
        assert out == "x\u2028y\n"
        assert json.loads(err)["counters"]["lines"] == 1

    def test_crlf_is_one_line_end(self, run, tmp_path):
        config = tmp_path / "run.conf"
        config.write_bytes(b"merges = 2\r\n")
        code, out, err = run(["bpe-learn", "--config", str(config)],
                             stdin_text="low low\r\nlowest\r\n")
        assert code == 0
        assert out == "l o\nlo w\n"


class TestStdinReadOnce:
    """Standard input can feed one input of a run; a second read would see
    nothing and record the SHA-256 of the empty string as its checksum."""

    @pytest.mark.parametrize("argv", [
        ["postprocess", "--mode", "morphgen", "--lexicon", "-", "-"],
        ["postprocess", "--mode", "morphgen", "--lexicon", "-"],
        ["bleu", "-", "-"],
    ])
    def test_second_read_is_an_error(self, run, argv):
        code, out, err = run(argv, stdin_text="pizza\tNNFS1-----A----\tpizza\n")
        assert (code, out, err) == (1, "", "morphmt: error: stdin (-) can be only one of the inputs\n")

    def test_one_read_is_fine(self, run, tmp_path):
        ref = tmp_path / "ref.txt"
        ref.write_text("a b c d\n", encoding="utf-8")
        code, out, _ = run(["bleu", "-", str(ref)], stdin_text="a b c d\n")
        assert (code, out) == (0, "100.00\n")


class TestUtf8Strictness:
    def test_invalid_bytes_abort(self, run, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"valid start \xff\xfe invalid\n")
        code, _, err = run(["bpe-revert", str(bad)])
        assert code == 1
        assert "UTF-8" in err


class TestConsoleScript:
    def test_import_leaves_the_process_pool_out(self):
        # concurrent.futures.process pulls in multiprocessing, a fixed cost
        # of every CLI process; only postprocess --jobs N > 1 needs it.
        result = subprocess.run(
            [sys.executable, "-c",
             "import morphmt.cli, sys; print(sorted(m for m in sys.modules"
             " if m.startswith(('concurrent', 'multiprocessing'))))"],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr

    def test_pipe_through_installed_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "morphmt.cli", "postprocess", "--mode", "morphgen",
             "--lexicon", CZECH_LEXICON],
            input=FIG1_MORPHGEN + "\n",
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == FIG1_SURFACE + "\n"

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "morphmt.cli", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2


# argv -> (the subcommand whose usage argparse prints, or None for the
# top-level usage; the error line)
USAGE_ERRORS = {
    ("prepare", "--no-such-flag"): (None, "morphmt: error: unrecognized arguments: --no-such-flag\n"),
    ("bleu", "hyp.txt"): ("bleu", "morphmt bleu: error: the following arguments are required: references\n"),
}


class TestUsageErrors:
    """A usage error exits 2 with the usage of the parser that failed, as the
    parser of every subcommand renders it, in process and in a new interpreter."""

    @staticmethod
    def expected_stderr(command, message, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        parser = build_parser()
        if command is not None:
            parser = next(
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            ).choices[command]
        return parser.format_usage() + message

    def test_top_level_usage_lists_every_subcommand(self, monkeypatch):
        usage = self.expected_stderr(None, "", monkeypatch)
        assert "{" + ",".join(SUBCOMMANDS) + "}" in usage

    @pytest.mark.parametrize("argv", sorted(USAGE_ERRORS))
    def test_in_process(self, argv, monkeypatch, capsys):
        expected = self.expected_stderr(*USAGE_ERRORS[argv], monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert capsys.readouterr() == ("", expected)

    @pytest.mark.parametrize("argv", sorted(USAGE_ERRORS))
    def test_fresh_process(self, argv, monkeypatch):
        expected = self.expected_stderr(*USAGE_ERRORS[argv], monkeypatch)
        result = subprocess.run(
            [sys.executable, "-m", "morphmt.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "COLUMNS": "80"},
        )
        assert (result.returncode, result.stdout, result.stderr) == (2, "", expected)


# One run of each subcommand on the toy data: (argv, stdin text).  Paths are
# absolute, so the manifests of both runs name the same inputs.
FRESH_PROCESS_RUNS = {
    "prepare": (["prepare", "--mode", "morphgen", "--lexicon", CZECH_LEXICON, "--merges", "5"],
                FIG1_SURFACE + "\n"),
    "bpe-learn": (["bpe-learn", "--merges", "5", CZECH_LEXICON], None),
    "bpe-apply": (["bpe-apply", "--merge-table", "MERGES", "--protect-tags", "--mode", "morphgen"],
                  FIG1_MORPHGEN + "\n"),
    "bpe-revert": (["bpe-revert"], "piz@@ zy .\n"),
    "analyze": (["analyze", "--lexicon", GERMAN_LEXICON], "vulkanischen\n"),
    "generate": (["generate", "--lexicon", CZECH_LEXICON], "pizza\tNNFS2-----A----\nBraper\tNNFS1-----A----\n"),
    "split-compounds": (["split-compounds"], "und[KON] Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA>\n"),
    "merge-compounds": (["merge-compounds", "--lexicon", GERMAN_LEXICON],
                        "Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>\n"),
    "translate": (["translate", "--backend", "cat"], "a b\n"),
    "postprocess": (["postprocess", "--mode", "morphgen", "--lexicon", CZECH_LEXICON],
                    FIG1_MORPHGEN + "\n"),
    "bleu": (["bleu", "-", CZECH_LEXICON],
             (DATA_DIR / "czech_toy.tsv").read_text(encoding="utf-8").replace("pizzy", "pizza")),
    "novel-forms": (["novel-forms", "--train", GERMAN_LEXICON, "--source", CZECH_LEXICON,
                     "--references", CZECH_LEXICON, CZECH_LEXICON], None),
    "stats": (["stats", "--word-ends"], "spiel@@ ten la@@ ten\n"),
}

# Every module a stage that neither reads a lexicon nor walks a stream
# should leave unloaded.
LIBRARY_MODULES = ("morphmt.pipeline", "morphmt.morphlex", "morphmt.bpe", "morphmt.compounds",
                   "morphmt.interleave")


class TestFreshProcess:
    """Each subcommand in a new interpreter, where only the modules its
    handler imports are loaded (in-process runs see every module)."""

    def test_every_subcommand_is_covered(self):
        assert sorted(FRESH_PROCESS_RUNS) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("command", sorted(FRESH_PROCESS_RUNS))
    def test_same_as_in_process(self, command, run, tmp_path):
        argv, stdin_text = FRESH_PROCESS_RUNS[command]
        merges = tmp_path / "merges.txt"
        merges.write_text("p i\npi z\nz y\n", encoding="utf-8")
        argv = [str(merges) if arg == "MERGES" else arg for arg in argv]
        result = subprocess.run(
            [sys.executable, "-m", "morphmt.cli", *argv],
            input=stdin_text or "", capture_output=True, text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == run(argv, stdin_text)
        assert result.returncode == 0

    @pytest.mark.parametrize("argv, stdin_text", [
        (["translate", "--backend", "false"], "a\n"),  # BackendFailure, not a ValueError
        (["bleu", CZECH_LEXICON, GERMAN_LEXICON], None),  # unequal line counts
        (["translate", "--backend", "printf '\\377\\n'"], "a\n"),  # BackendFailure: not UTF-8
    ])
    def test_error_same_as_in_process(self, argv, stdin_text, run):
        result = subprocess.run(
            [sys.executable, "-m", "morphmt.cli", *argv],
            input=stdin_text or "", capture_output=True, text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == run(argv, stdin_text)
        assert result.returncode == 1
        assert result.stderr.startswith("morphmt: error: ")

    def test_bpe_apply_protect_tags_loads_only_bpe_and_tagsets(self, tmp_path):
        table_path = tmp_path / "merges.txt"
        table_path.write_text("a b\n")
        loaded = self.loaded_modules(["bpe-apply", "--merge-table", str(table_path),
                                      "--protect-tags", "--mode", "german-stemmed-split"])
        assert loaded & set(LIBRARY_MODULES) == {"morphmt.bpe"}
        assert "morphmt.tagsets" in loaded
        assert loaded <= {"morphmt", "morphmt.cli", "morphmt.conventions", "morphmt.bpe",
                          "morphmt.tagsets"}

    def test_stats_vocab_loads_only_bpe(self):
        loaded = self.loaded_modules(["stats", "--vocab", CZECH_LEXICON, "--merges", "5"])
        assert loaded & set(LIBRARY_MODULES) == {"morphmt.bpe"}
        assert loaded <= {"morphmt", "morphmt.cli", "morphmt.conventions", "morphmt.bpe"}

    @staticmethod
    def loaded_modules(argv):
        """The morphmt modules loaded by ``python -m morphmt.cli ARGV`` on ``a b``."""
        probe = (
            "import json, runpy, sys\n"
            "try:\n"
            "    runpy.run_module('morphmt.cli', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(json.dumps([m for m in sys.modules if m.startswith('morphmt')]), file=sys.stderr)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe, *argv], input="a b\n",
                                capture_output=True, text=True)
        return set(json.loads(result.stderr.splitlines()[-1]))

    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["bleu", CZECH_LEXICON, CZECH_LEXICON],
        ["bleu", CZECH_LEXICON, GERMAN_LEXICON],  # the error path
        ["translate", "--backend", "cat"],
        ["translate", "--backend", "false"],  # the error path
    ])
    def test_library_left_unloaded(self, argv):
        loaded = self.loaded_modules(argv)
        assert "morphmt.conventions" in loaded
        assert not loaded & set(LIBRARY_MODULES), loaded


# ---------------------------------------------------------------------------
# Characterization of the run contract: every subcommand, byte for byte
# ---------------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).resolve().parent / "cli_golden.json"

# Inputs written into an empty working directory before each case; paths
# in the cases are relative to it, so manifests do not depend on where the
# test runs.
CHARACTERIZATION_FILES = {
    "cs.tsv": (DATA_DIR / "czech_toy.tsv").read_bytes(),
    "de.tsv": (DATA_DIR / "german_toy.tsv").read_bytes(),
    "cs.txt": f"{FIG1_SURFACE}\npizzy existují .\n".encode(),
    "src.txt": f"{FIG1_SOURCE}\npizza exists .\n".encode(),
    "morph.txt": (
        f"{FIG1_MORPHGEN}\n"
        "NNFS2-----A---- piz@@ za NNFS1-----A---- Braper . NNIP2-----A----\n"
    ).encode(),
    "merges.txt": b"p i\npi z\nz y\n",
    "de.txt": (
        "und[KON] Meer<NN>Boden||<+NN><Masc><Dat><Sg><NA> "
        "sehen||<+V><3><Sg><Pres><Ind> .[$]\n"
        "Haus<NN>Markt||<+NN><Masc><Nom><Sg><NA>\n"
    ).encode(),
    "de.split": (
        "und[KON] Meer §§<NN>§§ Bo@@ den <+NN><Masc><Dat><Sg><NA> "
        "Nacht §§<NN>§§ Markt <+NN><Masc><Nom><Sg><NA> §§<NN>§§ sehen\n"
        "<+NN><Fem><Acc><Sg><NA> Haus §§<NN>§§ Markt <+NN><Masc><Nom><Sg><NA>\n"
    ).encode(),
    "de.surface": "und hier sieht man eine Wolke\nMeeresboden und .\n".encode(),
    "de.parse": "KON ADV VVFIN-Sg PIS-Nom.Sg ART-Acc.Sg.Fem NN-Acc.Sg.Fem\nNN-Dat.Sg.Masc KON $.\n".encode(),
    "hyp.txt": b"the cat sat on the mat .\nA dog barks\n",
    "ref.txt": b"the cat is on the mat .\na dog barks\n",
    "short.txt": b"one line\n",
    "train.txt": b"bekannt wort\nthe cat\n",
    "empty.txt": b"",
    "bad.txt": b"valid start \xff\xfe invalid\n",
    "run.conf": b"mode = morphgen\nlexicon = cs.tsv\nmerges = 4\n",
    "conflict.tsv": b"a\tNNFS1-----A----\tx\nb\tNNFS1-----A----\ty\na\tNNFS1-----A----\tz\n",
}

# name -> (argv, stdin text)
CHARACTERIZATION_CASES = {
    "prepare-stdin": (["prepare", "--mode", "morphgen", "--lexicon", "cs.tsv", "--merges", "5"],
                      f"{FIG1_SURFACE}\npizzy .\n"),
    "prepare-files": (["prepare", "--mode", "serialization", "--lexicon", "cs.tsv",
                       "--source", "src.txt", "--target", "cs.txt", "--out-source", "out.src",
                       "--out-target", "out.tgt", "--merge-table-out", "table.txt",
                       "--merges", "10", "--protect-tags", "--no-joint-bpe"], None),
    "prepare-dropped": (["prepare", "--mode", "morphgen", "--lexicon", "cs.tsv", "--merges", "0",
                         "--manifest", "run.json"], "pizzy .\nzzzunknown .\n. pizzy\n"),
    "prepare-filter": (["prepare", "--config", "run.conf", "--filter", "--maxlen", "20",
                        "--target", "cs.txt", "--out-target", "-"], None),
    "prepare-german": (["prepare", "--mode", "german-stemmed-split", "--lexicon", "de.tsv",
                        "--target", "de.surface", "--parse-tags", "de.parse", "--merges", "6",
                        "--protect-tags", "--out-target", "de.out"], None),
    "prepare-baseline-empty-table": (["prepare", "--mode", "baseline", "--merges", "0",
                                      "--merge-table-out", "table.txt"], "a b\n"),
    "prepare-no-mode": (["prepare"], "x\n"),
    "bpe-learn-stdin": (["bpe-learn", "--merges", "3"], "low low lowest\nlower\n"),
    "bpe-learn-output": (["bpe-learn", "--config", "run.conf", "-o", "learned.txt", "cs.txt"], None),
    "bpe-learn-no-merges": (["bpe-learn"], "x\n"),
    "bpe-apply-stdin": (["bpe-apply", "--merge-table", "merges.txt"], "pizzy pizza\n\nzy\n"),
    "bpe-apply-output": (["bpe-apply", "--merge-table", "merges.txt", "--protect-tags", "--mode",
                          "morphgen", "-o", "seg.txt", "morph.txt"], None),
    "bpe-apply-protect-no-mode": (["bpe-apply", "--merge-table", "merges.txt", "--protect-tags"], "x\n"),
    "bpe-revert-stdin": (["bpe-revert"], "piz@@ zy ex@@ ist\n\n"),
    "bpe-revert-output": (["bpe-revert", "--output", "rev.txt", "-"], "a@@ b c\n"),
    "bpe-revert-dangling": (["bpe-revert"], "ok\npiz@@\n"),
    "bpe-revert-bad-utf8": (["bpe-revert", "bad.txt"], None),
    "bpe-revert-missing-input": (["bpe-revert", "nope.txt"], None),
    "bpe-revert-unwritable-output": (["bpe-revert", "-o", "nodir/out.txt"], "a\n"),
    "analyze-stdin": (["analyze", "--lexicon", "de.tsv"], "vulkanischen\nxyzzy\n\n eine \n"),
    "analyze-output": (["analyze", "--lexicon", "cs.tsv", "-o", "an.txt"], "pizzy\n"),
    "analyze-no-lexicon": (["analyze"], "pizzy\n"),
    "generate-stdin": (["generate", "--lexicon", "cs.tsv"],
                       "pizza\tNNFS2-----A----\n\nBraper\tNNFS1-----A----\npizza\tNNFS7-----A----\n"),
    "generate-output": (["generate", "--lexicon", "de.tsv", "-o", "gen.txt"],
                        "Meeresboden\t<+NN><Masc><Dat><Sg><NA>\nund\t[KON]\n"),
    "generate-no-tab": (["generate", "--lexicon", "cs.tsv"], "pizza\tNNFS2-----A----\nno tab\n"),
    "generate-bad-tag": (["generate", "--lexicon", "cs.tsv"], "pizza\tNN\n"),
    "split-compounds-stdin": (["split-compounds"],
                              "und[KON] längs<ADJ>Achse||<+NN><Fem><Dat><Sg><NA>\n\nWolke||<+NN><Fem><Acc><Sg><NA>\n"),
    "split-compounds-output": (["split-compounds", "-o", "split.txt", "de.txt"], None),
    "split-compounds-malformed": (["split-compounds"], "und[KON]\nx||<bad\n"),
    "merge-compounds-stdin": (["merge-compounds", "--lexicon", "de.tsv", "de.split"], None),
    "merge-compounds-output": (["merge-compounds", "--lexicon", "de.tsv", "-o", "merged.txt"],
                               "Meer §§<NN>§§ Boden <+NN><Masc><Dat><Sg><NA>\n"),
    "merge-compounds-unparseable": (["merge-compounds", "--lexicon", "de.tsv"],
                                    "a<NN>§§<X>§§ <+NN><Masc><Dat><Sg><NA>\n"),
    "translate-stdin": (["translate", "--backend", "cat"], "a b\n\nc\n"),
    "translate-output": (["translate", "--backend", "tr a-z A-Z", "-o", "tr.txt", "src.txt"], None),
    "translate-failing": (["translate", "--backend", "false"], "a\n"),
    "translate-line-count": (["translate", "--backend", "head -n 1"], "a\nb\n"),
    "translate-no-backend": (["translate"], "a\n"),
    "translate-empty-backend": (["translate", "--backend", ""], "a\n"),
    "translate-invalid-utf8": (["translate", "--backend", "printf '\\377\\n'"], "a\n"),
    "postprocess-stdin": (["postprocess", "--mode", "morphgen", "--lexicon", "cs.tsv", "morph.txt"], None),
    "postprocess-output": (["postprocess", "--config", "run.conf", "-o", "surface.txt"],
                           f"{FIG1_MORPHGEN}\n"),
    "postprocess-manifest": (["postprocess", "--mode", "german-stemmed-split", "--lexicon", "de.tsv",
                              "--manifest", "pp.json", "--jobs", "2", "de.split"], None),
    "postprocess-serialization": (["postprocess", "--mode", "serialization"],
                                  "NNFS2-----A---- pizzy existují\n"),
    "postprocess-no-mode": (["postprocess", "--lexicon", "cs.tsv"], "x\n"),
    "postprocess-lexicon-conflict": (["postprocess", "--mode", "morphgen", "--lexicon", "conflict.tsv"],
                                     "NNFS1-----A---- a\n"),
    "postprocess-stdin-twice": (["postprocess", "--mode", "morphgen", "--lexicon", "-", "-"],
                                "pizza\tNNFS1-----A----\tpizza\n"),
    "bleu": (["bleu", "hyp.txt", "ref.txt"], None),
    "bleu-options": (["bleu", "--lowercase", "--smooth", "--manifest", "bleu.json", "hyp.txt", "ref.txt"], None),
    "bleu-empty": (["bleu", "empty.txt", "empty.txt"], None),
    "bleu-length-mismatch": (["bleu", "hyp.txt", "short.txt"], None),
    "bleu-stdin-twice": (["bleu", "-", "-"], "a b\n"),
    "novel-forms": (["novel-forms", "--train", "train.txt", "--source", "src.txt",
                     "--references", "ref.txt", "--lowercase"], "bekannt neuwort\nthe dog\n"),
    "novel-forms-mismatch": (["novel-forms", "--train", "train.txt", "--source", "short.txt",
                              "--references", "ref.txt", "hyp.txt"], None),
    "stats-vocab": (["stats", "--vocab", "cs.txt", "morph.txt", "--merges", "8"], None),
    "stats-word-ends-stdin": (["stats", "--word-ends", "--manifest", "st.json"],
                              "spiel@@ ten\nspiel@@ ten la@@ ten\n"),
    "stats-word-ends-file": (["stats", "--word-ends", "morph.txt"], None),
    "stats-nothing": (["stats"], None),
}

SUBCOMMANDS = [
    "prepare", "bpe-learn", "bpe-apply", "bpe-revert", "analyze", "generate",
    "split-compounds", "merge-compounds", "translate", "postprocess", "bleu",
    "novel-forms", "stats",
]


def characterize(argv, stdin_text, workdir, monkeypatch):
    """Run ``main`` in ``workdir`` on the characterization inputs and return
    the exit code, stdout, stderr and every file the run wrote."""
    for name, data in CHARACTERIZATION_FILES.items():
        (workdir / name).write_bytes(data)
    monkeypatch.chdir(workdir)
    stdin = io.TextIOWrapper(io.BytesIO((stdin_text or "").encode("utf-8")), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    written = {
        path.name: path.read_bytes().decode("utf-8")
        for path in sorted(workdir.iterdir())
        if path.name not in CHARACTERIZATION_FILES
    }
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written}


def parser_signature(command=None):
    """Every subcommand's actions: flags, metavar as shown, default, help, arity;
    of ``command`` alone when given."""
    subparsers = next(
        a for a in build_parser(command)._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: [
            repr((a.option_strings, a.metavar or (a.dest.upper() if a.option_strings else a.dest),
                  a.default, a.help, a.nargs, a.const, a.type, a.choices, a.required))
            for a in sub._actions
        ]
        for name, sub in subparsers.choices.items()
    }


def render_help(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(argv)
    return out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestRunContract:
    def test_every_subcommand_is_covered(self):
        covered = {argv[0] for argv, _ in CHARACTERIZATION_CASES.values()}
        assert covered == set(SUBCOMMANDS)

    @pytest.mark.parametrize("name", sorted(CHARACTERIZATION_CASES))
    def test_case(self, name, golden, tmp_path, monkeypatch):
        argv, stdin_text = CHARACTERIZATION_CASES[name]
        assert characterize(argv, stdin_text, tmp_path, monkeypatch) == golden["cases"][name]

    def test_flags_defaults_and_help_text(self, golden):
        assert parser_signature() == golden["parser"]

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_one_subcommand_parser(self, command, golden):
        # What main builds for a run of one subcommand.
        assert parser_signature(command) == {command: golden["parser"][command]}

    @pytest.mark.parametrize("command", [None] + SUBCOMMANDS)
    def test_rendered_help(self, command, golden, monkeypatch):
        # argparse's layout differs between Python versions; the rendered
        # text is pinned for the version that recorded it, the flags and
        # help strings on every version by the test above.
        argv = ["--help"] if command is None else [command, "--help"]
        text = render_help(argv, monkeypatch)
        recorded = golden["help"].get(f"{sys.version_info[0]}.{sys.version_info[1]}")
        if recorded is not None:
            assert text == recorded[command or ""]
        else:
            assert text.startswith("usage: morphmt")


def record_golden() -> None:
    """Rewrite the golden file from the current code (review the diff!)."""
    import tempfile

    cases = {}
    for name, (argv, stdin_text) in sorted(CHARACTERIZATION_CASES.items()):
        with tempfile.TemporaryDirectory() as workdir, pytest.MonkeyPatch.context() as mp:
            cases[name] = characterize(argv, stdin_text, Path(workdir), mp)
    helps = {}
    for command in [None] + SUBCOMMANDS:
        with pytest.MonkeyPatch.context() as mp:
            argv = ["--help"] if command is None else [command, "--help"]
            helps[command or ""] = render_help(argv, mp)
    version = f"{sys.version_info[0]}.{sys.version_info[1]}"
    golden = {"cases": cases, "parser": parser_signature(), "help": {version: helps}}
    GOLDEN_PATH.write_text(
        json.dumps(golden, ensure_ascii=False, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py
    record_golden()
