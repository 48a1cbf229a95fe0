"""CLI subcommands: piping, manifests, config precedence, determinism."""

import io
import json
import subprocess
import sys

import pytest

from morphmt.cli import main

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


class TestUtf8Strictness:
    def test_invalid_bytes_abort(self, run, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"valid start \xff\xfe invalid\n")
        code, _, err = run(["bpe-revert", str(bad)])
        assert code == 1
        assert "UTF-8" in err


class TestConsoleScript:
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
