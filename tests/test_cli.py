import errno
import hashlib
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cadict
from cadict import cli, embeddings
from cadict.embeddings import CACHE_MAGIC, load_cache, load_vectors, save_cache
from cadict.cli import (
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    _load_predictions,
    _parse_x_values,
    main,
)
from cadict.errors import write_json
from cadict.lexicon import load_frequencies, load_ratings
from cadict.rater import SemanticCore, load_core
from cadict.search import SearchConfig

from conftest import cache_from_records


def run(argv):
    """Invoke the CLI, normalizing argparse SystemExit into a return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small clustered corpus written as real input files."""
    root = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(101)
    n, d = 60, 8
    latent = np.linspace(-1.0, 1.0, n)
    vectors = np.zeros((n, d))
    vectors[:, 0] = latent
    vectors += rng.normal(0.0, 0.05, size=(n, d))
    tokens = [f"w{i:03d}" for i in range(n)]

    cache = cache_from_records(root / "vectors.txt", list(zip(tokens, vectors)))
    ratings_path = root / "ratings.tsv"
    ratings_path.write_text(
        "".join(f"{t}\t{3.0 + 2.0 * c}\n" for t, c in zip(tokens, latent)),
        encoding="utf-8")
    freq_path = root / "freq.tsv"
    freq_path.write_text(
        "".join(f"{t}\t{n - i}\n" for i, t in enumerate(tokens)), encoding="utf-8")
    return {"root": root, "vectors": cache, "text": root / "vectors.txt",
            "ratings": ratings_path, "freq": freq_path, "tokens": tokens}


def search_args(corpus, outdir, **extra):
    args = [
        "search",
        "--ratings", str(corpus["ratings"]),
        "--freq", str(corpus["freq"]),
        "--vectors", str(corpus["vectors"]),
        "--x", "60",
        "--y-start", "10", "--y-step", "10",
        "--z-min", "2", "--z-step", "4",
        "--samples", "20",
        "--seed", "11",
        "--out-report", str(outdir / "report.json"),
        "--out-core", str(outdir / "core.json"),
    ]
    for flag, value in extra.items():
        args += [flag, str(value)]
    return args


def test_every_public_name_resolves():
    # a stale __all__ entry breaks `from cadict import *`
    assert [name for name in cadict.__all__ if not hasattr(cadict, name)] == []


def test_the_public_store_reader_reads_a_cache():
    # text is parsed by `cadict cache-vectors` alone; a caller loads its cache
    assert "load_cache" in cadict.__all__
    assert not {"load_vectors", "open_store"} & set(cadict.__all__)


@pytest.mark.parametrize("command, tables", [("search", "ratings, frequencies"),
                                             ("rate", "word list")])
def test_vectors_help_names_the_cache(capsys, command, tables):
    assert run([command, "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert "--vectors VECTORS binary cache written by `cadict cache-vectors`" in text
    assert (f"lowercase the tokens of the tables ({tables}) at load (default: on); "
            "a cache's tokens were folded, or not, by cache-vectors") in text


class TestParseXValues:
    def test_range_syntax(self):
        assert _parse_x_values("500:2500:500") == (500, 1000, 1500, 2000, 2500)

    def test_single_value(self):
        assert _parse_x_values("300") == (300,)

    def test_comma_list(self):
        assert _parse_x_values("100,200") == (100, 200)

    def test_bad_specs_rejected(self, corpus, tmp_path, capsys):
        # syntax errors are the parser's; bad values are SearchConfig's
        for bad, message in [
            ("0:100:10", "x_values must be distinct positive integers, got (0, 10, 20,"),
            ("0:100000:10", "got (0, 10, 20, 30, 40, 50, ...)\n"),  # a long range abbreviated
            ("100:50:10", "x_values must be distinct positive integers, got ()"),
            ("1:10", "bad x specification '1:10': range syntax is start:stop:step"),
            ("a:b:c", "bad x specification 'a:b:c': invalid literal"),
            ("-5", "x_values must be distinct positive integers, got (-5,)"),
            ("10,0", "x_values must be distinct positive integers, got (10, 0)"),
            ("500,500", "x_values must be distinct positive integers, got (500, 500)"),
            ("5:10:0", "bad x specification '5:10:0': step must be >= 1"),
            ("10:5:-1", "bad x specification '10:5:-1': step must be >= 1"),
        ]:
            assert run(search_args(corpus, tmp_path, **{"--x": bad})) == EXIT_USAGE
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()


# a 259-cell grid over two base sizes: every Y from 3 and every Z from 1
FINE_GRID = {"--x": "30,60", "--y-start": 3, "--y-step": 1, "--z-min": 1, "--z-step": 1,
             "--samples": 100, "--seed": 5}


class TestSearchCommand:
    def test_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(
            ["search", "--ratings", "r", "--freq", "f", "--vectors", "v"])
        defaults = vars(SearchConfig())
        assert {name: getattr(args, name) for name in defaults} == defaults

    def test_happy_path_writes_outputs(self, corpus, tmp_path, capsys):
        code = run(search_args(corpus, tmp_path,
                               **{"--out-landscape": tmp_path / "landscape.tsv"}))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["kind"] == "search_report"
        assert report["cells"]
        assert report["best_overall"]["best_r_s"] >= 0.9
        assert report["manifest"]["command"] == "search"
        assert report["manifest"]["inputs"]["vectors"]["sha256"]
        core = json.loads((tmp_path / "core.json").read_text())
        assert core["kind"] == "semantic_core"
        assert len(core["seed_abstract"]) == core["z"]
        assert core["provenance"]["rng_seed"] == 11
        # the one objective stays echoed as the last config key in every output
        for config in (report["config"], core["provenance"]["config"],
                       report["manifest"]["config"]):
            assert list(config.items())[-1] == ("evaluation_scope", "base_dictionary")
        landscape = (tmp_path / "landscape.tsv").read_text().splitlines()
        assert landscape[0] == "x\ty\tz\tbest_r_s"
        assert len(landscape) == 1 + len(report["cells"])
        out = capsys.readouterr().out
        assert "best r_s" in out

    def test_rerun_byte_identical_modulo_timing(self, corpus, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        assert run(search_args(corpus, d1)) == EXIT_OK
        assert run(search_args(corpus, d2)) == EXIT_OK
        r1 = json.loads((d1 / "report.json").read_text())
        r2 = json.loads((d2 / "report.json").read_text())
        r1.pop("timing"), r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert (d1 / "core.json").read_bytes() == (d2 / "core.json").read_bytes()

    def test_missing_file_is_data_error(self, corpus, tmp_path):
        args = search_args(corpus, tmp_path)
        args[args.index("--ratings") + 1] = str(tmp_path / "nope.tsv")
        assert run(args) == EXIT_DATA

    def test_infeasible_x_everywhere_exits_3(self, corpus, tmp_path):
        args = search_args(corpus, tmp_path)
        args[args.index("--x") + 1] = "5000"
        assert run(args) == EXIT_INFEASIBLE

    def test_x_without_feasible_y_gives_reason(self, corpus, tmp_path, capsys):
        args = search_args(corpus, tmp_path)
        args[args.index("--x") + 1] = "3"
        assert run(args) == EXIT_INFEASIBLE
        assert "no (Y, Z) cell: X/3 = 1, y_start = 10, z_min = 2" in capsys.readouterr().err

    def test_one_word_base_gives_reason(self, corpus, tmp_path, capsys):
        args = search_args(corpus, tmp_path, **{"--x": 1})
        assert run(args) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "zero feasible cells (evaluation needs at least 2 words)" in err

    @pytest.mark.parametrize("samples", [10**17, 10**19])
    def test_samples_too_large_to_allocate_exits_3(self, tmp_path, capsys, samples):
        # 120 words give Y = 40 and C(40, 20)^2 > 10**19 pairs: numpy refuses
        # the seed arrays before touching memory, and the one cell is skipped
        tokens = [f"w{i:03d}" for i in range(120)]
        latent = np.linspace(-1.0, 1.0, len(tokens))
        wide = {"vectors": cache_from_records(tmp_path / "vectors.txt", [
                    (t, [c, 0.1 * (i % 7) + 0.5]) for i, (t, c) in enumerate(zip(tokens, latent))]),
                "ratings": tmp_path / "ratings.tsv", "freq": tmp_path / "freq.tsv"}
        wide["ratings"].write_text("".join(f"{t}\t{3.0 + 2.0 * c}\n"
                                           for t, c in zip(tokens, latent)), encoding="utf-8")
        wide["freq"].write_text("".join(f"{t}\t{1000 - i}\n" for i, t in enumerate(tokens)),
                                encoding="utf-8")
        args = search_args(wide, tmp_path, **{"--x": 120, "--y-start": 40, "--z-min": 20,
                                             "--z-step": 100, "--samples": samples})
        assert run(args) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert f"seed draws too large to allocate: k = {samples} pairs of z = 20" in err

    def test_partially_skipped_sweep_still_succeeds(self, corpus, tmp_path):
        args = search_args(corpus, tmp_path)
        args[args.index("--x") + 1] = "60,5000"
        assert run(args) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["cells"]
        assert report["skipped"][0]["x"] == 5000

    def test_progress_is_logged_with_an_eta(self, corpus, tmp_path, caplog):
        args = search_args(corpus, tmp_path, **FINE_GRID)
        with caplog.at_level("INFO", logger="cadict.search"):
            assert run(args) == EXIT_OK
        progress = [r.getMessage() for r in caplog.records if " cells, " in r.getMessage()]
        assert 1 <= len(progress) <= 11
        assert all(re.fullmatch(r"\d+/259 cells, \d+\.\d s elapsed, ETA \d+\.\d s", m)
                   for m in progress)
        assert progress[-1].startswith("259/259 cells, ")

    def test_report_pinned_across_versions(self, corpus, tmp_path):
        # reruns agree within a version; this digest holds the fine grid's
        # every cell, core and score fixed across versions too
        assert run(search_args(corpus, tmp_path, **FINE_GRID)) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        report.pop("timing"), report.pop("manifest")
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == \
            "ee673a808dfe1066cecf13e89a80f635b98426a58b31bbfae48e4e5a5df3bc57"

    def test_usage_error_exits_1(self, corpus, tmp_path, capsys):
        assert run(["search", "--ratings", "r.tsv"]) == EXIT_USAGE
        assert run(["bogus-command"]) == EXIT_USAGE
        for flag, value in (("--threads", 2), ("--scope", "full_lexicon")):  # deleted options
            capsys.readouterr()
            assert run(search_args(corpus, tmp_path, **{flag: value})) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "Traceback" not in err
            assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--y-start", "0", "y_start must be >= 1, got 0"),
        ("--y-step", "0", "y_step must be >= 1, got 0"),
        ("--z-min", "0", "z_min must be >= 1, got 0"),
        ("--z-step", "-3", "z_step must be >= 1, got -3"),
        ("--samples", "0", "samples_per_cell must be >= 1, got 0"),
        ("--seed", "-1", "rng_seed must be >= 0, got -1"),
        ("--seed", "1.5", "argument --seed: invalid int value: '1.5'"),
    ])
    def test_bad_option_is_usage_error_naming_the_field(self, corpus, tmp_path, capsys,
                                                        flag, value, message):
        assert run(search_args(corpus, tmp_path, **{flag: value})) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        # the search subcommand reports it, whether argparse or SearchConfig refused
        assert err[0].startswith("usage: cadict search ")
        assert err[-1] == f"cadict search: error: {message}"
        assert not (tmp_path / "report.json").exists()

    def test_value_error_in_search_propagates(self, corpus, tmp_path, monkeypatch):
        # only the SearchConfig call is a usage error; a ValueError after it is a bug
        def broken(*args, **kwargs):
            raise ValueError("internal bug")
        monkeypatch.setattr(cli, "search_grid", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(search_args(corpus, tmp_path))


class TestRateCommand:
    @pytest.fixture()
    def core_file(self, corpus, tmp_path):
        assert run(search_args(corpus, tmp_path)) == EXIT_OK
        return tmp_path / "core.json"

    def test_rate_whole_store(self, corpus, core_file, tmp_path):
        out = tmp_path / "dict.tsv"
        code = run(["rate", "--core", str(core_file),
                    "--vectors", str(corpus["vectors"]), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == len(corpus["tokens"])
        assert (tmp_path / "dict.tsv.manifest.json").exists()
        assert (tmp_path / "dict.tsv.skipped.txt").read_text() == ""

    def test_rate_word_list_with_oov(self, corpus, core_file, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("w005\nw010\nUNSEEN\n", encoding="utf-8")
        out = tmp_path / "dict.tsv"
        code = run(["rate", "--core", str(core_file),
                    "--vectors", str(corpus["vectors"]),
                    "--words", str(words), "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 2
        assert (tmp_path / "dict.tsv.skipped.txt").read_text() == "unseen\n"

    def test_drops_are_reported(self, corpus, core_file, tmp_path, capsys, caplog):
        text, vectors = tmp_path / "vectors.txt", tmp_path / "vectors.cavs"
        text.write_text(corpus["text"].read_text(encoding="utf-8")
                        + "zero " + " ".join(["0"] * 8) + "\n"
                        + "unrated " + " ".join(["1"] * 8) + "\n", encoding="utf-8")
        capsys.readouterr()
        with caplog.at_level("DEBUG"):
            assert run(["cache-vectors", "--vectors", str(text),
                        "--out", str(vectors)]) == EXIT_OK
        assert f"dropped from {text}: zero_norm_skipped=1" in \
            capsys.readouterr().out.splitlines()
        # reported once, on stdout: the library logs no drop counts of its own
        assert not [r for r in caplog.records if "zero_norm_skipped" in r.getMessage()]

        words = tmp_path / "words.txt"
        words.write_text("w005\nw010\nzero\nw005\n", encoding="utf-8")
        out = tmp_path / "dict.tsv"
        assert run(["rate", "--core", str(core_file), "--vectors", str(vectors),
                    "--words", str(words), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        # the words and the core's seeds load; the cache's other words are filtered out
        assert any(line.startswith(f"dropped from {vectors}: filtered_out=") for line in printed)
        assert f"dropped from {words}: duplicates_ignored=1" in printed
        assert [line.split("\t")[0] for line in out.read_text().splitlines()] == \
            ["w005", "w010"]
        assert (tmp_path / "dict.tsv.skipped.txt").read_text() == "zero\n"

        # the other commands print the same line for each of their inputs
        ratings, freq = tmp_path / "ratings.tsv", tmp_path / "freq.tsv"
        ratings.write_text(corpus["ratings"].read_text(encoding="utf-8")
                           + "ice cream\t3\nw005\t3\n", encoding="utf-8")
        freq.write_text(corpus["freq"].read_text(encoding="utf-8") + "w005\t3\nunrated\t3\n",
                        encoding="utf-8")
        (tmp_path / "search").mkdir()
        argv = search_args({**corpus, "ratings": ratings, "freq": freq, "vectors": vectors},
                           tmp_path / "search")
        assert run(argv) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert f"dropped from {ratings}: multiword_excluded=1, duplicates_ignored=1" in printed
        # only rated words load, from the frequencies as from the vectors
        assert f"dropped from {freq}: duplicates_ignored=1, filtered_out=1" in printed
        assert f"dropped from {vectors}: filtered_out=1" in printed

        assert run(["evaluate", "--pred", str(freq), "--gold", str(ratings)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        # only gold words' predictions load: `unrated` is filtered out
        assert f"dropped from {freq}: duplicates_ignored=1, filtered_out=1" in printed
        assert f"dropped from {ratings}: multiword_excluded=1, duplicates_ignored=1" in printed

    def test_ratings_tsv_as_words_rates_first_column(self, corpus, core_file, tmp_path):
        out = tmp_path / "dict.tsv"
        assert run(["rate", "--core", str(core_file), "--vectors", str(corpus["vectors"]),
                    "--words", str(corpus["ratings"]), "--out", str(out)]) == EXIT_OK
        assert [line.split("\t")[0] for line in out.read_text().splitlines()] == \
            corpus["tokens"]
        assert (tmp_path / "dict.tsv.skipped.txt").read_text() == ""

    def test_word_list_with_tags_rates_its_first_word(self, corpus, core_file, tmp_path):
        # a second column that is no number does not make the first row a header
        words = tmp_path / "words.tsv"
        words.write_text("w005\tNOUN\nw010\tNOUN\nw020\tVERB\n", encoding="utf-8")
        out = tmp_path / "dict.tsv"
        assert run(["rate", "--core", str(core_file), "--vectors", str(corpus["vectors"]),
                    "--words", str(words), "--out", str(out)]) == EXIT_OK
        assert [line.split("\t")[0] for line in out.read_text().splitlines()] == \
            ["w005", "w010", "w020"]

    def test_core_store_mismatch_fatal(self, corpus, tmp_path):
        core = tmp_path / "core.json"
        core.write_text(json.dumps({
            "seed_abstract": ["w000"], "seed_concrete": ["not-in-store"],
        }))
        code = run(["rate", "--core", str(core),
                    "--vectors", str(corpus["vectors"]),
                    "--out", str(tmp_path / "d.tsv")])
        assert code == EXIT_DATA

    def test_rate_idempotent(self, corpus, core_file, tmp_path):
        out1, out2 = tmp_path / "d1.tsv", tmp_path / "d2.tsv"
        for out in (out1, out2):
            assert run(["rate", "--core", str(core_file),
                        "--vectors", str(corpus["vectors"]),
                        "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_fold_case_folds_the_word_list_not_the_cache(self, tmp_path):
        text, cache = tmp_path / "v.vec", tmp_path / "v.cavs"
        text.write_text("Dog 1 0\ncat 0 1\nsun 1 1\n", encoding="utf-8")
        assert run(["cache-vectors", "--vectors", str(text), "--out", str(cache),
                    "--no-fold-case"]) == EXIT_OK
        core = tmp_path / "core.json"
        core.write_text(json.dumps({"seed_abstract": ["cat"], "seed_concrete": ["sun"]}))
        words = tmp_path / "words.txt"
        words.write_text("Dog\ncat\n", encoding="utf-8")
        rated = {}
        for flag in ("--fold-case", "--no-fold-case"):
            out = tmp_path / f"{flag}.tsv"
            assert run(["rate", "--core", str(core), "--vectors", str(cache),
                        "--words", str(words), "--out", str(out), flag]) == EXIT_OK
            rated[flag] = [line.split("\t")[0] for line in out.read_text().splitlines()]
        # folded, the word is "dog", which the unfolded cache does not hold
        assert rated == {"--fold-case": ["cat"], "--no-fold-case": ["Dog", "cat"]}


class TestEvaluateCommand:
    def test_identity(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t2.5\nc\t3.5\nd\t4.5\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        code = run(["evaluate", "--pred", str(gold), "--gold", str(gold),
                    "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["r_s"] == 1.0
        assert doc["rho"] == 1.0
        assert doc["accuracy"] == 1.0
        assert doc["n"] == 4
        assert doc["manifest"]["command"] == "evaluate"

    def test_reversal(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t2.5\nc\t3.5\nd\t4.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\t4.5\nb\t3.5\nc\t2.5\nd\t1.5\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold),
                    "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["r_s"] == -1.0

    def test_disjoint_vocabulary_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t4.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("x\t1.5\ny\t4.5\n", encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "error: prediction/gold empty join; need at least 2 shared tokens\n"

    @pytest.mark.parametrize("text", ["token\tscore\n", "\n\n", " \t2.0\n\t3.0\n"],
                             ids=["header", "blank", "no-token"])
    def test_no_prediction_row_is_data_error(self, tmp_path, capsys, text):
        # decided from the rows read, not from the gold words kept
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t4.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text(text, encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {pred}: no predictions found\n"

    def test_non_gold_rows_change_only_the_drop_line(self, tmp_path, capsys):
        # a dictionary TSV with a header, rows of words outside the gold and a
        # repeated such word gives the report of its gold rows, byte for byte
        gold = tmp_path / "gold.tsv"
        gold.write_text("word\trating\na\t1.5\nb\t2.5\nc\t3.0\nd\t4.5\nunused\t2.0\n",
                        encoding="utf-8")
        header = "token\traw_ratio\tscaled\tfloored\n"
        rows = {"a": "0.5\t1.0\t0", "b": "1.25\t2.5\t0", "c": "0.75\t1.8\t1",
                "d": "2.0\t5.0\t0"}
        lines = [f"{t}\t{r}\n" for t, r in rows.items()]
        full, only = tmp_path / "full.tsv", tmp_path / "only.tsv"
        full.write_text(header + "x\t9.0\t5.0\t0\n" + "".join(lines[:2]) + "Y\t0.1\t1.0\t0\n"
                        + "x\t3.0\t3.0\t0\n" + "".join(lines[2:]) + "A\t7.0\t5.0\t0\n",
                        encoding="utf-8")
        only.write_text(header + "".join(lines), encoding="utf-8")
        reports = {}
        for pred in (full, only):
            out = tmp_path / f"{pred.stem}.json"
            assert run(["evaluate", "--pred", str(pred), "--gold", str(gold),
                        "--out", str(out)]) == EXIT_OK
            printed = capsys.readouterr().out.splitlines()
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc.pop("manifest")["inputs"]["pred"]["path"] == str(pred)
            reports[pred] = (json.dumps(doc, indent=2), printed[1:5], printed[5:])
        assert reports[full][:2] == reports[only][:2]
        assert json.loads(reports[full][0])["n"] == 4
        # the first row of `a` wins; the three rows of x and Y are not gold words
        assert reports[full][2] == [f"dropped from {full}: duplicates_ignored=1, "
                                    "filtered_out=3"]
        assert reports[only][2] == []

    def test_bad_non_gold_row_is_data_error(self, tmp_path, capsys):
        # every row is parsed and checked, a gold word's or not
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t2.5\nc\t3.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\t1.0\nb\t2.0\nc\t3.0\nzebra\tnan\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold),
                    "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {pred}: line 4: non-finite rating 'nan'\n"
        assert not out.exists()

    def test_filtered_predictions_are_the_join_in_file_order(self, tmp_path):
        pred = tmp_path / "pred.tsv"
        pred.write_text("d\t4.0\nx\t1.0\nB\t2.0\na\t1.0\nb\t9.0\ny\t2.0\nx\t3.0\n",
                        encoding="utf-8")
        gold = {"a": 1.5, "b": 2.5, "c": 3.5, "d": 4.5}
        preds, report = _load_predictions(pred, True, vocab_filter=gold)
        assert list(preds.items()) == [("d", 4.0), ("b", 2.0), ("a", 1.0)]
        assert report.accepted == 3 and report.filtered_out == 3
        assert report.duplicates_ignored == 1
        everything, _ = _load_predictions(pred, True)
        assert list(preds) == [t for t in everything if t in gold]

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_prediction_is_data_error(self, tmp_path, capsys, value):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t2.5\nc\t3.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text(f"a\t1.0\nb\t{value}\nc\t3.0\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold),
                    "--out", str(out)]) == EXIT_DATA
        assert f"line 2: non-finite rating '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values, rho", [
        (("1e200", "2e200", "3e201"), "0.880812"),  # the same as 1, 2, 30
        (("1.7e308", "-1.7e308", "1e308"), None),
    ], ids=["1e200", "1.7e308"])
    def test_huge_predictions_give_a_finite_rho(self, tmp_path, capsys, values, rho):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t2.5\nc\t3.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("".join(f"{t}\t{v}\n" for t, v in zip("abc", values)), encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == EXIT_OK
        printed = capsys.readouterr().out.split("rho = ")[1].split()[0]
        assert math.isfinite(float(printed))
        if rho is not None:
            assert printed == rho

    def test_thresholds_are_echoed_and_decide_accuracy(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t2.5\nc\t3.0\nd\t4.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\t1.0\nb\t2.5\nc\t3.0\nd\t4.0\n", encoding="utf-8")
        out = tmp_path / "eval.json"
        argv = ["evaluate", "--pred", str(pred), "--gold", str(gold), "--out", str(out)]
        # the defaults (gold 3.0, pred median 2.75) split both sides alike
        assert run(argv) == EXIT_OK
        assert json.loads(out.read_text())["accuracy"] == 1.0
        assert run(argv + ["--threshold-gold", "3.5", "--threshold-pred", "2.0"]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert (doc["threshold_gold"], doc["threshold_pred"]) == (3.5, 2.0)
        assert doc["manifest"]["config"]["threshold_gold"] == 3.5
        assert doc["manifest"]["config"]["threshold_pred"] == 2.0
        assert doc["accuracy"] == 0.5  # only a (below both) and d (above both) agree
        assert "accuracy = 0.500000 (gold >= 3.5, pred >= 2.0)" in capsys.readouterr().out

    def test_inputs_are_hashed_only_for_a_written_report(self, tmp_path, monkeypatch):
        # the manifest's digests read both inputs again; without --out nothing keeps them
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t2.5\nc\t3.5\nd\t4.5\n", encoding="utf-8")
        hashed, sha256 = [], cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
        argv = ["evaluate", "--pred", str(gold), "--gold", str(gold)]
        assert run(argv) == EXIT_OK
        assert hashed == []
        out = tmp_path / "eval.json"
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        assert hashed == [str(gold), str(gold)]
        # the report's bytes: its fields in order, then the manifest
        digest = {"path": str(gold), "sha256": hashlib.sha256(gold.read_bytes()).hexdigest()}
        assert out.read_text(encoding="utf-8") == json.dumps({
            "format_version": 1, "kind": "evaluation_report", "r_s": 1.0, "rho": 1.0,
            "accuracy": 1.0, "n": 4, "threshold_gold": 3.0, "threshold_pred": 3.0,
            "manifest": {"command": "evaluate", "tool_version": cadict.__version__,
                         "rng_seed": None, "inputs": {"pred": digest, "gold": digest},
                         "config": {"threshold_gold": 3.0, "threshold_pred": None,
                                    "fold_case": True}},
        }, indent=2) + "\n"

    def test_digest_reads_through_one_small_buffer(self, tmp_path):
        # every size around the buffer's, and a file whose reads would each
        # allocate a MiB if the hash did not reuse its buffer
        blob = np.random.default_rng(3).bytes(3 << 20)
        for size in (0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 << 20):
            path = tmp_path / f"{size}.bin"
            path.write_bytes(blob[:size])
            tracemalloc.start()
            try:
                digest = cli._sha256(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert digest == hashlib.sha256(blob[:size]).hexdigest()
            assert peak < 1 << 17

    def test_unparseable_prediction_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t2.5\nc\t3.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("a\t1.0\nb\t2,5\nc\t3.0\n", encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {pred}: line 2: unparseable rating '2,5'\n"

    def test_json_writer_refuses_nan(self, tmp_path):
        out = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            write_json(out, {"rho": float("nan")})
        assert not out.exists()

    def test_dictionary_tsv_as_predictions(self, corpus, tmp_path):
        assert run(search_args(corpus, tmp_path)) == EXIT_OK
        dict_out = tmp_path / "dict.tsv"
        assert run(["rate", "--core", str(tmp_path / "core.json"),
                    "--vectors", str(corpus["vectors"]),
                    "--out", str(dict_out)]) == EXIT_OK
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--pred", str(dict_out),
                    "--gold", str(corpus["ratings"]), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n"] == len(corpus["tokens"])
        assert doc["r_s"] >= 0.9


class TestCacheCommand:
    def test_cache_then_search_from_cache(self, corpus, tmp_path):
        cache = tmp_path / "vectors.cavs"
        assert run(["cache-vectors", "--vectors", str(corpus["text"]),
                    "--out", str(cache)]) == EXIT_OK
        assert cache.read_bytes() == corpus["vectors"].read_bytes()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        assert run(search_args(corpus, d1)) == EXIT_OK
        args = search_args(corpus, d2)
        args[args.index("--vectors") + 1] = str(cache)
        assert run(args) == EXIT_OK
        r1 = json.loads((d1 / "report.json").read_text())
        r2 = json.loads((d2 / "report.json").read_text())
        assert json.dumps(r1["cells"]) == json.dumps(r2["cells"])
        assert json.dumps(r1["best_overall"]) == json.dumps(r2["best_overall"])

    def test_default_cache_dir_env(self, corpus, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cachedir"
        monkeypatch.setenv("CADICT_CACHE_DIR", str(cache_dir))
        assert run(["cache-vectors", "--vectors", str(corpus["text"])]) == EXIT_OK
        assert (cache_dir / "vectors.cavs").read_bytes() == corpus["vectors"].read_bytes()

    # a header, a case-fold collision, an exact duplicate, a zero row, a
    # non-finite row and a row whose squares overflow, over several blocks
    VECTORS = ("3 3\nThe 1 0 0\nthe 0 1 0\nzero 0 0 0\nb -2.5 0.5 3e-1\nnan nan 1 0\n"
               "b 1 1 1\nbig 1e200 -1e200 1e200\nc 2 7 -0.5\nD 0 0 1\nd 1 2 3\n")

    @pytest.mark.parametrize("block_lines", [1, 3, 1024])
    @pytest.mark.parametrize("fold_flag", ["--fold-case", "--no-fold-case"])
    def test_cache_equals_the_saved_store(self, tmp_path, monkeypatch, block_lines, fold_flag):
        # the parsed blocks written straight to disk are the bytes of the saved store
        path = tmp_path / "v.vec"
        path.write_text(self.VECTORS, encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", block_lines)
        cache, saved = tmp_path / "v.cavs", tmp_path / "saved.cavs"
        assert run(["cache-vectors", "--vectors", str(path), "--out", str(cache),
                    fold_flag]) == EXIT_OK
        save_cache(load_vectors(path, fold_case=fold_flag == "--fold-case"), saved)
        assert cache.read_bytes() == saved.read_bytes()

    def test_header_after_blank_lines(self, tmp_path, capsys):
        path, out = tmp_path / "v.vec", tmp_path / "v.cavs"
        path.write_text("\n2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        assert run(["cache-vectors", "--vectors", str(path), "--out", str(out)]) == EXIT_OK
        assert f"cached 2 vector(s) of dimension 3 -> {out}" in capsys.readouterr().out
        assert load_cache(out).tokens == ("a", "b")

    def test_bad_record_in_a_later_block_leaves_the_old_cache(self, tmp_path, monkeypatch,
                                                              capsys):
        # the blocks before the bad one are staged, yet the old cache is not
        # opened and the staging file does not outlive the command
        path, out = tmp_path / "v.vec", tmp_path / "v.cavs"
        path.write_text(self.VECTORS, encoding="utf-8")
        assert run(["cache-vectors", "--vectors", str(path), "--out", str(out)]) == EXIT_OK
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        path.write_text(self.VECTORS + "e 1 2\n", encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 3)
        capsys.readouterr()
        assert run(["cache-vectors", "--vectors", str(path), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == \
            f"error: {path}: line 12: expected 3 components, found 2\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p != path} == \
            {name: blob for name, blob in old.items() if name != path.name}

    @pytest.mark.parametrize("limit", [
        pytest.param(40_000, id="staging"),  # under the 160,000 bytes of staged rows
        pytest.param(165_000, id="cache"),  # over them, under the cache's 171,000
    ])
    def test_a_failed_write_names_the_out_file(self, tmp_path, limit):
        # a file-size limit set in the command's process: Python ignores
        # SIGXFSZ, so the first write past the limit fails with EFBIG
        path, out = tmp_path / "v.vec", tmp_path / "v.cavs"
        rng = np.random.default_rng(13)
        path.write_text("".join(f"w{i} {' '.join(map(str, row))}\n" for i, row in
                                enumerate(rng.normal(size=(2000, 10)).round(3).tolist())),
                        encoding="utf-8")
        src = str(Path(cadict.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-B", "-m", "cadict.cli", "cache-vectors", "--vectors", str(path),
             "--out", str(out), "--processes", "1"],
            env=env, capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)))
        assert (done.returncode, done.stderr) == (
            EXIT_DATA, f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{out}'\n")
        assert [p.name for p in tmp_path.iterdir()
                if ".staging." in p.name or ".tokens." in p.name] == []

    def test_pipe_is_refused(self, tmp_path, capsys):
        # the manifest hashes the input in a second read, which a pipe cannot give
        read_fd, write_fd = os.pipe()
        os.write(write_fd, b"a 1 0\nb 0 1\n")
        os.close(write_fd)
        out = tmp_path / "v.cavs"
        try:
            assert run(["cache-vectors", "--vectors", f"/dev/fd/{read_fd}",
                        "--out", str(out)]) == EXIT_DATA
        finally:
            os.close(read_fd)
        assert capsys.readouterr().err == (
            f"error: /dev/fd/{read_fd}: not a regular file; it is read twice, "
            "to parse it and to hash it for the manifest\n")
        assert list(tmp_path.iterdir()) == []


def _cache_bytes(tokens: list[str], rows) -> bytes:
    """A cache file as save_cache lays it out, with any tokens and rows."""
    rows = np.asarray(rows, dtype="<f8")
    header = json.dumps({"count": len(tokens), "dimension": rows.shape[1], "dtype": "<f8",
                         "source_id": "x", "version": 1}).encode()
    blob = "\n".join(tokens).encode()
    return (CACHE_MAGIC + struct.pack("<I", len(header)) + header
            + struct.pack("<Q", len(blob)) + blob + rows.tobytes())


BAD_INPUTS = {
    # case: (file name, file bytes, the argv that reads it)
    "ratings not utf-8": ("r.tsv", b"dog\t4.5\n\xff\t3\n",
                          ["search", "--ratings", "{bad}", "--freq", "{freq}",
                           "--vectors", "{vectors}", "--out-report", "{out}"]),
    "freq not utf-8": ("f.tsv", b"dog\t4\n\xc3\t3\n",
                       ["search", "--ratings", "{ratings}", "--freq", "{bad}",
                        "--vectors", "{vectors}", "--out-report", "{out}"]),
    "freq is a ratings file": ("r.tsv", b"w000\t1.0\nw030\t3.0\nw059\t5.0\n",
                               ["search", "--ratings", "{ratings}", "--freq", "{bad}",
                                "--vectors", "{vectors}", "--out-report", "{out}"]),
    "predictions not utf-8": ("p.tsv", b"w001\t1.0\n\xfe\t2.0\n",
                              ["evaluate", "--pred", "{bad}", "--gold", "{ratings}",
                               "--out", "{out}"]),
    "vectors text not utf-8": ("v.txt", b"a 1 0\n\xff 0 1\n",
                               ["cache-vectors", "--vectors", "{bad}", "--out", "{out}"]),
    "vectors text to search": ("v.txt", b"w000 1 0\nw059 0 1\n",
                               ["search", "--ratings", "{ratings}", "--freq", "{freq}",
                                "--vectors", "{bad}", "--out-report", "{out}"]),
    "vectors text to rate": ("v.txt", b"w000 1 0\nw059 0 1\n",
                             ["rate", "--core", "{core}", "--vectors", "{bad}", "--out", "{out}"]),
    "word list not utf-8": ("words.txt", b"w001\n\xff\n",
                            ["rate", "--core", "{core}", "--vectors", "{vectors}",
                             "--words", "{bad}", "--out", "{out}"]),
    "core not utf-8": ("core.json", b'{"seed_abstract": ["\xff"], "seed_concrete": ["a"]}',
                       ["rate", "--core", "{bad}", "--vectors", "{vectors}", "--out", "{out}"]),
    "cache duplicate token": ("c.cavs", _cache_bytes(["a", "a"], [[1, 0], [0, 1]]),
                              ["rate", "--core", "{core}", "--vectors", "{bad}", "--out", "{out}"]),
    "cache blank token": ("c.cavs", _cache_bytes(["a", ""], [[1, 0], [0, 1]]),
                          ["rate", "--core", "{core}", "--vectors", "{bad}", "--out", "{out}"]),
    "cache rows not unit": ("c.cavs", _cache_bytes(["a", "b"], [[2, 0], [0, 1]]),
                            ["rate", "--core", "{core}", "--vectors", "{bad}", "--out", "{out}"]),
    "cache rows not finite": ("c.cavs", _cache_bytes(["a", "b"], [[np.nan, 0], [0, 1]]),
                              ["rate", "--core", "{core}", "--vectors", "{bad}", "--out", "{out}"]),
    "cache token count mismatch": ("c.cavs", _cache_bytes(["a\nb"], [[1, 0]]),
                                   ["rate", "--core", "{core}", "--vectors", "{bad}",
                                    "--out", "{out}"]),
    "cache with bytes after its rows": ("c.cavs",
                                        _cache_bytes(["a", "b"], [[1, 0], [0, 1]]) + b"\0",
                                        ["rate", "--core", "{core}", "--vectors", "{bad}",
                                         "--out", "{out}"]),
    "cache holds no filtered word": ("c.cavs", _cache_bytes(["a", "b"], [[1, 0], [0, 1]]),
                                     ["rate", "--core", "{core}", "--vectors", "{bad}",
                                      "--words", "{ratings}", "--out", "{out}"]),
    "constant predictions": ("p.tsv", b"w001\t2.0\nw030\t2.0\nw059\t2.0\n",
                             ["evaluate", "--pred", "{bad}", "--gold", "{ratings}",
                              "--out", "{out}"]),
    "constant gold": ("g.tsv", b"w001\t2.0\nw030\t2.0\nw059\t2.0\n",
                      ["evaluate", "--pred", "{ratings}", "--gold", "{bad}", "--out", "{out}"]),
}


class TestInputErrors:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_is_one_line_data_error(self, corpus, tmp_path, capsys, case):
        name, blob, argv = BAD_INPUTS[case]
        bad = tmp_path / name
        bad.write_bytes(blob)
        core = tmp_path / "good-core.json"
        core.write_text(json.dumps({"seed_abstract": ["w000"], "seed_concrete": ["w059"]}))
        paths = {"bad": bad, "core": core, "out": tmp_path / "out",
                 **{k: corpus[k] for k in ("ratings", "freq", "vectors")}}
        assert run([a.format(**paths) for a in argv]) == EXIT_DATA
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}")
        if case.startswith("vectors text to "):  # search and rate read a cache only
            assert "cadict cache-vectors" in err[0]

    @staticmethod
    def _argv(corpus, tmp_path, command):
        """A run of `command` that succeeds and writes into ``tmp_path/out``."""
        out = tmp_path / "out"
        out.mkdir()
        core = tmp_path / "core.json"
        core.write_text(json.dumps({"seed_abstract": ["w000"], "seed_concrete": ["w059"]}))
        return {
            "search": search_args(corpus, out) + ["--out-landscape", str(out / "landscape.tsv")],
            "rate": ["rate", "--core", str(core), "--vectors", str(corpus["vectors"]),
                     "--words", str(corpus["ratings"]), "--out", str(out / "dict.tsv")],
            "evaluate": ["evaluate", "--pred", str(corpus["ratings"]),
                         "--gold", str(corpus["ratings"]), "--out", str(out / "eval.json")],
            "cache-vectors": ["cache-vectors", "--vectors", str(corpus["text"]),
                              "--out", str(out / "v.cavs")],
        }[command]

    @pytest.mark.parametrize("command, flag", [
        ("search", "--ratings"), ("search", "--freq"), ("search", "--vectors"),
        ("rate", "--core"), ("rate", "--vectors"), ("rate", "--words"),
        ("evaluate", "--pred"), ("evaluate", "--gold"),
    ])
    def test_piped_input_is_one_line_data_error(self, corpus, tmp_path, capsys, command,
                                                flag):
        # the manifest hashes each input in a second read, which from a pipe would
        # give the digest of nothing; so the run is refused before it reads
        argv = self._argv(corpus, tmp_path, command)
        i = argv.index(flag) + 1
        read_fd, write_fd = os.pipe()
        os.write(write_fd, Path(argv[i]).read_bytes())  # less than a pipe holds
        os.close(write_fd)
        argv[i] = f"/dev/fd/{read_fd}"
        try:
            assert run(argv) == EXIT_DATA
        finally:
            os.close(read_fd)
        assert capsys.readouterr().err.splitlines() == [
            f"error: /dev/fd/{read_fd}: not a regular file; it is read twice, "
            "to parse it and to hash it for the manifest"]
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command, flag, written", [
        ("cache-vectors", "--vectors", "v.cavs"),
        ("cache-vectors", "--vectors", "v.cavs.manifest.json"),
        ("rate", "--words", "dict.tsv"),
        ("rate", "--words", "dict.tsv.skipped.txt"),
        ("search", "--ratings", "landscape.tsv"),
        ("evaluate", "--pred", "eval.json"),
    ])
    def test_an_output_that_is_an_input_is_usage_error(self, corpus, tmp_path, capsys,
                                                       command, flag, written):
        # the input is spelled with a ``./``, so only the file, not the string, is the same
        argv = self._argv(corpus, tmp_path, command)
        i = argv.index(flag) + 1
        target = tmp_path / "out" / written
        blob = Path(argv[i]).read_bytes()
        target.write_bytes(blob)
        argv[i] = os.path.join(tmp_path, "out", ".", written)
        assert run(argv) == EXIT_USAGE
        assert target.read_bytes() == blob
        assert list((tmp_path / "out").iterdir()) == [target]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"cadict {command}: error: {target} is written by this command, "
            f"and it is the input {argv[i]}")

    @pytest.mark.parametrize("flag, written", [
        ("--out-core", "report.json"),  # the core would replace the report
        ("--out-landscape", "core.json"),  # the landscape would replace the core
    ])
    def test_two_outputs_that_are_one_file_are_usage_error(self, corpus, tmp_path, capsys,
                                                           flag, written):
        # the second spelling has a ``./``, so only the file, not the string, is the same
        argv = self._argv(corpus, tmp_path, "search")
        first = argv[argv.index({"--out-core": "--out-report",
                                 "--out-landscape": "--out-core"}[flag]) + 1]
        argv[argv.index(flag) + 1] = second = os.path.join(tmp_path, "out", ".", written)
        assert run(argv) == EXIT_USAGE
        assert list((tmp_path / "out").iterdir()) == []
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"cadict search: error: {first} and {second} are one file, "
            "and this command writes both")

    @pytest.mark.parametrize("flag", ["--threshold-gold", "--threshold-pred"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, corpus, tmp_path, flag, value):
        argv = ["evaluate", "--pred", str(corpus["ratings"]), "--gold", str(corpus["ratings"]),
                "--out", str(tmp_path / "eval.json"), f"{flag}={value}"]
        assert run(argv) == EXIT_USAGE
        assert not (tmp_path / "eval.json").exists()

    def test_value_error_in_a_command_propagates(self, corpus, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal bug")
        monkeypatch.setattr(cli, "evaluate_ratings", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["evaluate", "--pred", str(corpus["ratings"]), "--gold", str(corpus["ratings"])])


def _cache_run(tmp_path, path, processes, capsys):
    """`cadict cache-vectors` of `path` with `--processes`: its exit code, its
    standard error, the cache and its manifest's bytes, and the other files of
    `tmp_path` (staging and token files would be among them)."""
    out = tmp_path / "out" / "v.cavs"
    out.parent.mkdir(exist_ok=True)
    code = run(["cache-vectors", "--vectors", str(path), "--out", str(out),
                "--processes", str(processes)])
    written = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
    for name in list(written):
        out.parent.joinpath(name).unlink()
    others = sorted(p.name for p in tmp_path.iterdir() if p != out.parent)
    return code, capsys.readouterr().err, written, others


class TestCacheProcesses:
    """`cache-vectors --processes`: children parse byte ranges of a large text;
    they run in this process here (the `children` fixture) but in a few tests."""

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_fewer_than_one_process_is_usage_error(self, corpus, tmp_path, capsys, value):
        out = tmp_path / "v.cavs"
        assert run(["cache-vectors", "--vectors", str(corpus["text"]), "--out", str(out),
                    "--processes", value]) == EXIT_USAGE
        assert "--processes" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="at least 1"):
            embeddings.cache_vectors(corpus["text"], out, processes=0)

    def test_default_is_the_usable_cpus(self):
        args = cli.build_parser().parse_args(["cache-vectors", "--vectors", "v.vec"])
        assert args.processes == len(os.sched_getaffinity(0))

    def test_a_small_file_starts_no_child(self, corpus, tmp_path, monkeypatch):
        # a million processes are asked for; a file under two MIN_RANGE_BYTES is
        # one range, parsed in this process
        started = []
        monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: started.append(args))
        cache = tmp_path / "v.cavs"
        assert run(["cache-vectors", "--vectors", str(corpus["text"]), "--out", str(cache),
                    "--processes", "1000000"]) == EXIT_OK
        assert started == []
        assert cache.read_bytes() == corpus["vectors"].read_bytes()

    def test_no_more_children_than_ranges(self, tmp_path, monkeypatch, children, capsys):
        # 18 bytes make 3 ranges of 6, and the first is 6 bytes longer than the others
        monkeypatch.setattr(embeddings, "MIN_RANGE_BYTES", 6)
        path = tmp_path / "v.vec"
        path.write_text("a 1 0\nb 0 1\nc 1 1\n", encoding="utf-8")
        many = _cache_run(tmp_path, path, 1000000, capsys)
        assert children == [(12, 18)]
        assert many == _cache_run(tmp_path, path, 1, capsys)
        assert many[0] == EXIT_OK

    # each `cache-vectors` case of BAD_INPUTS, and bad records and bytes in later ranges
    BAD_TEXTS = {
        **{case: blob for case, (_, blob, argv) in BAD_INPUTS.items()
           if argv[0] == "cache-vectors"},
        "bad record in range 2": b"a 1 0\nb 0 1\nc 1 1\nd 1 1 1\ne 1 0\nf 0 1\n",
        "unparseable record in range 3": b"a 1 0\nb 0 1\nc 1 1\nd 1 1\ne 1 0\nf x 1\n",
        "undecodable in range 3": b"a 1 0\nb 0 1\nc 1 1\nd 1 1\ne 1 0\n\xff 0 1\n",
        "no usable record": b"a 0 0\nb 0 0\nc nan 1\nd 0 0\ne 0 0\n",
    }

    @pytest.mark.parametrize("case", sorted(BAD_TEXTS))
    def test_bad_input_gives_one_error_at_every_process_count(self, tmp_path, children,
                                                             capsys, case):
        path = tmp_path / "v.vec"
        path.write_bytes(self.BAD_TEXTS[case])
        one = _cache_run(tmp_path, path, 1, capsys)
        code, err, written, others = one
        assert code == EXIT_DATA and written == {} and others == ["v.vec"]
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
        for processes in (2, 3):
            assert _cache_run(tmp_path, path, processes, capsys) == one
        assert len(children) == (2 if "utf-8" in case else 3)  # 1 child, then 2 (or 1)

    @pytest.mark.parametrize("code, stderr, how", [
        (1, b"Traceback (most recent call last):\n  ...\nMemoryError\n",
         "exited with code 1: MemoryError"),
        (-9, b"", "was killed by signal 9"),
    ])
    def test_a_child_that_fails_is_one_line_error(self, tmp_path, monkeypatch, children,
                                                  capsys, code, stderr, how):
        # the first child fails; the second, still running, is killed, and the
        # files of both are removed
        killed = []

        class Failed:
            def __init__(self, argv, **kwargs):
                self.returncode = None

            def communicate(self):
                self.returncode = code if not killed else -9
                return b"", stderr

            def kill(self):
                killed.append(self)

        monkeypatch.setattr(subprocess, "Popen", Failed)
        path = tmp_path / "v.vec"
        path.write_text("a 1 0\nb 0 1\nc 1 1\n", encoding="utf-8")
        assert _cache_run(tmp_path, path, 3, capsys) == (
            EXIT_DATA, f"error: {path}: the process parsing bytes 6-12 {how}\n", {}, ["v.vec"])
        assert len(killed) == 1

    def test_real_children_write_the_bytes_of_one_process(self, tmp_path, monkeypatch,
                                                          capsys):
        # children import the package afresh: BLOCK_LINES reaches them as an argument
        path = tmp_path / "v.vec"
        path.write_text(TestCacheCommand.VECTORS.replace("\nb 1 1 1\n", "\nb 1 x 1\n"),
                        encoding="utf-8")
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 2)
        one = _cache_run(tmp_path, path, 1, capsys)
        assert one[0] == EXIT_OK
        monkeypatch.setattr(embeddings, "MIN_RANGE_BYTES", 40)
        assert _cache_run(tmp_path, path, 3, capsys) == one
        # a bad record in the third range, named by its line in the whole file
        path.write_text(TestCacheCommand.VECTORS + "e 1 2\n", encoding="utf-8")
        assert _cache_run(tmp_path, path, 3, capsys) == (
            EXIT_DATA, f"error: {path}: line 12: expected 3 components, found 2\n", {},
            ["v.vec"])

    @pytest.mark.parametrize("bad", [b"e 1 2\n", b"e x 1 1\n", b"\xff 1 1 1\n"])
    def test_real_children_before_one_pass_leave_no_file(self, tmp_path, monkeypatch, passes,
                                                         capsys, bad):
        # a bad record in the last range: the ranges are not merged, and the one
        # pass that follows them gives the error line; no child's file remains
        path = tmp_path / "v.vec"
        path.write_bytes(TestCacheCommand.VECTORS.encode() + bad)
        one = _cache_run(tmp_path, path, 1, capsys)
        assert one[0] == EXIT_DATA and one[2:] == ({}, ["v.vec"])
        assert len(one[1].splitlines()) == 1 and one[1].startswith(f"error: {path}: ")
        monkeypatch.setattr(embeddings, "MIN_RANGE_BYTES", 40)
        passes.clear()
        assert _cache_run(tmp_path, path, 3, capsys) == one
        assert len(passes) == 2 and passes[1] == [0, None]
        assert len(passes[0]) == 4 and passes[0][2] < len(TestCacheCommand.VECTORS)

    def test_a_killed_child_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(embeddings, "_CHILD",
                            "import os, signal; os.kill(os.getpid(), signal.SIGKILL)")
        monkeypatch.setattr(embeddings, "MIN_RANGE_BYTES", 1)
        path = tmp_path / "v.vec"
        path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        assert _cache_run(tmp_path, path, 2, capsys) == (
            EXIT_DATA, f"error: {path}: the process parsing bytes 6-12 was killed by signal 9\n",
            {}, ["v.vec"])


@pytest.mark.parametrize("reader", ["ratings", "freq", "pred", "words", "vectors", "core"])
def test_byte_order_mark_is_not_read_as_text(corpus, tmp_path, reader):
    """A UTF-8 byte-order mark, which some editors write first, is no part of
    the first record of any input."""
    def with_bom(name, text):
        path = tmp_path / name
        path.write_text("\ufeff" + text, encoding="utf-8")
        return path

    core = json.dumps({"seed_abstract": ["w000"], "seed_concrete": ["w059"]})
    if reader == "ratings":
        assert load_ratings(with_bom("r.tsv", "abacus\t4.5\nidea\t1.5\n")).tokens == \
            ("abacus", "idea")
    elif reader == "freq":
        assert "abacus" in load_frequencies(with_bom("f.tsv", "abacus\t9\nidea\t8\n"))
    elif reader == "pred":
        assert _load_predictions(with_bom("p.tsv", "abacus\t4.5\n"), True)[0] == \
            {"abacus": 4.5}
    elif reader == "words":
        out = tmp_path / "dict.tsv"
        assert run(["rate", "--core", str(with_bom("core.json", core)),
                    "--vectors", str(corpus["vectors"]),
                    "--words", str(with_bom("words.txt", "w005\nw010\n")),
                    "--out", str(out)]) == EXIT_OK
        assert (tmp_path / "dict.tsv.skipped.txt").read_text() == ""
    elif reader == "vectors":
        out = tmp_path / "v.cavs"
        assert run(["cache-vectors", "--vectors",
                    str(with_bom("v.vec", "2 3\na 1 0 0\nb 0 1 0\n")),
                    "--out", str(out)]) == EXIT_OK
        assert load_cache(out).tokens == ("a", "b")
    else:
        assert load_core(with_bom("core.json", core))[0] == SemanticCore(("w000",), ("w059",))


def test_readme_flags_exist_in_the_parser(capsys):
    assert run(["--help"]) == EXIT_OK
    top = capsys.readouterr().out
    commands = re.search(r"\{([\w,-]+)\}", top).group(1).split(",")
    help_text = top
    for command in commands:
        assert run([command, "--help"]) == EXIT_OK
        help_text += capsys.readouterr().out
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert flags
    assert not {f for f in flags if not re.search(rf"{f}(?![\w-])", help_text)}
