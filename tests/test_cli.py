import json
import math
import struct

import numpy as np
import pytest

from cadict import cli
from cadict.embeddings import CACHE_MAGIC
from cadict.cli import (
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    _parse_x_values,
    _write_json,
    main,
)

from conftest import write_vec_file


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

    vec_path = write_vec_file(root / "vectors.txt", list(zip(tokens, vectors)))
    ratings_path = root / "ratings.tsv"
    ratings_path.write_text(
        "".join(f"{t}\t{3.0 + 2.0 * c}\n" for t, c in zip(tokens, latent)),
        encoding="utf-8")
    freq_path = root / "freq.tsv"
    freq_path.write_text(
        "".join(f"{t}\t{n - i}\n" for i, t in enumerate(tokens)), encoding="utf-8")
    return {"root": root, "vectors": vec_path, "ratings": ratings_path,
            "freq": freq_path, "tokens": tokens}


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


class TestParseXValues:
    def test_range_syntax(self):
        assert _parse_x_values("500:2500:500") == (500, 1000, 1500, 2000, 2500)

    def test_single_value(self):
        assert _parse_x_values("300") == (300,)

    def test_comma_list(self):
        assert _parse_x_values("100,200") == (100, 200)

    def test_bad_specs_rejected(self):
        import argparse
        for bad in ("0:100:10", "100:50:10", "1:10", "a:b:c", "-5", "10,0", "500,500"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_x_values(bad)


class TestSearchCommand:
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

    def test_partially_skipped_sweep_still_succeeds(self, corpus, tmp_path):
        args = search_args(corpus, tmp_path)
        args[args.index("--x") + 1] = "60,5000"
        assert run(args) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["cells"]
        assert report["skipped"][0]["x"] == 5000

    def test_scope_flag(self, corpus, tmp_path):
        args = search_args(corpus, tmp_path) + ["--scope", "full_lexicon"]
        args[args.index("--x") + 1] = "45"  # base smaller than the lexicon
        assert run(args) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["evaluation_scope"] == "full_lexicon"

    def test_usage_error_exits_1(self, corpus, tmp_path):
        assert run(["search", "--ratings", "r.tsv"]) == EXIT_USAGE
        assert run(["bogus-command"]) == EXIT_USAGE
        assert run(search_args(corpus, tmp_path, **{"--threads": 2})) == EXIT_USAGE


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

    def test_disjoint_vocabulary_is_data_error(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\t1.5\nb\t4.5\n", encoding="utf-8")
        pred = tmp_path / "pred.tsv"
        pred.write_text("x\t1.5\ny\t4.5\n", encoding="utf-8")
        assert run(["evaluate", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA

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

    def test_json_writer_refuses_nan(self, tmp_path):
        out = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            _write_json(out, {"rho": float("nan")})
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
        assert run(["cache-vectors", "--vectors", str(corpus["vectors"]),
                    "--out", str(cache)]) == EXIT_OK
        assert cache.exists()
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
        assert run(["cache-vectors", "--vectors", str(corpus["vectors"])]) == EXIT_OK
        assert (cache_dir / "vectors.cavs").exists()


def _cache_bytes(tokens: list[str], rows) -> bytes:
    """A cache file as save_cache lays it out, with any tokens and rows."""
    rows = np.asarray(rows, dtype="<f8")
    header = json.dumps({"count": len(tokens), "dimension": rows.shape[1],
                         "source_id": "x"}).encode()
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
    "predictions not utf-8": ("p.tsv", b"w001\t1.0\n\xfe\t2.0\n",
                              ["evaluate", "--pred", "{bad}", "--gold", "{ratings}",
                               "--out", "{out}"]),
    "vectors text not utf-8": ("v.txt", b"a 1 0\n\xff 0 1\n",
                               ["cache-vectors", "--vectors", "{bad}", "--out", "{out}"]),
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
