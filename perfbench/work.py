"""One measured run of one workload, in a fresh process started by ``run.py``.

Workloads (all on the same seeded corpus, see ``corpus.py``):

- ``ingest``: ``cadict cache-vectors`` through ``cli.main`` on a fastText text
  slice. Text parsing and the cache write dominate; search, rater and metrics
  do no timed work. Set-up is program start: a fresh interpreter importing
  ``cadict.cli``, since the text is loaded by the work itself.
- ``search``: the calls ``cadict search`` makes. Set-up loads the ratings, the
  frequencies and the cache filtered to the rated words; each pass runs
  ``search_grid`` (``workers=1``) over SEARCH_X with the default (Y, Z)
  protocol, then writes the report JSON and the core. The per-core loop runs
  on a base matrix of at most 1000 x 300 x 8 B, so it is bound by the
  interpreter and the kernels, not by memory bandwidth.
- ``rate``: ``cadict rate`` plus ``cadict evaluate`` for seeded cores over the
  whole 300k-row store. Set-up loads the cores and the full cache; each pass
  rates every stored word with each core in turn and evaluates each TSV
  against the gold ratings, so it is bound by memory bandwidth and I/O.

A run repeats set-up a few times (``setup_repeats``) and reports the median,
then repeats whole passes until ``--seconds`` have gone by. The outputs are
then checked against the workload's correctness anchors; an exception or a
mismatch fails the run. With ``--trace 1`` the run traces one set-up and
alternates untraced and traced passes; per-layer figures then describe one
set-up plus one pass.

    python3 perfbench/work.py --workload search --seed 1 --seconds 15 --trace 0 \\
        --corpus DIR --work DIR
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import corpus
from spans import Tracer

from cadict import cli, embeddings, lexicon, rater, search

SEARCH_X = (1000,)
MIN_TRACED_PASSES = 2
RUN_BUDGET_S = 110.0
INGEST_SAMPLE = 20
R_S_REFERENCE_TOL = 1e-9
R_S_INDEPENDENT_TOL = 1e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")


class AnchorError(Exception):
    """A workload output differs from its correctness anchor."""


# --- independent reference arithmetic for the anchors -----------------------

def ref_ranks(values: np.ndarray) -> np.ndarray:
    """Average (fractional) ranks, computed apart from cadict.metrics."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + ends + 1) / 2.0)[inverse]


def ref_spearman(a, b) -> float:
    return float(np.corrcoef(ref_ranks(np.asarray(a)), ref_ranks(np.asarray(b)))[0, 1])


def ref_raw(store, tokens, core) -> np.ndarray:
    """Similarity-ratio raw ratings, computed apart from cadict.rater."""
    def mean(seed):
        return store.matrix[[store.row_index(t) for t in seed]].mean(axis=0)

    m = store.matrix[[store.row_index(t) for t in tokens]]
    sims_c = np.clip(m @ mean(core.seed_concrete), -1.0, 1.0)
    sims_a = np.clip(m @ mean(core.seed_abstract), -1.0, 1.0)
    return np.maximum(sims_c, rater.SIMILARITY_FLOOR) / np.maximum(sims_a, rater.SIMILARITY_FLOOR)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise AnchorError(message)


def _cli(argv: list[str]) -> int:
    """`cadict` through `cli.main`; its console summary goes to stderr, so
    stdout carries only the benchmark's own lines."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def reference_key() -> str:
    """Reference anchors hold for one corpus shape and one set of X slices."""
    return f"{corpus.shape_key()}-x{'-'.join(map(str, SEARCH_X))}"


def _reference(workload: str, seed: int):
    if not REFERENCE_FILE.exists():
        return None
    table = json.loads(REFERENCE_FILE.read_text())
    return table.get(reference_key(), {}).get(workload, {}).get(str(seed))


# --- workloads ---------------------------------------------------------------

class Ingest:
    items_unit = "lines parsed"
    setup_repeats = 7

    def __init__(self, seed: int, data: Path, work: Path):
        self.seed = seed
        self.text = data / "ingest" / "ingest.vec"
        self.out = work / "ingest.cavs"
        self.lines = corpus.INGEST_ROWS + corpus.INGEST_DUPLICATES + corpus.INGEST_ZERO_ROWS
        self.working_set_mb = (self.text.stat().st_size + corpus.INGEST_ROWS * corpus.DIM * 8) / 1e6

    def setup(self) -> None:
        subprocess.run([sys.executable, "-c", "import cadict.cli"], check=True)

    def run_pass(self, tracer: Tracer) -> int:
        size_mb = self.text.stat().st_size / 1e6
        with tracer.span("cli.cache_vectors", sha256_mb=size_mb):
            rc = _cli(["cache-vectors", "--vectors", str(self.text), "--out", str(self.out)])
        _expect(rc == 0, f"cache-vectors exited {rc}")
        return self.lines

    def check(self) -> dict:
        """The cache holds the slice's tokens in order, its rows equal cadict's own
        parse of every INGEST_SAMPLE-th record exactly, and they match an
        independent parse of the whole text."""
        cached = embeddings.load_cache(self.out)
        expected = [corpus.token(i) for i in range(corpus.INGEST_ROWS)]
        _expect(list(cached.tokens) == expected, "cached tokens differ from the slice's tokens")
        with open(self.text, encoding="utf-8") as fh:
            next(fh)
            lines = [line for line in fh if line.startswith("w")]
        sample = self.out.with_name("ingest-sample.vec")
        sample.write_text("".join(lines[::INGEST_SAMPLE]), encoding="utf-8")
        parsed = embeddings.load_vectors(sample)
        _expect(np.array_equal(cached.matrix[::INGEST_SAMPLE], parsed.matrix),
                "cached rows differ from the parsed rows")
        rows = np.concatenate([
            np.array(" ".join(line.split(" ", 1)[1] for line in lines[i:i + 1000]).split(),
                     dtype=np.float64).reshape(-1, corpus.DIM)
            for i in range(0, len(lines), 1000)])
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        _expect(np.allclose(cached.matrix, rows, rtol=0.0, atol=1e-12),
                "cached matrix differs from the text's values")
        return {"accepted": len(cached), "r_s": self._slice_r_s(cached)}

    def kernel_calls(self) -> list[tuple[int, int]]:
        return []

    def _slice_r_s(self, store) -> float:
        """r_s of the ingested vectors: rate the slice's rated words with a core
        of its most extreme ones. Untimed; it shows ingest kept the signal."""
        c = corpus.latent(self.seed)
        rated = corpus.rated_rows(self.seed)
        gold = corpus.gold_ratings(self.seed, c, rated)
        inside = rated < corpus.INGEST_ROWS
        rows, gold = rated[inside], gold[inside]
        order = np.argsort(gold, kind="stable")
        z = corpus.CORE_Z
        core = rater.SemanticCore(tuple(corpus.token(i) for i in rows[order[:z]]),
                                  tuple(corpus.token(i) for i in rows[order[-z:]]))
        tokens = [corpus.token(i) for i in rows]
        return ref_spearman(ref_raw(store, tokens, core), gold)


class Search:
    items_unit = "cores evaluated"
    setup_repeats = 3

    def __init__(self, seed: int, data: Path, work: Path):
        self.seed = seed
        self.ratings = data / "store" / "ratings.tsv"
        self.freq = data / "store" / "freq.tsv"
        self.cache = data / "store" / "store.cavs"
        self.report_path = work / "report.json"
        self.core_path = work / "core.json"
        self.reports: list[dict] = []
        self.working_set_mb = max(SEARCH_X) * corpus.DIM * 8 / 1e6

    def setup(self) -> None:
        self.lex = self.freq_list = self.store = None
        self.lex = lexicon.load_ratings(self.ratings)
        self.freq_list = lexicon.load_frequencies(self.freq)
        self.store = embeddings.open_store(self.cache, vocab_filter=set(self.lex.tokens))

    def run_pass(self, tracer: Tracer) -> int:
        cfg = search.SearchConfig(x_values=SEARCH_X, rng_seed=self.seed)
        report = search.search_grid(self.lex, self.freq_list, self.store, cfg, workers=1)
        best = report.best_overall
        _expect(best is not None, "search found no feasible cell")
        doc = report.to_dict()
        with open(self.report_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        rater.save_core(best.best_core, self.core_path, provenance={
            "x": best.x, "y": best.y, "z": best.z, "best_r_s": best.best_r_s,
            "config": cfg.to_dict(), "rng_seed": cfg.rng_seed})
        doc.pop("timing", None)
        _expect(not self.reports or doc == self.reports[0], "search report differs between passes")
        self.reports.append(doc)
        return sum(c["cores_evaluated"] for c in doc["cells"])

    def check(self) -> dict:
        """Best cell is the maximum; its r_s matches an independent recomputation
        and, when recorded for this seed, the reference."""
        doc = self.reports[0]
        best = doc["best_overall"]
        _expect(best["best_r_s"] == max(c["best_r_s"] for c in doc["cells"]),
                "best_overall is not the best cell")
        core = rater.SemanticCore(tuple(best["best_core"]["seed_abstract"]),
                                  tuple(best["best_core"]["seed_concrete"]))
        common = [t for t in self.lex.tokens if t in self.freq_list and t in self.store]
        common.sort(key=lambda t: (-self.freq_list.count(t), t))
        base = common[:best["x"]]
        r_ind = ref_spearman(ref_raw(self.store, base, core), [self.lex.rating(t) for t in base])
        _expect(abs(r_ind - best["best_r_s"]) <= R_S_INDEPENDENT_TOL,
                f"best r_s {best['best_r_s']!r} differs from recomputed {r_ind!r}")
        anchor = {"x": best["x"], "y": best["y"], "z": best["z"],
                  "seed_abstract": sorted(core.seed_abstract),
                  "seed_concrete": sorted(core.seed_concrete), "r_s": best["best_r_s"]}
        ref = _reference("search", self.seed)
        if ref is not None:
            _expect({k: v for k, v in anchor.items() if k != "r_s"}
                    == {k: v for k, v in ref.items() if k != "r_s"},
                    f"best cell/core differs from the reference {ref}")
            _expect(abs(anchor["r_s"] - ref["r_s"]) <= R_S_REFERENCE_TOL,
                    f"best r_s {anchor['r_s']!r} differs from the reference {ref['r_s']!r}")
        return {"anchor": anchor, "reference": ref is not None, "r_s": best["best_r_s"]}

    def kernel_calls(self) -> list[tuple[int, int]]:
        cells = self.reports[0]["cells"] if self.reports else []
        return [(c["x"], c["z"]) for c in cells for _ in range(c["cores_evaluated"])]


class Rate:
    items_unit = "words rated"
    setup_repeats = 3

    def __init__(self, seed: int, data: Path, work: Path):
        self.seed = seed
        self.cache = data / "store" / "store.cavs"
        self.gold = data / "store" / "ratings.tsv"
        self.core_paths = [data / "store" / f"core{j}.json" for j in range(corpus.CORES)]
        self.tsv = work / "dictionary.tsv"
        self.eval_path = work / "evaluation.json"
        self.r_s: dict[int, float] = {}
        self.working_set_mb = 2 * corpus.ROWS * corpus.DIM * 8 / 1e6

    def setup(self) -> None:
        self.store = None
        self.cores = [rater.load_core(p)[0] for p in self.core_paths]
        self.store = embeddings.open_store(self.cache)

    def run_pass(self, tracer: Tracer) -> int:
        rated = 0
        for j, core in enumerate(self.cores):
            summary = rater.build_dictionary(core, None, self.store, self.tsv)
            _expect(summary.rated == corpus.ROWS and summary.skipped == 0,
                    f"rated {summary.rated} of {corpus.ROWS} words")
            argv = ["evaluate", "--pred", str(self.tsv), "--gold", str(self.gold),
                    "--out", str(self.eval_path)]
            size_mb = (self.tsv.stat().st_size + self.gold.stat().st_size) / 1e6
            with tracer.span("cli.evaluate", sha256_mb=size_mb):
                rc = _cli(argv)
            _expect(rc == 0, f"evaluate exited {rc}")
            r_s = json.loads(self.eval_path.read_text())["r_s"]
            _expect(self.r_s.setdefault(j, r_s) == r_s, f"core {j}: r_s differs between passes")
            rated += summary.rated
        return rated

    def check(self) -> dict:
        """Each core's evaluate r_s matches an independent recomputation and,
        when recorded for this seed, the reference."""
        lex = lexicon.load_ratings(self.gold)
        tokens = list(lex.tokens)
        gold = [lex.rating(t) for t in tokens]
        for j, r_s in self.r_s.items():
            r_ind = ref_spearman(ref_raw(self.store, tokens, self.cores[j]), gold)
            _expect(abs(r_ind - r_s) <= R_S_INDEPENDENT_TOL,
                    f"core {j}: evaluate r_s {r_s!r} differs from recomputed {r_ind!r}")
        ref = _reference("rate", self.seed)
        anchor = [self.r_s[j] for j in sorted(self.r_s)]
        if ref is not None:
            _expect(all(abs(a - b) <= R_S_REFERENCE_TOL for a, b in zip(anchor, ref)),
                    f"per-core r_s {anchor} differ from the reference {ref}")
        return {"anchor": anchor, "reference": ref is not None,
                "r_s": statistics.fmean(anchor)}

    def kernel_calls(self) -> list[tuple[int, int]]:
        return [(corpus.ROWS, core.z) for core in self.cores]


WORKLOADS = {"ingest": Ingest, "search": Search, "rate": Rate}


# --- tracing targets and per-layer metrics ----------------------------------

def _size_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _hook(fn):
    """Adds span attributes; a changed signature leaves the span without them."""
    def hook(sp, args, kwargs, result):
        try:
            sp.attrs.update(fn(args, kwargs, result))
        except (AttributeError, IndexError, KeyError, OSError, TypeError):
            pass
    return hook


def _lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def raw_ratings_cost(rows: int, dim: int, z: int) -> dict[str, int]:
    """Computed from array shapes: two matrix-vector products read the (rows, dim)
    float64 matrix twice, the seed means read 2z rows, and three vectors of
    length rows are written; each product does 2 * rows * dim flops."""
    return {"rows": rows,
            "bytes": 8 * (2 * rows * dim + 2 * z * dim + 3 * rows),
            "flop": 4 * rows * dim + 2 * z * dim}


def _raw_ratings_counts(args, kwargs, result):
    return raw_ratings_cost(*args[0].shape, args[1].z)


TARGETS = {
    "cadict.embeddings:load_vectors": _hook(lambda a, k, r: {"lines": _lines(a[0])}),
    "cadict.embeddings:save_cache": _hook(lambda a, k, r: {"mb": _size_mb(a[1])}),
    "cadict.embeddings:open_store": _hook(lambda a, k, r: {
        "mb": _size_mb(a[0]),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}),
    "cadict.embeddings:VectorStore.rows": None,
    "cadict.lexicon:load_ratings": None,
    "cadict.lexicon:load_frequencies": None,
    "cadict.lexicon:select_base": None,
    "cadict.lexicon:select_pools": None,
    "cadict.search:search_grid": _hook(lambda a, k, r: {
        "cells": len(r.cells), "cores": sum(c.cores_evaluated for c in r.cells)}),
    "cadict.rater:raw_ratings": _hook(_raw_ratings_counts),
    "cadict.rater:build_dictionary": _hook(lambda a, k, r: {"mb": _size_mb(a[3])}),
    "cadict.metrics:average_ranks": None,
    "cadict.metrics:pearson": None,
    "cadict.metrics:evaluate_ratings": None,
}

# name -> (unit, span, quantity); quantity is "s", "self_s", "calls" or an attribute
LAYER_SUMS = {
    "embeddings.load_vectors.s": ("s", "embeddings.load_vectors", "s"),
    "embeddings.load_vectors.lines": ("count", "embeddings.load_vectors", "lines"),
    "embeddings.save_cache.s": ("s", "embeddings.save_cache", "s"),
    "embeddings.save_cache.mb": ("MB", "embeddings.save_cache", "mb"),
    "embeddings.open_store.s": ("s", "embeddings.open_store", "s"),
    "embeddings.open_store.mb": ("MB", "embeddings.open_store", "mb"),
    "embeddings.rows.calls": ("count", "embeddings.rows", "calls"),
    "embeddings.rows.s": ("s", "embeddings.rows", "s"),
    "lexicon.load_ratings.s": ("s", "lexicon.load_ratings", "s"),
    "lexicon.load_frequencies.s": ("s", "lexicon.load_frequencies", "s"),
    "lexicon.select_base.s": ("s", "lexicon.select_base", "s"),
    "lexicon.select_pools.s": ("s", "lexicon.select_pools", "s"),
    "lexicon.select_pools.calls": ("count", "lexicon.select_pools", "calls"),
    "search.search_grid.s": ("s", "search.search_grid", "s"),
    "search.search_grid.self_s": ("s", "search.search_grid", "self_s"),
    "search.cells": ("count", "search.search_grid", "cells"),
    "search.cores": ("count", "search.search_grid", "cores"),
    "rater.raw_ratings.calls": ("count", "rater.raw_ratings", "calls"),
    "rater.raw_ratings.s": ("s", "rater.raw_ratings", "s"),
    "rater.raw_ratings.rows": ("count", "rater.raw_ratings", "rows"),
    "rater.raw_ratings.gb_moved": ("GB", "rater.raw_ratings", "bytes"),
    "rater.raw_ratings.gflop": ("GFLOP", "rater.raw_ratings", "flop"),
    "rater.build_dictionary.s": ("s", "rater.build_dictionary", "s"),
    "rater.build_dictionary.self_s": ("s", "rater.build_dictionary", "self_s"),
    "rater.build_dictionary.tsv_mb": ("MB", "rater.build_dictionary", "mb"),
    "metrics.average_ranks.calls": ("count", "metrics.average_ranks", "calls"),
    "metrics.average_ranks.s": ("s", "metrics.average_ranks", "s"),
    "metrics.pearson.calls": ("count", "metrics.pearson", "calls"),
    "metrics.pearson.s": ("s", "metrics.pearson", "s"),
    "metrics.evaluate_ratings.s": ("s", "metrics.evaluate_ratings", "s"),
    "cli.cache_vectors.self_s": ("s", "cli.cache_vectors", "self_s"),
    "cli.evaluate.s": ("s", "cli.evaluate", "s"),
    "cli.evaluate.self_s": ("s", "cli.evaluate", "self_s"),
}
SCALE = {"bytes": 1e-9, "flop": 1e-9}
OTHER_UNITS = {
    "embeddings.open_store.rss_mb": "MB",
    "search.cores_defined_ratio": "1",
    "search.core_cycle_ms.p50": "ms",
    "search.core_cycle_ms.p99": "ms",
    "search.core_cycle_ms.n": "count",
    "cli.sha256_mb": "MB",
    "trace.overhead_ratio": "1",
}


def _quantity(sp, what: str) -> float:
    if what == "s":
        return sp.seconds
    if what == "self_s":
        return sp.self_seconds
    if what == "calls":
        return 1.0
    return sp.attrs.get(what, 0.0) * SCALE.get(what, 1.0)


def layer_metrics(tr: Tracer, n_passes: int, overhead: float) -> dict[str, float]:
    """Per-layer figures for one traced set-up plus one traced pass."""
    root = []  # the bench.setup or bench.pass span that each span runs under
    for sp in tr.spans:
        root.append(sp.name if sp.parent is None else root[sp.parent])
    weight = {"bench.setup": 1.0, "bench.pass": 1.0 / n_passes}
    wanted = collections.defaultdict(list)
    for metric, (_, span, what) in LAYER_SUMS.items():
        wanted[span].append((metric, what))
    for span in ("cli.cache_vectors", "cli.evaluate"):
        wanted[span].append(("cli.sha256_mb", "sha256_mb"))
    out = dict.fromkeys([*LAYER_SUMS, "cli.sha256_mb"], 0.0)
    starts = collections.defaultdict(list)
    for sp, r in zip(tr.spans, root):
        for metric, what in wanted.get(sp.name, ()):
            out[metric] += _quantity(sp, what) * weight.get(r, 0.0)
        if sp.name == "rater.raw_ratings" and sp.parent is not None \
                and tr.spans[sp.parent].name == "search.search_grid":
            starts[sp.parent].append(sp.start)

    opens = tr.select("embeddings.open_store")
    out["embeddings.open_store.rss_mb"] = max((sp.attrs.get("rss_mb", 0.0) for sp in opens), default=0.0)
    cores = sum(sp.attrs.get("cores", 0) for sp in tr.select("search.search_grid"))
    defined = sum(not sp.failed for sp in tr.select("metrics.pearson", within="search.search_grid"))
    out["search.cores_defined_ratio"] = defined / cores if cores else 0.0
    cycles = [d for s in starts.values() for d in np.diff(s) * 1e3]
    out["search.core_cycle_ms.p50"] = float(np.percentile(cycles, 50)) if cycles else 0.0
    out["search.core_cycle_ms.p99"] = float(np.percentile(cycles, 99)) if cycles else 0.0
    out["search.core_cycle_ms.n"] = float(len(cycles))
    out["trace.overhead_ratio"] = overhead
    return out


def layer_units() -> dict[str, str]:
    return {**{k: v[0] for k, v in LAYER_SUMS.items()}, **OTHER_UNITS}


# --- machine facts -------------------------------------------------------------

def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _l3_mb(sizes: dict[str, str]) -> float | None:
    text = sizes.get("L3", "")
    if text.endswith("K") and text[:-1].isdigit():
        return int(text[:-1]) / 1024
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "caches": _cache_sizes(),
    }


# --- the run -------------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float, traced: bool) -> dict:
    tr = Tracer()
    absent = tr.install(TARGETS) if traced else []
    setups = []
    for _ in range(1 if traced else wl.setup_repeats):
        tr.active = traced
        with tr.span("bench.setup"):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        tr.active = False

    attempted = failed = items = 0
    timed = {False: [], True: []}
    min_passes = 2 * MIN_TRACED_PASSES if traced else 1
    t_work = time.perf_counter()
    while not failed:
        elapsed = time.perf_counter() - t_work
        if attempted >= min_passes and elapsed >= seconds:
            break
        if attempted and elapsed + max(timed[False] + timed[True]) > RUN_BUDGET_S:
            break
        tracing = traced and attempted % 2 == 1
        attempted += 1
        tr.active = tracing
        try:
            with tr.span("bench.pass"):
                t0 = time.perf_counter()
                n = wl.run_pass(tr)
                dt = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a failed pass fails the run; report it
            traceback.print_exc()
            failed += 1
            continue
        finally:
            tr.active = False
        timed[tracing].append(dt)
        if not tracing:
            items += n
    tr.uninstall()
    peak_rss_mb = _peak_rss_mb()

    anchors = None
    try:
        anchors = wl.check()
    except Exception:  # noqa: BLE001 - a wrong or broken output fails the whole run
        traceback.print_exc()
        failed = attempted
    plain = timed[False]
    result = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(plain) if plain else 0.0,
        "items_per_s": items / sum(plain) if plain else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "r_s": anchors["r_s"] if anchors else 0.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    return {"attempted": attempted, "failed": failed, "metrics": result, "anchors": anchors,
            "setups_s": setups, "passes_s": plain, "traced_passes_s": timed[True],
            "absent": absent, "tracer": tr}


def _kernel_totals(calls: list[tuple[int, int]]) -> dict[str, float]:
    costs = [raw_ratings_cost(rows, corpus.DIM, z) for rows, z in calls]
    return {"calls": len(costs),
            "rows": sum(c["rows"] for c in costs),
            "gb_moved": sum(c["bytes"] for c in costs) * 1e-9,
            "gflop": sum(c["flop"] for c in costs) * 1e-9}


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
             "peak_rss_mb": "MB", "r_s": "1", "ok_ratio": "1"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one measured benchmark run")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", required=True, help="this seed's corpus directory")
    ap.add_argument("--work", required=True, help="scratch directory for outputs")
    args = ap.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, Path(args.corpus), work)
    traced = bool(args.trace)
    run = measure(wl, args.seconds, traced)

    facts = machine_facts()
    l3 = _l3_mb(facts["caches"])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": facts,
        "working_set": {"mb": wl.working_set_mb, "l3_mb": l3,
                        "ratio_to_l3": wl.working_set_mb / l3 if l3 else None},
        "items": wl.items_unit, "setups_s": run["setups_s"], "passes_s": run["passes_s"],
        "traced_passes_s": run["traced_passes_s"], "anchors": run["anchors"],
        "absent": run["absent"],
        "computed_raw_ratings_per_pass": _kernel_totals(wl.kernel_calls()),
    }
    if traced:
        plain, tr_passes = run["passes_s"], run["traced_passes_s"]
        overhead = (statistics.median(tr_passes) / statistics.median(plain)
                    if plain and tr_passes else 0.0)
        values = layer_metrics(run["tracer"], max(len(tr_passes), 1), overhead)
        units = layer_units()
        info["computed"] = ["rater.raw_ratings.gb_moved", "rater.raw_ratings.gflop", "cli.sha256_mb"]
        with open(work / f"spans-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump([sp.to_dict() for sp in run["tracer"].spans], fh)
    else:
        values, units = run["metrics"], E2E_UNITS
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
