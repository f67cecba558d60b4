"""Command-line surface: reproducible batch runs of search, rate, and evaluate.

Every run builds a manifest (input checksums, config echo, tool version, RNG
seed). JSON outputs embed it; TSV outputs get a `<name>.manifest.json` sidecar
so the provenance of any file can be traced.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 data error, 3 infeasible configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import math
import os
import sys
from pathlib import Path
from typing import Container

from cadict import __version__
from cadict.embeddings import (
    MIN_RANGE_BYTES,
    LoadReport,
    cache_vectors,
    load_cache,
    usable_cpus,
)
from cadict.errors import DataError, InfeasibleError, check_regular, output, sidecar, write_json
from cadict.lexicon import PREDICTIONS, WORDS, load_frequencies, load_ratings, read_table
from cadict.metrics import evaluate_ratings
from cadict.rater import build_dictionary, load_core, save_core
from cadict.search import SearchConfig, search_grid

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3

CACHE_DIR_ENV = "CADICT_CACHE_DIR"


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)  # read into, and hashed from, one buffer
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _inputs(args) -> dict[str, str]:
    """The command's input paths by flag name, as its manifest records them."""
    return {name: getattr(args, name) for name in args.inputs if getattr(args, name)}


def _same_file(a: str | Path, b: str | Path) -> bool:
    """Whether `a` and `b` name one file: one resolved path (a path not yet
    written has one too), or one existing file under two names."""
    return (os.path.realpath(a) == os.path.realpath(b)
            or (os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)))


def _check_paths(args) -> None:
    """Refuse a run before it reads anything. Every input must be a regular file,
    since the manifest hashes it in a second read (a DataError); no path the
    command writes may be one of its inputs, nor another path it writes, whose
    contents the later write would replace (usage errors)."""
    inputs = _inputs(args).values()
    for path in inputs:
        check_regular(path, "to parse it and to hash it for the manifest")
    outputs = args.outputs(args)
    for i, out in enumerate(outputs):
        for path in inputs:
            if _same_file(out, path):
                args.error(f"{out} is written by this command, and it is the input {path}")
        for other in outputs[:i]:
            if _same_file(out, other):
                args.error(f"{other} and {out} are one file, and this command writes both")


def _manifest(args, rng_seed: int | None, config: dict) -> dict:
    """The provenance block written into every output."""
    return {
        "command": args.command,
        "tool_version": __version__,
        "rng_seed": rng_seed,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)}
                   for name, p in _inputs(args).items()},
        "config": config,
    }


def _with_sidecar(out_path: str | Path | None) -> list[str | Path]:
    """An optional output and its sidecar, as paths the command writes."""
    return [out_path, sidecar(out_path)] if out_path else []


def _skipped(out_path: str | Path) -> str:
    return str(out_path) + ".skipped.txt"


def _cache_out(args) -> Path:
    """`cache-vectors`' output: `--out`, or ``<stem>.cavs`` in the cache directory."""
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(CACHE_DIR_ENV, ".")) / (Path(args.vectors).stem + ".cavs")


def _print_drops(path: str | Path, report: LoadReport) -> None:
    """Print what one input dropped, by cause, if it dropped anything."""
    if report.drops():
        print(f"dropped from {path}: {report.drops()}")


def _parse_x_values(text: str) -> tuple[int, ...]:
    """`start:stop:step` (inclusive stop), a comma list, or a single integer.
    Only the syntax is checked here; `SearchConfig` checks the values."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("range syntax is start:stop:step")
            start, stop, step = (int(p) for p in parts)
            if step < 1:  # the range counts up to its stop; `10:5:-1` would lose 5 and 6
                raise ValueError("step must be >= 1")
            return tuple(range(start, stop + 1, step))
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad x specification {text!r}: {exc}") from exc


def _processes(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1 process, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _load_predictions(path: str | Path, fold_case: bool,
                      vocab_filter: Container[str] | None = None
                      ) -> tuple[dict[str, float], LoadReport]:
    """Read predicted ratings from a 2-column ratings TSV or the 4-column
    dictionary TSV. Dictionary files contribute the raw-ratio column: it keeps
    full rank fidelity, while the scaled column is quantized to 3 decimals
    (and the correlations are affine-invariant, so the choice costs nothing).
    With `vocab_filter` (`evaluate` passes the gold words), only the
    predictions of its tokens are kept, in file order; the other valid rows
    count as `filtered_out`, and every row is still parsed and checked. A file
    without one valid row is a DataError."""
    preds, report = read_table(path, fold_case, PREDICTIONS, vocab_filter)
    if report.rows == report.rejected:  # filtered out or not, no row held a prediction
        raise DataError(f"{path}: no predictions found")
    return preds, report


def _cmd_search(args) -> int:
    ratings = load_ratings(args.ratings, fold_case=args.fold_case)
    # only rated words can enter the base dictionary or the evaluation, so
    # neither the frequencies nor the store need more than the lexicon's words
    rated = set(ratings.tokens)
    freq = load_frequencies(args.freq, fold_case=args.fold_case, vocab_filter=rated)
    store = load_cache(args.vectors, vocab_filter=rated)
    cfg = args.config
    report = search_grid(ratings, freq, store, cfg)
    if not report.cells:
        reasons = "; ".join(s.reason for s in report.skipped[:3])
        raise InfeasibleError(f"zero feasible cells ({reasons})")

    manifest = _manifest(args, cfg.rng_seed, cfg.to_dict())
    doc = report.to_dict()
    doc["manifest"] = manifest
    write_json(args.out_report, doc)

    best = report.best_overall
    save_core(best.best_core, args.out_core, provenance={
        "x": best.x,
        "y": best.y,
        "z": best.z,
        "best_r_s": best.best_r_s,
        "config": cfg.to_dict(),
        "rng_seed": cfg.rng_seed,
        "manifest": manifest,
    })
    if args.out_landscape:
        with output(args.out_landscape) as fh:
            fh.writelines(["x\ty\tz\tbest_r_s\n",
                           *(f"{c.x}\t{c.y}\t{c.z}\t{c.best_r_s!r}\n" for c in report.cells)])
        write_json(sidecar(args.out_landscape), manifest)

    print(f"cells evaluated: {len(report.cells)} (skipped: {len(report.skipped)})")
    print(f"best r_s = {best.best_r_s:.4f} at X={best.x} Y={best.y} Z={best.z}")
    print(f"wrote {args.out_report} and {args.out_core}")
    _print_drops(args.ratings, ratings.report)
    _print_drops(args.freq, freq.report)
    _print_drops(args.vectors, store.load_report)
    return EXIT_OK


def _cmd_rate(args) -> int:
    core, _provenance = load_core(args.core)
    words = words_report = vocab_filter = None
    if args.words:
        # a word list is a table whose first column is the word
        table, words_report = read_table(args.words, args.fold_case, WORDS)
        words = list(table)
        vocab_filter = set(words) | set(core.seed_abstract) | set(core.seed_concrete)
    store = load_cache(args.vectors, vocab_filter=vocab_filter)
    summary = build_dictionary(core, words, store, args.out)
    skip_path = _skipped(args.out)
    with output(skip_path) as fh:
        fh.writelines(token + "\n" for token in summary.skipped_tokens)
    write_json(sidecar(args.out), _manifest(args, None, {"fold_case": args.fold_case}))

    print(f"rated {summary.rated} word(s) -> {args.out}")
    print(f"skipped {summary.skipped} out-of-vocabulary word(s) -> {skip_path}")
    print(f"floored denominators: {summary.floored}")
    _print_drops(args.vectors, store.load_report)
    if words_report is not None:
        _print_drops(args.words, words_report)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    gold = load_ratings(args.gold, fold_case=args.fold_case)
    ratings = gold._entries  # its dict's own methods: no Python call per token
    # only the gold words' predictions are kept, so they are the join, in file order
    preds, pred_report = _load_predictions(args.pred, args.fold_case, vocab_filter=ratings)
    if len(preds) < 2:
        detail = "empty join" if not preds else f"join of only {len(preds)} token(s)"
        raise DataError(f"prediction/gold {detail}; need at least 2 shared tokens")
    pred_values = list(preds.values())
    gold_values = list(map(ratings.__getitem__, preds))
    for path, values in ((args.pred, pred_values), (args.gold, gold_values)):
        if min(values) == max(values):
            raise DataError(f"{path}: every rating over the {len(preds)} shared tokens is "
                            f"{values[0]}; correlations are undefined")
    report = evaluate_ratings(
        pred_values,
        gold_values,
        threshold_gold=args.threshold_gold,
        threshold_pred=args.threshold_pred,
    )
    if args.out:  # the manifest hashes both inputs, so only a written report gets one
        manifest = _manifest(args, None, {"threshold_gold": args.threshold_gold,
                                          "threshold_pred": args.threshold_pred,
                                          "fold_case": args.fold_case})
        write_json(args.out, {"format_version": 1, "kind": "evaluation_report",
                              **report.to_dict(), "manifest": manifest})
        print(f"wrote {args.out}")
    print(f"n = {report.n}")
    print(f"r_s = {report.r_s:.6f}")
    print(f"rho = {report.rho:.6f}")
    print(f"accuracy = {report.accuracy:.6f} "
          f"(gold >= {report.threshold_gold}, pred >= {report.threshold_pred})")
    _print_drops(args.pred, pred_report)
    _print_drops(args.gold, gold.report)
    return EXIT_OK


def _cmd_cache_vectors(args) -> int:
    out = _cache_out(args)
    if not args.out:
        out.parent.mkdir(parents=True, exist_ok=True)
    report, dimension = cache_vectors(args.vectors, out, fold_case=args.fold_case,
                                      processes=args.processes)
    write_json(sidecar(out), _manifest(args, None, {"fold_case": args.fold_case}))
    print(f"cached {report.accepted} vector(s) of dimension {dimension} -> {out}")
    _print_drops(args.vectors, report)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; our contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_CACHE_HELP = "binary cache written by `cadict cache-vectors`"
_FOLDS_TABLES = ("lowercase the tokens of the tables ({}) at load (default: on); "
                 "a cache's tokens were folded, or not, by cache-vectors")


def _add_fold_flag(parser, text: str = "lowercase all tokens at load (default: on)") -> None:
    parser.add_argument("--fold-case", action=argparse.BooleanOptionalAction, default=True,
                        help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cadict",
                     description="Build and evaluate concreteness/abstractness dictionaries "
                                 "from word embeddings and a small expert-rated seed.")
    parser.add_argument("--version", action="version", version=f"cadict {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", parents=[], help="sweep (X, Y, Z) for the best core")
    p.add_argument("--ratings", required=True, help="expert ratings TSV (token TAB rating)")
    p.add_argument("--freq", required=True, help="frequency TSV (token TAB count)")
    p.add_argument("--vectors", required=True, help=_CACHE_HELP)
    p.add_argument("--x", dest="x_values", metavar="X", type=_parse_x_values,
                   help="base sizes: start:stop:step, comma list, or one integer "
                        f"(default {','.join(map(str, SearchConfig.x_values))})")
    p.add_argument("--y-start", type=int)
    p.add_argument("--y-step", type=int)
    p.add_argument("--z-min", type=int)
    p.add_argument("--z-step", type=int)
    p.add_argument("--samples", dest="samples_per_cell", metavar="SAMPLES", type=int,
                   help="random cores per grid cell (default %(default)s)")
    p.add_argument("--seed", dest="rng_seed", metavar="SEED", type=int,
                   help="RNG seed (default %(default)s)")
    p.add_argument("--out-report", default="report.json")
    p.add_argument("--out-core", default="core.json")
    p.add_argument("--out-landscape", default=None,
                   help="optional TSV of (x, y, z, best_r_s) rows")
    _add_fold_flag(p, _FOLDS_TABLES.format("ratings, frequencies"))
    # a SearchConfig refusal is reported as this subcommand's usage error
    p.set_defaults(func=_cmd_search, error=p.error, inputs=("ratings", "freq", "vectors"),
                   outputs=lambda a: [a.out_report, a.out_core,
                                      *_with_sidecar(a.out_landscape)],
                   **vars(SearchConfig()))

    p = sub.add_parser("rate", help="build a rating dictionary with a saved core")
    p.add_argument("--core", required=True, help="core JSON file")
    p.add_argument("--vectors", required=True, help=_CACHE_HELP)
    p.add_argument("--words", default=None,
                   help="words to rate: the first column of a TSV, so also one per "
                        "line (default: whole vector store)")
    p.add_argument("--out", default="dictionary.tsv")
    _add_fold_flag(p, _FOLDS_TABLES.format("word list"))
    p.set_defaults(func=_cmd_rate, error=p.error, inputs=("core", "vectors", "words"),
                   outputs=lambda a: [*_with_sidecar(a.out), _skipped(a.out)])

    p = sub.add_parser("evaluate", help="score predicted ratings against gold ratings")
    p.add_argument("--pred", required=True,
                   help="predictions: dictionary TSV or token TAB rating TSV")
    p.add_argument("--gold", required=True, help="gold ratings TSV")
    p.add_argument("--threshold-gold", type=_finite_float, default=3.0)
    p.add_argument("--threshold-pred", type=_finite_float, default=None,
                   help="default: median of the evaluated predictions")
    p.add_argument("--out", default=None, help="optional JSON report path")
    _add_fold_flag(p)
    p.set_defaults(func=_cmd_evaluate, error=p.error, inputs=("pred", "gold"),
                   outputs=lambda a: [a.out] if a.out else [])

    p = sub.add_parser("cache-vectors", help="precompile a text vector file to a binary cache")
    p.add_argument("--vectors", required=True, help="word-vectors text file")
    p.add_argument("--out", default=None,
                   help=f"cache path (default: ${CACHE_DIR_ENV} or ./<stem>.cavs)")
    p.add_argument("--processes", type=_processes, default=usable_cpus(),
                   help="processes that parse byte ranges of a text of at least "
                        f"{2 * MIN_RANGE_BYTES >> 20} MiB at once: this one and child "
                        "processes (default: the %(default)s CPUs it may run on)")
    _add_fold_flag(p)
    p.set_defaults(func=_cmd_cache_vectors, error=p.error, inputs=("vectors",),
                   outputs=lambda a: _with_sidecar(_cache_out(a)))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search":
        # each search option's dest is the SearchConfig field it sets, and
        # SearchConfig alone checks them: its refusal is a usage error
        try:
            args.config = SearchConfig(**{f.name: getattr(args, f.name)
                                          for f in dataclasses.fields(SearchConfig)})
        except ValueError as exc:
            args.error(str(exc))
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        _check_paths(args)
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
