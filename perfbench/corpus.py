"""Seeded synthetic corpus for the benchmark, written through cadict's own writers.

One corpus per (seed, shape) holds:

- ``store.cavs``: a ROWS x DIM vector cache (written by ``save_cache``). Every
  row is ``G * w0 + S * c * u + noise``: a shared component ``w0`` keeps cosines
  positive, as in real embeddings, and ``c`` in [-1, 1] is the row's latent
  concreteness along the axis ``u``.
- ``ratings.tsv``: RATED words with ``3 + 2c + noise`` rounded to 2 decimals,
  as in the published norms, so rank ties occur.
- ``freq.tsv``: Zipf counts over the whole store, in a seeded rank order.
- ``core<j>.json``: seeded cores for ``rate`` (written by ``save_core``).
- ``ingest.vec``: a fastText text slice of the first INGEST_ROWS raw rows with
  4-5 decimals, plus case-folded duplicates and zero rows.

Rows are generated in fixed chunks, each from its own RNG stream, so every part
is a pure function of the seed. Run it as a script, in its own process, so its
time and memory never reach a measured run:

    python3 perfbench/corpus.py --seed 1 --out DIR [--parts store,ingest]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from pathlib import Path

import numpy as np

ROWS = 300_000
DIM = 300
RATED = 40_000
INGEST_ROWS = 40_000
INGEST_DUPLICATES = 40
INGEST_ZERO_ROWS = 20
CORES = 4
CORE_Z = 20
CORE_POOL = 400
CHUNK = 10_000
G, S, NOISE_SD, RATING_SD = 0.6, 0.35, 0.04, 0.85

SHAPE = (ROWS, DIM, RATED, INGEST_ROWS, INGEST_DUPLICATES, INGEST_ZERO_ROWS,
         CORES, CORE_Z, CORE_POOL, CHUNK, G, S, NOISE_SD, RATING_SD)
PARTS = ("store", "ingest")


def shape_key() -> str:
    """Short stable tag of the corpus shape, used in the on-disk cache key."""
    return f"{ROWS // 1000}k{DIM}d-{hashlib.sha256(repr(SHAPE).encode()).hexdigest()[:8]}"


def token(i: int) -> str:
    return f"w{i:06d}"


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def latent(seed: int) -> np.ndarray:
    """Latent concreteness c in [-1, 1] for every row."""
    return _rng(seed, 0).uniform(-1.0, 1.0, ROWS)


def _axes(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal shared direction w0 and concreteness axis u."""
    q, _ = np.linalg.qr(_rng(seed, 2).standard_normal((DIM, 2)))
    return q[:, 0], q[:, 1]


def raw_rows(seed: int, start: int, stop: int, c: np.ndarray) -> np.ndarray:
    """Unnormalized rows [start, stop), assembled from their fixed chunks."""
    w0, u = _axes(seed)
    out = np.empty((stop - start, DIM))
    for chunk in range(start // CHUNK, (stop - 1) // CHUNK + 1):
        lo = chunk * CHUNK
        block = _rng(seed, 1, chunk).normal(0.0, NOISE_SD, (CHUNK, DIM))
        block += G * w0
        block += np.outer(S * c[lo:lo + CHUNK], u)
        a, b = max(start, lo), min(stop, lo + CHUNK)
        out[a - start:b - start] = block[a - lo:b - lo]
    return out


def rated_rows(seed: int) -> np.ndarray:
    """Sorted row indices of the RATED expert-rated words."""
    return np.sort(_rng(seed, 3).choice(ROWS, RATED, replace=False))


def gold_ratings(seed: int, c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    noise = _rng(seed, 5).normal(0.0, RATING_SD, rows.size)
    return np.clip(np.round(3.0 + 2.0 * c[rows] + noise, 2), 1.0, 5.0)


def _write_store(seed: int, out: Path) -> None:
    from cadict import embeddings, rater

    c = latent(seed)
    matrix = raw_rows(seed, 0, ROWS, c)
    matrix /= np.linalg.norm(matrix, axis=1)[:, None]
    store = embeddings.VectorStore([token(i) for i in range(ROWS)], matrix,
                                   source_id=f"synthetic-seed{seed}")
    embeddings.save_cache(store, out / "store.cavs")
    del store, matrix

    rows = rated_rows(seed)
    gold = gold_ratings(seed, c, rows)
    with open(out / "ratings.tsv", "w", encoding="utf-8") as fh:
        fh.write("word\trating\n")
        fh.writelines(f"{token(i)}\t{r:.2f}\n" for i, r in zip(rows.tolist(), gold.tolist()))

    rank = _rng(seed, 4).permutation(ROWS) + 1
    counts = (1e8 / rank.astype(np.float64) ** 1.07).astype(np.int64)
    with open(out / "freq.tsv", "w", encoding="utf-8") as fh:
        fh.write("word\tcount\n")
        fh.writelines(f"{token(i)}\t{n}\n" for i, n in enumerate(counts.tolist()))

    order = np.argsort(gold, kind="stable")
    abstract_pool, concrete_pool = rows[order[:CORE_POOL]], rows[order[-CORE_POOL:]]
    rng = _rng(seed, 6)
    for j in range(CORES):
        core = rater.SemanticCore(
            seed_abstract=tuple(token(i) for i in rng.choice(abstract_pool, CORE_Z, replace=False)),
            seed_concrete=tuple(token(i) for i in rng.choice(concrete_pool, CORE_Z, replace=False)),
        )
        rater.save_core(core, out / f"core{j}.json", provenance={"synthetic_seed": seed})


def _write_ingest(seed: int, out: Path) -> None:
    rows = raw_rows(seed, 0, INGEST_ROWS, latent(seed))
    # slice rows after which a case-folded duplicate / a zero row is written
    rng = _rng(seed, 7)
    dups = set(rng.choice(np.arange(1, INGEST_ROWS), INGEST_DUPLICATES, replace=False).tolist())
    zeros = set(rng.choice(INGEST_ROWS, INGEST_ZERO_ROWS, replace=False).tolist())
    fmt = [" ".join(["%.4f"] * DIM), " ".join(["%.5f"] * DIM)]
    zero_line = " ".join(["0.0000"] * DIM)
    dup_rng = _rng(seed, 8)
    n_lines = INGEST_ROWS + INGEST_DUPLICATES + INGEST_ZERO_ROWS
    with open(out / "ingest.vec", "w", encoding="utf-8") as fh:
        fh.write(f"{n_lines} {DIM}\n")
        for i in range(INGEST_ROWS):
            fh.write(f"{token(i)} {fmt[i % 2] % tuple(rows[i].tolist())}\n")
            if i in dups:
                # an upper-cased earlier token with other values: folded, then ignored
                j = int(dup_rng.integers(0, i))
                fh.write(f"{token(j).upper()} {fmt[0] % tuple(rows[i][::-1].tolist())}\n")
            if i in zeros:
                fh.write(f"z{i:06d} {zero_line}\n")


def ensure(seed: int, root: Path, parts: tuple[str, ...], keep: int = 3) -> Path:
    """Generate the missing `parts` of corpus `seed` under `root`; return its directory.

    Each part is written to a temporary directory and renamed into place, so
    an interrupted run never leaves a half-written part behind. At most `keep`
    corpora are kept; the least recently used are deleted.
    """
    base = root / f"{shape_key()}-seed{seed}"
    base.mkdir(parents=True, exist_ok=True)
    for part in parts:
        final = base / part
        if final.is_dir():
            continue
        tmp = base / f".{part}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        (_write_store if part == "store" else _write_ingest)(seed, tmp)
        tmp.rename(final)
    os.utime(base)
    corpora = sorted((p for p in root.iterdir() if "-seed" in p.name and p != base),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in corpora[keep - 1:]:
        shutil.rmtree(old, ignore_errors=True)
    return base


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory that holds the corpora")
    ap.add_argument("--parts", default=",".join(PARTS))
    args = ap.parse_args(argv)
    parts = tuple(p for p in args.parts.split(",") if p)
    if not set(parts) <= set(PARTS):
        ap.error(f"parts must be among {PARTS}")
    print(ensure(args.seed, Path(args.out), parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
