"""Semantic cores and the similarity-ratio concreteness rating.

A core is a pair of disjoint seed sets: Z strongly abstract and Z strongly
concrete words. A word's raw rating is the ratio of its mean cosine to the
concrete seed over its mean cosine to the abstract seed; larger means more
concrete. Mean cosines at or below a small floor are clamped so the ratio
stays positive and defined, with the denominator case flagged per word.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from cadict.embeddings import VectorStore
from cadict.errors import DataError, open_text, write_json

logger = logging.getLogger(__name__)

SIMILARITY_FLOOR = 1e-6
FLAG_DENOMINATOR_FLOORED = "denominator_floored"
DICTIONARY_CHUNK_ROWS = 4096  # dictionary TSV rows formatted and written at a time
_DICTIONARY_ROW = "%s\t%.9g\t%.3f\t%s\n"


@dataclass(frozen=True)
class SemanticCore:
    """Paired seed sets of equal size Z; disjoint, duplicate-free."""

    seed_abstract: tuple[str, ...]
    seed_concrete: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "seed_abstract", tuple(self.seed_abstract))
        object.__setattr__(self, "seed_concrete", tuple(self.seed_concrete))
        if len(self.seed_abstract) < 1 or len(self.seed_abstract) != len(self.seed_concrete):
            raise ValueError("seeds must be non-empty and of equal size")
        if len(set(self.seed_abstract)) != len(self.seed_abstract):
            raise ValueError("duplicate tokens in abstract seed")
        if len(set(self.seed_concrete)) != len(self.seed_concrete):
            raise ValueError("duplicate tokens in concrete seed")
        if set(self.seed_abstract) & set(self.seed_concrete):
            raise ValueError("seeds must be disjoint")

    @property
    def z(self) -> int:
        return len(self.seed_abstract)


@dataclass(frozen=True, eq=False)
class BatchRating:
    """rate_all output: the rated words in input order, one array entry per
    word, plus the OOV skip report."""

    tokens: tuple[str, ...]
    raw: np.ndarray
    scaled: np.ndarray
    floored: np.ndarray
    skipped: tuple[str, ...]


@dataclass(frozen=True)
class DictionarySummary:
    """Counts from one build_dictionary run."""

    rated: int
    skipped: int
    floored: int
    skipped_tokens: tuple[str, ...] = ()


def _mean_seed_vector(seed: Iterable[str], store: VectorStore) -> np.ndarray:
    # canonical lexicographic order keeps the summation bit-reproducible
    # under seed permutations and across runs
    ordered = sorted(seed)
    rows = store.rows(ordered)
    return rows.sum(axis=0) / len(ordered)


def raw_ratings(matrix: np.ndarray, core: SemanticCore,
                store: VectorStore) -> tuple[np.ndarray, np.ndarray]:
    """Raw ratio ratings for unit-vector rows of `matrix` under `core`.

    Returns (raw, denominator_floored): sim_C / sim_A per row, each similarity
    clipped to [floor, 1], and whether its denominator was floored. This is
    the single arithmetic path of `rate_all` and of the core search's exact
    score, so the two agree bit for bit.
    """
    mean_c = _mean_seed_vector(core.seed_concrete, store)
    mean_a = _mean_seed_vector(core.seed_abstract, store)
    num = np.clip(matrix @ mean_c, SIMILARITY_FLOOR, 1.0)
    den = np.clip(matrix @ mean_a, SIMILARITY_FLOOR, 1.0)
    return num / den, den <= SIMILARITY_FLOOR


def _min_max_scale(raw: np.ndarray) -> np.ndarray:
    lo = float(raw.min())
    hi = float(raw.max())
    if lo == hi:
        return np.full_like(raw, 3.0)
    return 1.0 + 4.0 * (raw - lo) / (hi - lo)


def _resolve(words: Iterable[str], store: VectorStore) -> tuple[list[str], list[int], list[str]]:
    found: list[str] = []
    idx: list[int] = []
    skipped: list[str] = []
    for w in words:
        i = store.row_index(w)
        if i is None:
            skipped.append(w)
        else:
            found.append(w)
            idx.append(i)
    return found, idx, skipped


def rate_all(words: Iterable[str] | None, core: SemanticCore, store: VectorStore) -> BatchRating:
    """Rate every resolvable word; OOV tokens go to the skip report, not errors.

    `words=None` rates the whole store in store order, in place: no token is
    looked up and the matrix is not copied. Scaled ratings are the batch
    min-max rescale of the raw ratio onto [1, 5] (an all-equal batch maps to
    3.0), so rank order is preserved exactly. `floored` flags the words whose
    denominator was floored. Output order equals input order.
    """
    if words is None:
        found, skipped = store.tokens, []
        matrix = store.matrix
    else:
        found, idx, skipped = _resolve(words, store)
        if not found:
            raise DataError("empty resolvable word set: no input word is in the vector store")
        matrix = store.matrix[np.asarray(idx, dtype=np.intp)]
    raw, floored = raw_ratings(matrix, core, store)
    if skipped:
        logger.info("rate_all: %d token(s) out of vocabulary", len(skipped))
    return BatchRating(tokens=tuple(found), raw=raw, scaled=_min_max_scale(raw),
                       floored=floored, skipped=tuple(skipped))


def build_dictionary(core: SemanticCore, vocab: Iterable[str] | None,
                     store: VectorStore, out: str | Path) -> DictionarySummary:
    """Rate `vocab` (default: the whole store) and write the dictionary TSV.

    Row format: token, raw rating (9 significant digits), scaled rating
    (3 decimals), flags (`-` when none), tab separated. Each chunk of
    `DICTIONARY_CHUNK_ROWS` rows is formatted by one `%` and written at once.
    """
    batch = rate_all(vocab, core, store)
    with open(out, "w", encoding="utf-8") as fh:
        for start in range(0, len(batch.tokens), DICTIONARY_CHUNK_ROWS):
            stop = min(start + DICTIONARY_CHUNK_ROWS, len(batch.tokens))
            cells = ["-"] * (4 * (stop - start))  # a row not floored keeps its "-" flag
            cells[0::4] = batch.tokens[start:stop]
            cells[1::4] = batch.raw[start:stop].tolist()
            cells[2::4] = batch.scaled[start:stop].tolist()
            for i in np.flatnonzero(batch.floored[start:stop]).tolist():
                cells[4 * i + 3] = FLAG_DENOMINATOR_FLOORED
            fh.write(_DICTIONARY_ROW * (stop - start) % tuple(cells))
    return DictionarySummary(
        rated=len(batch.tokens),
        skipped=len(batch.skipped),
        floored=int(batch.floored.sum()),
        skipped_tokens=batch.skipped,
    )


def save_core(core: SemanticCore, path: str | Path, provenance: dict | None = None) -> None:
    """Write a core file: z, both seed arrays, and a provenance block."""
    write_json(path, {
        "format_version": 1,
        "kind": "semantic_core",
        "z": core.z,
        "seed_abstract": list(core.seed_abstract),
        "seed_concrete": list(core.seed_concrete),
        "provenance": provenance or {},
    })


def load_core(path: str | Path) -> tuple[SemanticCore, dict]:
    """Read a core file written by `save_core`; returns (core, provenance)."""
    path = Path(path)
    try:
        with open_text(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"{path}: not a valid core file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a valid core file: expected a JSON object")
    for name in ("seed_abstract", "seed_concrete"):
        seed = doc.get(name)
        if not isinstance(seed, list) or not all(isinstance(t, str) for t in seed):
            raise DataError(f"{path}: not a valid core file: {name} must be an array of strings")
    try:
        core = SemanticCore(
            seed_abstract=tuple(doc["seed_abstract"]),
            seed_concrete=tuple(doc["seed_concrete"]),
        )
    except ValueError as exc:
        raise DataError(f"{path}: not a valid core file: {exc}") from exc
    if "z" in doc and doc["z"] != core.z:
        raise DataError(f"{path}: declared z={doc['z']} but seeds have length {core.z}")
    return core, doc.get("provenance", {})
