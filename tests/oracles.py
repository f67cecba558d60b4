"""Independent reference implementations used to check the real ones.

Everything here is deliberately brute force. The metric references share no
code with the package: counting-based fractional ranks, textbook Pearson sums,
the tie-free Spearman d^2 shortcut, and `spearman_exact`, which sums those
ranks as Python ints. The cell references are the per-core search loop, which
reuses the package's seed draws and exact core score and so checks exactly the
batched screen that replaced it, and a best over every seed pair enumerated
with itertools; `evaluate_core` is that exact score over a
base dictionary. `tokens_of` names the store rows that a pool holds.
`pools_by_rule` picks candidate pools by sorting on the frequency counts
themselves, which `select_pools` leaves to the base order.
`load_vectors_by_line` is the word-vectors text loader as it was before it
parsed blocks: one `split` and one `np.array` per line. `read_table_by_row`
is the table reader as it was before it checked blocks: one parse function per
row, each kind's rules written out in it. `write_dictionary_by_row` is the
dictionary writer as it was before it formatted chunks: one f-string per row.
"""

import itertools
import math
from pathlib import Path

import numpy as np

from cadict.embeddings import MIN_NORM, LoadReport, VectorStore, _looks_like_header
from cadict.errors import DataError, open_text
from cadict.rater import FLAG_DENOMINATOR_FLOORED, SemanticCore
from cadict.search import CellResult, SkippedCell, _EvalContext, _core_sort_key, _seed_pairs


def brute_ranks(values):
    """Fractional rank of each element by direct counting."""
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2)
    return out


def pearson_direct(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def spearman_bruteforce(x, y):
    """Spearman as Pearson over counting-based ranks (valid with ties)."""
    return pearson_direct(brute_ranks(x), brute_ranks(y))


def spearman_d2(x, y):
    """1 - 6*sum(d^2)/(n(n^2-1)); only valid when both lists are tie-free."""
    rx, ry = brute_ranks(x), brute_ranks(y)
    n = len(x)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1 - 6 * d2 / (n * (n * n - 1))


def spearman_exact(x, y):
    """Spearman of two sequences from counting-based ranks, centred as Python
    ints (2 * rank - (n + 1)) and summed exactly; each sum is rounded once and
    r is their ratio, clamped to [-1, 1], as `metrics.rank_correlation`
    rounds it. NaN when either sequence is constant."""
    n = len(x)
    u = [int(2 * r) - (n + 1) for r in brute_ranks(x)]
    v = [int(2 * r) - (n + 1) for r in brute_ranks(y)]
    suu, svv = sum(a * a for a in u), sum(b * b for b in v)
    if suu == 0 or svv == 0:
        return math.nan
    r = float(sum(a * b for a, b in zip(u, v))) / math.sqrt(float(suu) * float(svv))
    return min(1.0, max(-1.0, r))


def evaluate_core(core, base, store):
    """Spearman r of the core's raw ratings against the expert ratings of every
    base-dictionary word (NaN when undefined): the exact path that a search
    cell's best_r_s must equal bit for bit."""
    return _EvalContext(base, store).evaluate(core)


def tokens_of(tokens, rows):
    """The entries at `rows` of a store's token sequence, in the given order."""
    return tuple(tokens[r] for r in rows)


def _best_cell(x, y, z, index_pairs, pools, ctx):
    """The best core over (abstract, concrete) pool-index pairs by the exact
    path, breaking equal scores by the smallest sorted core."""
    best_r = best_key = best_core = None
    evaluated = 0
    for a_idx, c_idx in index_pairs:
        core = SemanticCore(
            seed_abstract=tokens_of(ctx.store.tokens, pools.abstract[list(a_idx)]),
            seed_concrete=tokens_of(ctx.store.tokens, pools.concrete[list(c_idx)]),
        )
        evaluated += 1
        r = ctx.evaluate(core)
        if np.isnan(r):
            continue
        key = _core_sort_key(core)
        if best_r is None or r > best_r or (r == best_r and key < best_key):
            best_r, best_key, best_core = r, key, core
    if best_core is None:
        return SkippedCell(x=x, y=y, z=z,
                           reason="correlation undefined for every evaluated core")
    return CellResult(x=x, y=y, z=z, best_core=best_core, best_r_s=best_r,
                      cores_evaluated=evaluated)


def evaluate_cell_loop(x, y, z, pools, ctx, cfg, ws=None):
    """Score every drawn core of one search cell through the exact path and keep
    the best; `ws`, the batched kernel's workspace, goes unused."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, x, y, z]))
    return _best_cell(x, y, z, zip(*_seed_pairs(y, z, cfg.samples_per_cell, rng)), pools, ctx)


def every_pair_cell(x, y, z, pools, ctx):
    """The best core over every (abstract, concrete) seed pair of a cell,
    enumerated with itertools rather than drawn."""
    seeds = list(itertools.combinations(range(y), z))
    return _best_cell(x, y, z, itertools.product(seeds, repeat=2), pools, ctx)


def pools_by_rule(base, y, counts):
    """Candidate pools by the tie-break rule written out: the abstract pool by
    (rating, -count, token), the concrete pool from the other words by
    (-rating, -count, token)."""
    rating = dict(zip(base.tokens, base.ratings.tolist()))
    abstract = sorted(base.tokens, key=lambda t: (rating[t], -counts[t], t))[:y]
    rest = [t for t in base.tokens if t not in abstract]
    concrete = sorted(rest, key=lambda t: (-rating[t], -counts[t], t))[:y]
    return tuple(abstract), tuple(concrete)


def load_vectors_by_line(path, fold_case=True):
    """`embeddings.load_vectors` one line at a time, with its rules written out
    in order: width, duplicate, rescale, zero norm, non-finite."""
    path = Path(path)
    tokens, rows, index = [], [], {}
    dimension = None
    zero_norm = non_finite = duplicates = 0
    first_line = True
    with open_text(path) as fh, np.errstate(over="ignore"):
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if first_line:  # the first non-blank line may be a header
                first_line = False
                if _looks_like_header(parts):
                    continue
            width = len(parts) - 1
            if dimension is None:
                if width < 1:
                    raise DataError(f"{path}: line {lineno}: record has no vector components")
                dimension = width
            elif width != dimension:
                raise DataError(
                    f"{path}: line {lineno}: expected {dimension} components, found {width}")
            token = parts[0].lower() if fold_case else parts[0]
            if token in index:
                duplicates += 1
                continue
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: unparseable vector component") from exc
            norm = float(np.linalg.norm(vec))
            if not math.isfinite(norm) and np.isfinite(vec).all():
                vec = np.ldexp(vec, -np.frexp(np.max(np.abs(vec)))[1])
                norm = float(np.linalg.norm(vec))
            if norm < MIN_NORM:
                zero_norm += 1
                continue
            if not math.isfinite(norm):
                non_finite += 1
                continue
            index[token] = len(tokens)
            tokens.append(token)
            rows.append(vec / norm)
    if not tokens:
        raise DataError(f"{path}: no usable vector records")
    report = LoadReport(accepted=len(tokens), zero_norm_skipped=zero_norm,
                        non_finite_skipped=non_finite, duplicates_ignored=duplicates)
    try:
        return VectorStore(tokens, np.vstack(rows), source_id=str(path), load_report=report)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _parse_rating(fields):
    if len(fields) != 2:
        return "rejected"
    if len(fields[0].split()) > 1:
        return "multiword_excluded"
    try:
        rating = float(fields[1])
    except ValueError:
        return "rejected"
    return rating if 1.0 <= rating <= 5.0 else "rejected"


def _parse_count(fields):
    if len(fields) != 2:
        return "rejected"
    try:
        count = int(fields[1])
    except ValueError:
        return "rejected"
    return count if count >= 0 else "rejected"


def _parse_prediction(fields):
    if len(fields) < 2:
        raise DataError("need at least 2 tab-separated columns")
    try:
        value = float(fields[1])
    except ValueError:
        raise DataError(f"unparseable rating {fields[1]!r}") from None
    if not math.isfinite(value):
        raise DataError(f"non-finite rating {fields[1]!r}")
    return value


ROW_PARSERS = {"ratings": _parse_rating, "counts": _parse_count,
               "predictions": _parse_prediction, "words": lambda fields: None}


def _is_number(fields):
    """Whether a row has a second field that reads as a number."""
    try:
        float(fields[1])
    except (IndexError, ValueError):
        return False
    return True


def read_table_by_row(path, fold_case, kind, vocab_filter=None):
    """`lexicon.read_table` one row at a time over the non-blank lines, for the
    table kind named `kind` (a key of ROW_PARSERS): the header sniff, the
    kind's parse, the empty-token rule, folding, the filter and duplicates, in
    that order. A word list's header must be followed by a row whose second
    field is a number."""
    parse = ROW_PARSERS[kind]
    entries, drops = {}, {}
    with open_text(path) as fh:
        rows = ((n, line.rstrip("\r\n").split("\t"))
                for n, line in enumerate(fh, start=1) if line.strip())
        first = list(itertools.islice(rows, 1))
        if first and len(first[0][1]) >= 2 and not _is_number(first[0][1]):
            if kind == "words":  # the next row, if any, is read only to sniff the header
                first += itertools.islice(rows, 1)
                header = len(first) == 2 and _is_number(first[1][1])
            else:
                header = True
            if header:
                first.pop(0)
        for lineno, fields in itertools.chain(first, rows):
            try:
                value = parse(fields)
            except DataError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from None
            token = fields[0].strip()
            if isinstance(value, str) or not token:
                cause = value if token else "rejected"
                drops[cause] = drops.get(cause, 0) + 1
                continue
            if fold_case:
                token = token.lower()
            if vocab_filter is not None and token not in vocab_filter:
                drops["filtered_out"] = drops.get("filtered_out", 0) + 1
                continue
            if token in entries:
                drops["duplicates_ignored"] = drops.get("duplicates_ignored", 0) + 1
                continue
            entries[token] = value
    return entries, LoadReport(accepted=len(entries), **drops)


def write_dictionary_by_row(batch, path):
    """The dictionary TSV of a `rater.BatchRating`, one f-string per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, r, s, f in zip(batch.tokens, batch.raw.tolist(), batch.scaled.tolist(),
                              batch.floored.tolist()):
            flags = FLAG_DENOMINATOR_FLOORED if f else "-"
            fh.write(f"{t}\t{r:.9g}\t{s:.3f}\t{flags}\n")
