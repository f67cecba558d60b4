import json
import math
from unittest import mock

import numpy as np
import pytest

from cadict import rater
from cadict.embeddings import VectorStore
from cadict.errors import DataError
from cadict.rater import (
    FLAG_DENOMINATOR_FLOORED,
    SIMILARITY_FLOOR,
    SemanticCore,
    build_dictionary,
    load_core,
    rate_all,
    raw_ratings,
    save_core,
)

from conftest import store_from_raw, store_from_records


class TestSemanticCore:
    def test_valid(self):
        core = SemanticCore(("idea", "hope"), ("rock", "tree"))
        assert core.z == 2

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            SemanticCore(("idea",), ("rock", "tree"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SemanticCore((), ())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SemanticCore(("idea", "idea"), ("rock", "tree"))

    def test_duplicate_concrete_rejected(self):
        # equal sizes, so the size check passes and the concrete half is reached
        with pytest.raises(ValueError, match="duplicate tokens in concrete seed"):
            SemanticCore(("a", "c"), ("b", "b"))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SemanticCore(("idea", "rock"), ("rock", "tree"))


class TestMeanSimilarity:
    """Mean seed similarity as `rate_all` computes it: the dot product of the
    word's unit row with the mean of the seed rows."""

    def test_self_similarity(self, tiny_store):
        # abstract seed {east}: the denominator is cos(east, east) = 1
        batch = rate_all(["east"], SemanticCore(("east",), ("northeast",)), tiny_store)
        assert batch.raw[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_mean_of_two(self, tmp_path):
        store = store_from_records(tmp_path, [("east", [1, 0]), ("east2", [2, 0]),
                                              ("east3", [3, 0]), ("north", [0, 1])])
        # mean of cos(east,east)=1 and cos(east,north)=0, over a denominator of 1
        batch = rate_all(["east"], SemanticCore(("east2", "east3"), ("east", "north")), store)
        assert batch.raw[0] == 0.5

    def test_orthogonal(self, tiny_store):
        # cos(north, east) = 0 floors the numerator; cos(north, north) = 1
        batch = rate_all(["north"], SemanticCore(("north",), ("east",)), tiny_store)
        assert batch.raw[0] == SIMILARITY_FLOOR
        assert not batch.floored[0]


class TestRateWord:
    """One word rated on its own: `rate_all` over a one-word list."""

    def test_known_ratio(self, tiny_store):
        core = SemanticCore(seed_abstract=("northeast",), seed_concrete=("east",))
        batch = rate_all(["east"], core, tiny_store)
        assert batch.raw[0] == pytest.approx(math.sqrt(2), abs=1e-8)
        assert not batch.floored[0]

    def test_equidistant_is_one(self, tiny_store):
        core = SemanticCore(seed_abstract=("north",), seed_concrete=("east",))
        batch = rate_all(["northeast"], core, tiny_store)
        assert batch.raw[0] == 1.0

    def test_denominator_floor_flagged(self, tiny_store):
        core = SemanticCore(seed_abstract=("north",), seed_concrete=("east",))
        batch = rate_all(["east"], core, tiny_store)
        assert batch.raw[0] == pytest.approx(1.0 / SIMILARITY_FLOOR, rel=1e-12)
        assert batch.floored[0]


class TestRateAll:
    def test_minmax_rescale_endpoints(self, tmp_path):
        # cot(theta) ratings 0.5, 1.0, 1.5 against seed_C={e1}, seed_A={e2}
        records = [
            ("e1", [1, 0]), ("e2", [0, 1]),
            ("low", [1, 2]), ("mid", [1, 1]), ("high", [3, 2]),
        ]
        store = store_from_records(tmp_path, records)
        core = SemanticCore(seed_abstract=("e2",), seed_concrete=("e1",))
        batch = rate_all(["low", "mid", "high"], core, store)
        assert batch.raw == pytest.approx([0.5, 1.0, 1.5], abs=1e-12)
        assert batch.scaled[0] == 1.0
        assert batch.scaled[1] == pytest.approx(3.0, abs=1e-9)
        assert batch.scaled[2] == 5.0

    def test_single_word_is_midpoint(self, tiny_store):
        core = SemanticCore(("north",), ("east",))
        batch = rate_all(["northeast"], core, tiny_store)
        assert batch.scaled.tolist() == [3.0]

    def test_oov_skipped_not_fatal(self, tiny_store):
        core = SemanticCore(("north",), ("east",))
        batch = rate_all(["northeast", "ghost", "south"], core, tiny_store)
        assert batch.tokens == ("northeast", "south")
        assert len(batch.raw) == len(batch.scaled) == len(batch.floored) == 2
        assert batch.skipped == ("ghost",)

    def test_empty_resolvable_rejected(self, tiny_store):
        core = SemanticCore(("north",), ("east",))
        with pytest.raises(DataError, match="empty resolvable"):
            rate_all(["ghost", "phantom"], core, tiny_store)

    def test_oov_core_fatal(self, tiny_store):
        core = SemanticCore(("ghost",), ("east",))
        with pytest.raises(DataError, match="'ghost'"):
            rate_all(["north"], core, tiny_store)

    def test_order_preserved(self, tiny_store):
        core = SemanticCore(("north",), ("east",))
        batch = rate_all(["south", "east", "northeast"], core, tiny_store)
        assert batch.tokens == ("south", "east", "northeast")
        for token, raw in zip(batch.tokens, batch.raw):
            assert raw == rate_all([token], core, tiny_store).raw[0]

    def test_raw_and_scaled_rank_orders_agree(self, tmp_path):
        rng = np.random.default_rng(31)
        tokens = [f"w{i:02d}" for i in range(30)]
        store = store_from_raw(tokens, rng.normal(size=(30, 8)))
        core = SemanticCore(tuple(tokens[:3]), tuple(tokens[3:6]))
        batch = rate_all(tokens, core, store)
        assert list(np.argsort(batch.raw, kind="stable")) == \
            list(np.argsort(batch.scaled, kind="stable"))

    def test_whole_store_rated_in_place(self):
        rng = np.random.default_rng(32)
        tokens = [f"w{i:02d}" for i in range(40)]
        store = store_from_raw(tokens, rng.normal(size=(40, 8)))
        core = SemanticCore(tuple(tokens[:3]), tuple(tokens[3:6]))
        with mock.patch.object(rater, "raw_ratings", wraps=rater.raw_ratings) as spy, \
                mock.patch.object(store, "row_index", wraps=store.row_index) as lookups:
            batch = rate_all(None, core, store)
        assert spy.call_args.args[0] is store.matrix
        assert lookups.call_count == 0
        assert batch.tokens == store.tokens and batch.skipped == ()
        # bit-identical to rating a gathered copy of the rows in the same order
        gathered, _ = raw_ratings(store.matrix.copy(), core, store)
        assert batch.raw.tobytes() == gathered.tobytes()


class TestRawRatings:
    def test_one_clip_equals_clip_then_floor(self):
        floor = SIMILARITY_FLOOR
        over = 1 + 5e-7  # inside the store's 1e-6 unit-norm tolerance
        values = [1.0, 0.5, floor, np.nextafter(floor, 1.0), np.nextafter(floor, 0.0),
                  1e-300, 0.0, -0.0, -1e-300, -floor, -0.5, -1.0]
        # seeds c1, a1 are a little over unit length, so a seed's similarity
        # to itself exceeds 1; seeds c3, a4 are exact axes, so a probe's
        # similarity to them is its own component and can sit at the floor
        rows = [[over, 0, 0, 0, 0], [0, over, 0, 0, 0], [-over, 0, 0, 0, 0],
                [0, -over, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
        for s_c in values:
            for s_a in values:
                rest = 1.0 - s_c * s_c - s_a * s_a
                if rest >= 0:
                    rows += [[s_c, s_a, 0, 0, math.sqrt(rest)],
                             [0, 0, s_c, s_a, math.sqrt(rest)]]
        tokens = ["c1", "a1", "-c1", "-a1", "c3", "a4"] + [f"w{i}" for i in range(len(rows) - 6)]
        store = VectorStore(tokens, np.array(rows, dtype=float), source_id="in-memory")
        for core in (SemanticCore(("a1",), ("c1",)), SemanticCore(("a4",), ("c3",))):
            sims_c = store.matrix @ store.rows(core.seed_concrete)[0]
            sims_a = store.matrix @ store.rows(core.seed_abstract)[0]
            expected = (np.maximum(np.clip(sims_c, -1, 1), floor)
                        / np.maximum(np.clip(sims_a, -1, 1), floor))
            raw, floored = raw_ratings(store.matrix, core, store)
            assert raw.tobytes() == expected.tobytes()
            assert np.array_equal(floored, np.clip(sims_a, -1, 1) <= floor)
        # the probes reach past both ends of [-1, 1] and sit on the floor
        sims_over = store.matrix @ store.rows(["c1"])[0]
        assert sims_over.max() > 1.0 and sims_over.min() < -1.0
        assert np.any(store.matrix @ store.rows(["a4"])[0] == floor)


class TestInvariances:
    def test_positive_scale_invariance(self, tmp_path):
        rng = np.random.default_rng(20240601)
        worst = 0.0
        for _ in range(20):
            n, d, z = 50, 16, 5
            tokens = [f"w{i:02d}" for i in range(n)]
            vectors = rng.normal(size=(n, d))
            scales = rng.uniform(0.1, 10.0, size=n)
            plain = store_from_records(tmp_path, list(zip(tokens, vectors)), name="p.txt")
            scaled = store_from_records(
                tmp_path, [(t, v * s) for t, v, s in zip(tokens, vectors, scales)],
                name="s.txt")
            perm = rng.permutation(n)
            core = SemanticCore(tuple(tokens[i] for i in perm[:z]),
                                tuple(tokens[i] for i in perm[z:2 * z]))
            r1 = rate_all(tokens, core, plain).raw
            r2 = rate_all(tokens, core, scaled).raw
            worst = max(worst, float(np.max(np.abs(r1 - r2))))
        assert worst <= 1e-9

    def test_seed_permutation_bit_identical(self):
        rng = np.random.default_rng(32)
        tokens = [f"w{i:02d}" for i in range(40)]
        store = store_from_raw(tokens, rng.normal(size=(40, 12)))
        core = SemanticCore(tuple(tokens[:6]), tuple(tokens[6:12]))
        shuffled = SemanticCore(
            tuple(rng.permutation(core.seed_abstract).tolist()),
            tuple(rng.permutation(core.seed_concrete).tolist()),
        )
        r1 = rate_all(tokens, core, store).raw
        r2 = rate_all(tokens, shuffled, store).raw
        assert r1.tolist() == r2.tolist()

    def test_swap_antisymmetry_unfloored(self):
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(20):
            tokens = [f"w{i:02d}" for i in range(50)]
            store = store_from_raw(tokens, rng.normal(size=(50, 16)))
            perm = rng.permutation(50)
            core = SemanticCore(tuple(tokens[i] for i in perm[:5]),
                                tuple(tokens[i] for i in perm[5:10]))
            fwd = rate_all(tokens, core, store)
            bwd = rate_all(tokens, SemanticCore(core.seed_concrete, core.seed_abstract), store)
            unfloored = ~fwd.floored & ~bwd.floored
            assert np.all(np.abs(bwd.raw - 1.0 / fwd.raw)[unfloored] <= 1e-9)
            checked += int(unfloored.sum())
        assert checked > 100  # the property must actually get exercised

    def test_monotone_in_angle(self, tmp_path):
        angles = list(range(5, 90, 5))
        records = [("e1", [1.0, 0.0]), ("e2", [0.0, 1.0])]
        for deg in angles:
            rad = math.radians(deg)
            records.append((f"t{deg:02d}", [math.cos(rad), math.sin(rad)]))
        store = store_from_records(tmp_path, records)
        core = SemanticCore(seed_abstract=("e2",), seed_concrete=("e1",))
        ratings = rate_all([f"t{deg:02d}" for deg in angles], core, store).raw.tolist()
        for earlier, later in zip(ratings, ratings[1:]):
            assert earlier > later


class TestBuildDictionary:
    def test_whole_store_totality(self, tiny_store, tmp_path):
        core = SemanticCore(("north",), ("east",))
        out = tmp_path / "dict.tsv"
        summary = build_dictionary(core, None, tiny_store, out)
        assert summary.rated == len(tiny_store)
        assert summary.skipped == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(tiny_store)

    def test_row_format(self, tiny_store, tmp_path):
        core = SemanticCore(("north",), ("east",))
        out = tmp_path / "dict.tsv"
        build_dictionary(core, None, tiny_store, out)
        for line in out.read_text(encoding="utf-8").splitlines():
            token, raw, scaled, flags = line.split("\t")
            assert token in tiny_store
            float(raw)
            assert len(scaled.split(".")[1]) == 3
            assert 1.0 <= float(scaled) <= 5.0
            assert flags in ("-", FLAG_DENOMINATOR_FLOORED)

    def test_floored_counted(self, tiny_store, tmp_path):
        core = SemanticCore(("north",), ("east",))
        out = tmp_path / "dict.tsv"
        summary = build_dictionary(core, None, tiny_store, out)
        # 'east' is orthogonal to the abstract seed and 'south' anti-parallel:
        # both denominators floor
        assert summary.floored == 2
        floored_rows = [l for l in out.read_text().splitlines()
                        if l.endswith(FLAG_DENOMINATOR_FLOORED)]
        assert len(floored_rows) == 2

    def test_vocab_skip_report(self, tiny_store, tmp_path):
        core = SemanticCore(("north",), ("east",))
        out = tmp_path / "dict.tsv"
        summary = build_dictionary(core, ["east", "ghost", "south"], tiny_store, out)
        assert summary.rated == 2
        assert summary.skipped == 1
        assert summary.skipped_tokens == ("ghost",)

    def test_all_oov_rejected(self, tiny_store, tmp_path):
        core = SemanticCore(("north",), ("east",))
        with pytest.raises(DataError, match="empty resolvable"):
            build_dictionary(core, ["ghost"], tiny_store, tmp_path / "dict.tsv")

    def test_unwritable_path(self, tiny_store, tmp_path):
        core = SemanticCore(("north",), ("east",))
        with pytest.raises(OSError):
            build_dictionary(core, None, tiny_store, tmp_path / "missing_dir" / "dict.tsv")

    def test_nine_significant_digits(self, tiny_store, tmp_path):
        core = SemanticCore(seed_abstract=("northeast",), seed_concrete=("east",))
        out = tmp_path / "dict.tsv"
        build_dictionary(core, ["east"], tiny_store, out)
        raw_field = out.read_text().splitlines()[0].split("\t")[1]
        # sqrt(2) to 9 significant digits
        assert raw_field == "1.41421356"


class TestCoreFiles:
    def test_round_trip(self, tmp_path):
        core = SemanticCore(("idea", "hope"), ("rock", "tree"))
        path = tmp_path / "core.json"
        save_core(core, path, provenance={"rng_seed": 42, "x": 300})
        loaded, provenance = load_core(path)
        assert loaded == core
        assert provenance["rng_seed"] == 42
        doc = json.loads(path.read_text())
        assert doc["z"] == 2
        assert doc["kind"] == "semantic_core"

    def test_nan_provenance_refused_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "core.json"
        with pytest.raises(ValueError):
            save_core(SemanticCore(("idea",), ("rock",)), path, provenance={"r": float("nan")})
        assert not path.exists()

    def test_z_mismatch_rejected(self, tmp_path):
        path = tmp_path / "core.json"
        path.write_text(json.dumps({
            "z": 3, "seed_abstract": ["a"], "seed_concrete": ["b"], "provenance": {},
        }))
        with pytest.raises(DataError, match="z=3"):
            load_core(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "core.json"
        path.write_text("not json at all {")
        with pytest.raises(DataError):
            load_core(path)

    def test_overlapping_seeds_rejected(self, tmp_path):
        path = tmp_path / "core.json"
        path.write_text(json.dumps({
            "seed_abstract": ["a"], "seed_concrete": ["a"],
        }))
        with pytest.raises(DataError):
            load_core(path)

    @pytest.mark.parametrize("doc", [
        {"seed_abstract": "ab", "seed_concrete": ["c", "d"]},
        {"seed_abstract": ["a", "b"], "seed_concrete": "cd"},
        {"seed_abstract": ["a", 1], "seed_concrete": ["c", "d"]},
        {"seed_abstract": {"a": 1}, "seed_concrete": ["c"]},
        {"seed_concrete": ["c"]},
        ["a", "b"],
    ])
    def test_seeds_must_be_arrays_of_strings(self, tmp_path, doc):
        path = tmp_path / "core.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="not a valid core file"):
            load_core(path)
