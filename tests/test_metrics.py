import math

import numpy as np
import pytest

from cadict.metrics import (
    average_ranks,
    binary_accuracy,
    centred_ranks,
    evaluate_ratings,
    exact_dot,
    pearson,
    rank_correlation,
    spearman,
    tie_ranks,
)

from oracles import brute_ranks, pearson_direct, spearman_bruteforce, spearman_d2


class TestAverageRanks:
    def test_strict_order(self):
        assert list(average_ranks([10, 20, 30])) == [1, 2, 3]

    def test_tie_midpoint(self):
        assert list(average_ranks([10, 10, 30])) == [1.5, 1.5, 3]

    def test_all_tied(self):
        assert list(average_ranks([5, 5, 5])) == [2, 2, 2]

    def test_equal_infinities_tie(self):
        # their difference is NaN, but they compare equal
        assert list(average_ranks([np.inf, 1.0, np.inf, -np.inf])) == [3.5, 2, 3.5, 1]

    def test_ranks_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            x = rng.integers(0, 5, size=n).astype(float)
            assert math.fsum(average_ranks(x)) == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            x = rng.integers(0, 6, size=n).astype(float)
            assert list(average_ranks(x)) == brute_ranks(list(x))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_ranks([])


class TestSpearman:
    def test_identity(self):
        assert spearman([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_known_value(self):
        # d^2 oracle: ranks differ by (0,1,1,0) -> 1 - 6*2/60 = 0.8
        assert spearman_d2([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(ValueError, match="constant"):
            spearman([1, 2, 3], [4.0, 4.0, 4.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert spearman(x, y) == spearman(y, x)

    def test_agrees_with_d2_formula_tie_free(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            assert spearman(x, y) == pytest.approx(spearman_d2(list(x), list(y)), abs=1e-12)

    def test_agrees_with_bruteforce_under_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(3, 12))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman(x, y) == pytest.approx(spearman_bruteforce(list(x), list(y)), abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(3, 25))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            base = spearman(x, y)
            assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
            assert spearman(x, y ** 3) == pytest.approx(base, abs=1e-12)


class TestPearson:
    def test_positive_affine(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert pearson(x, [2 * v + 1 for v in x]) == 1.0

    def test_negative(self):
        x = [1.0, 2.0, 5.0]
        assert pearson(x, [-v for v in x]) == -1.0

    def test_known_value(self):
        expected = pearson_direct([1, 2, 3], [1, 2, 4])  # 0.98198051 by hand sums
        assert expected == pytest.approx(0.98198051, abs=1e-8)
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pearson([1.0, 1.0], [1, 2])

    @pytest.mark.parametrize("x, y, message", [
        ([1.0, 2.0], [1.0, 2.0, 3.0], "two equal-length 1-d sequences"),
        ([[1.0, 2.0]], [[1.0, 2.0]], "two equal-length 1-d sequences"),
        ([1.0], [2.0], "at least 2 points"),
        ([], [], "at least 2 points"),
    ])
    def test_bad_shapes_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            pearson(x, y)

    def test_affine_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            a = float(rng.uniform(0.1, 10))
            b = float(rng.uniform(-5, 5))
            assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-9)
            assert pearson(x, a * y + b) == pytest.approx(pearson(x, y), abs=1e-9)

    def test_huge_values_do_not_overflow(self):
        gold = [1.5, 2.5, 3.5]
        assert pearson([1e200, 2e200, 3e201], gold) == pearson([1, 2, 30], gold)
        assert math.isfinite(pearson([1.7e308, -1.7e308, 1e308], gold))

    def test_clamped(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert -1.0 <= pearson(x, y) <= 1.0


class TestTieRanks:
    def test_untied_positions_get_the_fixed_weights(self):
        for n in (1, 2, 7):
            assert list(tie_ranks(np.zeros(n - 1, dtype=bool))) == list(range(1 - n, n, 2))

    def test_a_run_shares_its_centred_average_rank(self):
        # sorted [1, 1, 2, 3, 3, 3]: runs [0, 2), [2, 3), [3, 6)
        assert list(tie_ranks(np.array([True, False, False, True, True]))) == \
            [-4, -4, -1, 3, 3, 3]

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            x = np.sort(rng.integers(0, int(rng.integers(1, 6)), size=n).astype(float))
            expected = [int(2 * r) - (n + 1) for r in brute_ranks(list(x))]
            assert list(tie_ranks(x[1:] == x[:-1])) == expected
            shuffled = rng.permutation(x)
            assert list(centred_ranks(shuffled)) == \
                [int(2 * r) - (n + 1) for r in brute_ranks(list(shuffled))]

    def test_rows_rank_as_each_row_alone(self):
        rng = np.random.default_rng(11)
        x = np.sort(rng.integers(0, 4, size=(6, 9)), axis=1)
        equal = x[:, 1:] == x[:, :-1]
        out = np.full((2, 6, 9), -99, dtype=np.int64)
        ranks = tie_ranks(equal, out=out)
        assert np.shares_memory(ranks, out[0])
        for row, mask in zip(ranks, equal):
            assert list(row) == list(tie_ranks(mask))


class TestRankCorrelation:
    @pytest.mark.parametrize("n", [2, 7, 300, 5000, 400_000])
    def test_equals_pearson_on_the_same_ranks(self, n):
        # at 400k words float sums of squared half-integer deviations round;
        # the int64 sums do not, and convert as fsum rounds
        rng = np.random.default_rng(n)
        for levels in (2, 5, 40, None):
            x = rng.integers(0, levels, n) if levels else rng.normal(size=n)
            y = rng.integers(0, 3, n)
            rx, ry = average_ranks(x), average_ranks(y)
            if np.all(rx == rx[0]) or np.all(ry == ry[0]):
                continue
            assert rank_correlation(centred_ranks(x), centred_ranks(y)) == pearson(rx, ry)

    def test_rows_correlate_as_each_row_alone(self):
        rng = np.random.default_rng(4)
        u = np.stack([centred_ranks(rng.integers(0, 5, 40)) for _ in range(5)])
        g = np.stack([centred_ranks(rng.normal(size=40)) for _ in range(5)])
        rows = rank_correlation(u, g)
        assert rows.shape == (5,)
        assert [float(r) for r in rows] == [float(rank_correlation(a, b)) for a, b in zip(u, g)]

    def test_constant_ranks_are_nan(self):
        rng = np.random.default_rng(3)
        gold = centred_ranks(rng.integers(0, 4, 50))
        assert np.isnan(rank_correlation(centred_ranks(np.zeros(50)), gold))
        with pytest.raises(ValueError, match="of one shape"):
            rank_correlation(np.tile(gold, (2, 1)), gold)
        with pytest.raises(ValueError, match="int64 centred ranks"):  # fractional ranks
            rank_correlation(average_ranks(gold), average_ranks(gold))

    def test_exact_past_the_int64_bound(self):
        n = 3_000_000
        while (n ** 3 - n) // 3 <= 2 ** 63 - 1:
            n += 1
        widest = tie_ranks(np.zeros(n - 2, dtype=bool))  # the largest n summed in one int64 block
        assert rank_correlation(widest, widest) == 1.0
        assert rank_correlation(widest[::-1], widest) == -1.0
        # past it the int64 blocks add up as Python ints, still exact
        n = 3_100_000
        weights = tie_ranks(np.zeros(n - 1, dtype=bool))
        assert rank_correlation(weights, weights) == 1.0
        assert rank_correlation(weights[::-1], weights) == -1.0
        rng = np.random.default_rng(31)
        x, y = rng.integers(0, 1000, n), rng.normal(size=n)
        u, v = centred_ranks(x), centred_ranks(y)
        assert rank_correlation(u, v) == pearson(average_ranks(x), average_ranks(y))
        # rows of centred ranks against the weights of an untied order, as the
        # screen sums untied cores, and against weights per row, as it sums tied ones
        rows = np.stack([u, v])
        sums = exact_dot(rows, weights)
        assert sums[0] == exact_dot(u, weights) and sums[1] == exact_dot(v, weights)
        assert sums[1] == float(sum(a * b for a, b in zip(v.tolist(), weights.tolist())))
        per_row = exact_dot(rows, np.stack([weights, u]))
        assert per_row[0] == sums[0] and per_row[1] == exact_dot(v, u)
        # an untied row's sum of squares is (n^3 - n) / 3, past the int64 bound
        assert exact_dot(rows, rows)[1] == float((n ** 3 - n) // 3)
        assert list(rank_correlation(rows, rows[::-1])) == [rank_correlation(u, v)] * 2


class TestScipyOracle:
    """Both correlations against scipy.stats on tie-heavy inputs; skipped without scipy."""

    def test_spearman_and_pearson_match_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(9)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 60))
            levels = int(rng.integers(2, 6))
            x = rng.integers(0, levels, size=n) * rng.uniform(0.1, 3.0)
            y = rng.integers(0, levels, size=n) + rng.normal(0.0, 1e-3) * x
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman(x, y) == pytest.approx(stats.spearmanr(x, y)[0], abs=1e-12)
            assert pearson(x, y) == pytest.approx(stats.pearsonr(x, y)[0], abs=1e-12)
            checked += 1
        assert checked > 200


class TestBinaryAccuracy:
    def test_identity(self):
        gold = [1.0, 2.0, 4.0, 5.0]
        assert binary_accuracy(gold, gold, 3.0, 3.0) == 1.0

    def test_full_inversion(self):
        gold = [1.0, 2.0, 4.0, 5.0]
        pred = [6 - g for g in gold]
        assert binary_accuracy(pred, gold, 3.0, 3.0) == 0.0

    def test_enumerated_value(self):
        pred, gold = [1, 2, 3, 4], [1, 1, 5, 1]
        expected = sum((p >= 2.5) == (g >= 3.0) for p, g in zip(pred, gold)) / 4
        assert expected == 0.75
        assert binary_accuracy(pred, gold, 3.0, 2.5) == expected

    def test_range_and_complement(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            pred = rng.normal(size=n)
            gold = rng.normal(size=n)
            tp, tg = 0.1, -0.2  # continuous draws never hit the thresholds
            acc = binary_accuracy(pred, gold, tg, tp)
            assert 0.0 <= acc <= 1.0
            flipped = binary_accuracy(-pred, gold, tg, -tp + 1e-12)
            assert acc + flipped == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binary_accuracy([], [], 3.0, 3.0)


class TestEvaluateRatings:
    def test_identity_balanced(self):
        gold = [1.0, 2.0, 4.0, 5.0]
        report = evaluate_ratings(gold, gold)
        assert report.r_s == 1.0
        assert report.rho == 1.0
        assert report.accuracy == 1.0
        assert report.n == 4
        assert report.threshold_gold == 3.0
        assert report.threshold_pred == 3.0  # median of the predictions

    def test_reversal(self):
        gold = [1.0, 2.0, 4.0, 5.0]
        report = evaluate_ratings([6 - g for g in gold], gold)
        assert report.r_s == -1.0
        assert report.rho == -1.0

    def test_threshold_override(self):
        report = evaluate_ratings([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 5.0, 1.0],
                                  threshold_gold=3.0, threshold_pred=2.5)
        assert report.accuracy == 0.75
        assert report.threshold_pred == 2.5
