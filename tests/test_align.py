"""Label alignment, the Monte Carlo null, and the degeneracy check."""

import itertools

import numpy as np
import pytest

from epiclust.align import (
    BaselineResult,
    _alignments,
    _null_labelings,
    balance_check,
    best_permutation_dissimilarity,
    random_baseline,
)


def brute_force_alignment(a, b, k, metric="squared"):
    """Independent re-derivation: scan all k! bijections in lexicographic
    order with plain loops; return the first cheapest one as (cost,
    permutation, mismatch_rate)."""
    best = (float("inf"), None, None)
    for perm in itertools.permutations(range(k)):
        if metric == "squared":
            cost = sum((perm[x] - y) ** 2 for x, y in zip(a, b)) / len(a)
        else:
            cost = sum(perm[x] != y for x, y in zip(a, b)) / len(a)
        if cost < best[0]:
            best = (cost, perm, sum(perm[x] != y for x, y in zip(a, b)) / len(a))
    return best


def brute_force_cost(a, b, k, metric="squared"):
    return brute_force_alignment(a, b, k, metric)[0]


def test_identical_labelings_cost_zero():
    r = best_permutation_dissimilarity([0, 1, 0, 1], [0, 1, 0, 1], 2)
    assert r.cost == 0.0 and r.permutation == (0, 1) and r.mismatch_rate == 0.0


def test_swapped_labelings_cost_zero():
    r = best_permutation_dissimilarity([0, 0, 1, 1], [1, 1, 0, 0], 2)
    assert r.cost == 0.0 and r.permutation == (1, 0)


def test_half_disagreement():
    # identity and swap both give 0.5; lexicographic tie-break keeps identity
    r = best_permutation_dissimilarity([0, 0, 1, 1], [0, 1, 1, 0], 2)
    assert r.cost == 0.5 and r.permutation == (0, 1) and r.mismatch_rate == 0.5


def test_oracle_equivalence_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        a, b = rng.integers(0, k, n), rng.integers(0, k, n)
        for metric in ("squared", "mismatch"):
            got = best_permutation_dissimilarity(a, b, k, metric).cost
            assert got == brute_force_cost(a.tolist(), b.tolist(), k, metric)


@pytest.mark.parametrize("metric", ["squared", "mismatch"])
def test_search_matches_oracle_bit_for_bit(metric):
    """Cost, tie-broken permutation and mismatch rate all equal the k! scan,
    on random, identical and constant labelings (the last two full of ties),
    one pair at a time and for stacks of pairs aligned in one DP."""
    rng = np.random.default_rng(41)
    for k in range(1, 9):
        stacks = {}  # pairs of one length, aligned together below
        for case in range({7: 8, 8: 3}.get(k, 40)):
            n = int(rng.integers(1, 13 if k < 8 else 7))
            a, b = rng.integers(0, k, n), rng.integers(0, k, n)
            if case % 4 == 1:
                b = a.copy()
            elif case % 4 == 2:
                a = np.full(n, int(rng.integers(0, k)))
            elif case % 4 == 3:
                a, b = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
            want = brute_force_alignment(a.tolist(), b.tolist(), k, metric)
            r = best_permutation_dissimilarity(a, b, k, metric)
            assert (r.cost, r.permutation, r.mismatch_rate) == want
            stacks.setdefault(n, []).append((a, b, want))
        for pairs in stacks.values():
            a, b, wants = zip(*pairs)
            found = _alignments(np.array(a), np.array(b), k, metric)
            assert [(r.cost, r.permutation, r.mismatch_rate) for r in found] == list(wants)


@pytest.mark.parametrize("k", [9, 10, 11, 12])
def test_search_cost_matches_linear_sum_assignment(k):
    """Above the sizes a k! scan can check, the optimum equals a Hungarian
    solve of the same k x k cost matrix."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(k)
    labels = np.arange(k)
    for _ in range(5):
        n = int(rng.integers(k, 200))
        a, b = rng.integers(0, k, n), rng.integers(0, k, n)
        table = np.zeros((k, k), dtype=np.int64)
        np.add.at(table, (a, b), 1)
        for metric, costs in (
            ("squared", table @ (labels[None, :] - labels[:, None]) ** 2),
            ("mismatch", table.sum(axis=1, keepdims=True) - table),
        ):
            rows, cols = optimize.linear_sum_assignment(costs)
            r = best_permutation_dissimilarity(a, b, k, metric)
            assert r.cost == int(costs[rows, cols].sum()) / n
            assert sorted(r.permutation) == list(range(k))
            assert int(costs[labels, list(r.permutation)].sum()) / n == r.cost


def test_relabeling_invariance():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n, k = int(rng.integers(2, 20)), int(rng.integers(1, 5))
        a = rng.integers(0, k, n)
        q = rng.permutation(k)
        assert best_permutation_dissimilarity(q[a], a, k).cost == 0.0


def test_stored_permutation_reproduces_cost():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, k = int(rng.integers(2, 15)), int(rng.integers(2, 4))
        a, b = rng.integers(0, k, n), rng.integers(0, k, n)
        r = best_permutation_dissimilarity(a, b, k)
        remapped = np.asarray(r.permutation)[a]
        assert r.cost == ((remapped - b) ** 2).mean()
        assert r.mismatch_rate == (remapped != b).mean()


def test_mismatch_metric_symmetric_squared_symmetric_for_k2():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        a2, b2 = rng.integers(0, 2, n), rng.integers(0, 2, n)
        assert (
            best_permutation_dissimilarity(a2, b2, 2).cost
            == best_permutation_dissimilarity(b2, a2, 2).cost
        )
        k = int(rng.integers(2, 5))
        a, b = rng.integers(0, k, n), rng.integers(0, k, n)
        assert (
            best_permutation_dissimilarity(a, b, k, "mismatch").cost
            == best_permutation_dissimilarity(b, a, k, "mismatch").cost
        )


def test_squared_metric_is_asymmetric_for_k3():
    # the ordinal weighting makes the squared cost order-dependent: known
    # counterexample, kept as a pinned regression of actual behaviour
    a, b = [0, 0, 1, 2], [0, 1, 2, 0]
    assert best_permutation_dissimilarity(a, b, 3).cost == 0.25
    assert best_permutation_dissimilarity(b, a, 3).cost == 0.75


def test_alignment_errors():
    with pytest.raises(ValueError, match="differ in length"):
        best_permutation_dissimilarity([0, 1], [0], 2)
    with pytest.raises(ValueError, match="must lie in"):
        best_permutation_dissimilarity([0, 2], [0, 1], 2)
    with pytest.raises(ValueError, match=r"k=13 is unsupported: .* limited to k <= 12$"):
        best_permutation_dissimilarity([0] * 5, [0] * 5, 13)
    with pytest.raises(ValueError, match="non-empty"):
        best_permutation_dissimilarity([], [], 2)
    with pytest.raises(ValueError, match="^k must be positive, got 0$"):
        best_permutation_dissimilarity([0], [0], 0)
    with pytest.raises(ValueError, match="unknown metric"):
        best_permutation_dissimilarity([0], [0], 1, metric="hamming")


def test_baseline_single_trial_reproducible():
    b = [0, 1, 2, 0, 1, 2]
    r1 = random_baseline(b, 3, trials=1, seed=5)
    r2 = random_baseline(b, 3, trials=1, seed=5)
    assert r1 == r2
    assert r1.sm2_std == 0.0


def test_baseline_bounds_and_deviation():
    b = np.array([0, 0, 1, 1, 2, 2] * 4)
    sm1 = best_permutation_dissimilarity(b, b, 3).cost
    r = random_baseline(b, 3, trials=50, seed=11, sm1=sm1)
    assert sm1 == 0.0 <= r.sm2_mean
    assert r.deviation == r.sm2_mean - r.sm1
    assert r.trials == 50


def test_baseline_k1_degenerate_label_space():
    r = random_baseline([0, 0, 0], 1, trials=10, seed=0)
    assert r.sm2_mean == 0.0 and r.sm2_std == 0.0


def test_baseline_positive_for_nonconstant_reference():
    rng = np.random.default_rng(23)
    b = rng.integers(0, 2, 25)
    assert b.min() != b.max()
    r = random_baseline(b, 2, trials=100, seed=77)
    assert r.sm2_mean > 0.0


def test_baseline_deterministic_full_result():
    b = [0, 1, 1, 0, 1]
    assert random_baseline(b, 2, trials=20, seed=3) == random_baseline(b, 2, trials=20, seed=3)
    assert random_baseline(b, 2, trials=20, seed=3) != random_baseline(b, 2, trials=20, seed=4)


def test_baseline_mean_std_match_manual_recompute():
    b = np.array([0, 1, 0, 1, 1, 0, 1])
    costs = []
    for drawn in np.random.default_rng(9).integers(0, 2, (25, b.size)):
        costs.append(best_permutation_dissimilarity(drawn, b, 2).cost)
    r = random_baseline(b, 2, trials=25, seed=9)
    assert r.sm2_mean == np.mean(costs)
    assert r.sm2_std == np.std(costs)  # population std


@pytest.mark.parametrize("metric", ["squared", "mismatch"])
@pytest.mark.parametrize("mode", ["uniform", "shuffle"])
def test_baseline_equals_per_trial_loop(mode, metric):
    """The batched null returns what aligning one drawn labeling at a time
    with the k! scan returns, field for field."""
    rng = np.random.default_rng(53)
    for k in (1, 2, 3, 4):
        b = rng.integers(0, k, int(rng.integers(1, 16)))
        draw = np.random.default_rng(6)
        if mode == "uniform":
            drawn = draw.integers(0, k, (20, b.size))
        else:
            drawn = np.array([b] * 20)
            for row in drawn:  # one row after another, from the one stream
                draw.shuffle(row)
        costs = [brute_force_cost(row.tolist(), b.tolist(), k, metric) for row in drawn]
        mean = float(np.mean(costs))
        expected = BaselineResult(0.25, mean, float(np.std(costs)), 20, mean - 0.25)
        assert random_baseline(b, k, 20, 6, sm1=0.25, metric=metric, mode=mode) == expected


def test_baseline_shuffle_mode_preserves_sizes():
    b = np.array([0] * 8 + [1] * 3 + [2] * 2)
    drawn = _null_labelings(b, 3, 10, 4, "shuffle")
    assert drawn.shape == (10, b.size)
    for row in drawn:
        assert np.array_equal(np.bincount(row, minlength=3), np.bincount(b))
    assert len({row.tobytes() for row in drawn}) > 1  # the rows are shuffled
    r = random_baseline(b, 3, trials=10, seed=4, mode="shuffle")
    costs = [best_permutation_dissimilarity(row, b, 3).cost for row in drawn]
    assert (r.sm2_mean, r.sm2_std) == (np.mean(costs), np.std(costs))


@pytest.mark.parametrize("mode", ["uniform", "shuffle"])
def test_null_trials_are_a_prefix_of_a_longer_draw(mode):
    # one stream per cell, trial t in row t: the first T trials of a 2T-trial
    # draw are the T-trial draw, and shuffled rows keep the sizes of b
    rng = np.random.default_rng(41)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        b = rng.integers(0, k, int(rng.integers(1, 40)))
        trials, seed = int(rng.integers(1, 50)), int(rng.integers(2**32))
        short = _null_labelings(b, k, trials, seed, mode)
        long = _null_labelings(b, k, 2 * trials, seed, mode)
        assert short.shape == (trials, b.size)
        assert np.array_equal(long[:trials], short)
        assert long.min() >= 0 and long.max() < k
        if mode == "shuffle":
            sizes = np.bincount(b, minlength=k)
            assert all(np.array_equal(np.bincount(row, minlength=k), sizes) for row in long)


def test_balance_check_boundary():
    assert balance_check([0, 0, 0, 0, 1], 0.8) == balance_check(np.array([0, 0, 0, 0, 1]))
    diag = balance_check([0, 0, 0, 0, 1], 0.8)
    assert not diag.balanced and diag.largest_fraction == 0.8


def test_balance_check_balanced_and_degenerate():
    assert balance_check([0, 0, 1, 1], 0.8).balanced
    single = balance_check([0, 0, 0], 0.8)
    assert not single.balanced and single.largest_fraction == 1.0


def test_balance_check_accepts_assignment_objects():
    from epiclust.cluster import KMeansConfig, kmeans

    km = kmeans(np.array([0.0, 0.1, 5.0, 5.1]), 2, KMeansConfig(seed=0))
    assert balance_check(km, 0.8).balanced


def test_balance_check_errors():
    with pytest.raises(ValueError, match="empty"):
        balance_check([])
    with pytest.raises(ValueError, match="max_fraction"):
        balance_check([0, 1], 0.0)
