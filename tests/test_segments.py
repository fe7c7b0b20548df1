import numpy as np

from ufrank.segments import first_max, group_sums, running_sums, sorted_runs


def random_segments(rng, n_rows, n_cols):
    A = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(-3, 4)
    src = rng.integers(0, n_rows, size=int(rng.integers(1, 60)))
    cuts = np.sort(rng.choice(np.arange(1, src.size + 1),
                              size=min(src.size, int(rng.integers(1, 8))),
                              replace=False))
    heads = np.unique(np.append(0, cuts[cuts < src.size]))
    return A, src, heads


def segment_slices(heads, size):
    return list(zip(heads, np.append(heads[1:], size)))


def test_group_sums_add_each_group_in_order():
    rng = np.random.default_rng(1)
    for _ in range(40):
        A, src, heads = random_segments(rng, 30, 4)
        got = group_sums(A, src, heads)
        for i, (a, b) in enumerate(segment_slices(heads, src.size)):
            acc = np.zeros(A.shape[1])
            for r in src[a:b]:
                acc = acc + A[r]
            assert got[i].tobytes() == acc.tobytes()


def test_running_sums_restart_at_each_head_and_ignore_neighbours():
    rng = np.random.default_rng(2)
    for _ in range(40):
        A, src, heads = random_segments(rng, 30, 3)
        at = np.sort(rng.choice(src.size, size=int(rng.integers(1, src.size + 1)),
                                replace=False))
        got = running_sums(A, src, heads, at)
        for j, pos in enumerate(at):
            a = heads[np.searchsorted(heads, pos, side="right") - 1]
            expect = np.cumsum(A[src[a:pos + 1]], axis=0)[-1]
            assert got[j].tobytes() == expect.tobytes()
            # the same segment alone gives the same bytes
            alone = running_sums(A, src[a:pos + 1], np.array([0]),
                                 np.array([pos - a]))
            assert alone[0].tobytes() == got[j].tobytes()


def test_first_max_takes_the_first_listed_maximum_per_owner():
    rng = np.random.default_rng(3)
    for _ in range(40):
        owner = rng.integers(0, 5, size=25)
        h = rng.integers(0, 4, size=25).astype(np.float64)  # many ties
        got = first_max(owner, h)
        expect = [min(np.flatnonzero((owner == o) & (h == h[owner == o].max())))
                  for o in np.unique(owner)]
        np.testing.assert_array_equal(got, expect)


def test_sorted_runs_flag_pairs_and_runs():
    pair = np.array([2, 0, 2, 0, 0, 2])
    value = np.array([5.0, 1.0, 5.0, 3.0, 1.0, 4.0])
    order, sp, sv, pair_head, run_head = sorted_runs(pair, value)
    np.testing.assert_array_equal(order, [1, 4, 3, 5, 0, 2])
    np.testing.assert_array_equal(sp, [0, 0, 0, 2, 2, 2])
    np.testing.assert_array_equal(sv, [1.0, 1.0, 3.0, 4.0, 5.0, 5.0])
    np.testing.assert_array_equal(pair_head, [1, 0, 0, 1, 0, 0])
    np.testing.assert_array_equal(run_head, [1, 0, 1, 1, 1, 0])
