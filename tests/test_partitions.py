"""DP counters vs the literal brute-force enumerator, plus the small
identities that tie the families together."""

import pytest

from glaisher.partitions import (
    BRUTE_FORCE_LIMIT,
    FamilySpec,
    brute_force_count,
    count_A,
    count_B,
    count_Bj,
    count_C,
    count_D,
    count_bounded_mult,
    count_table,
)


def test_bounded_mult_examples():
    assert count_bounded_mult(3, 4) == 4   # 4, 3+1, 2+2, 2+1+1
    assert count_bounded_mult(2, 5) == 3   # distinct parts: 5, 4+1, 3+2
    assert count_bounded_mult(4, 0) == 1


def test_bounded_mult_part_window():
    # partitions of 7 into parts from [2, 4], each at most twice
    explicit = [(4, 3), (3, 2, 2)]
    assert count_bounded_mult(3, 7, 2, 4) == len(explicit)
    # unbounded window collapses to the A family
    assert count_bounded_mult(3, 9, 1, None) == count_A(3, 9)


def test_count_A_examples():
    assert count_A(3, 4) == 4
    assert count_A(2, 5) == 3
    assert count_A(5, 3) == 3


def test_count_B_examples():
    assert count_B(3, 4) == 4
    assert count_B(2, 5) == 3
    assert count_B(3, 5) == 5


def test_count_Bj_examples():
    assert count_Bj(3, 1, 4) == 2   # {4}, {1,1,1,1}
    assert count_Bj(3, 2, 4) == 2   # {2,2}, {2,1,1}
    assert count_Bj(3, 2, 5) == 3   # {5}, {2,2,1}, {2,1,1,1}


def test_count_C_examples():
    assert count_C(3, 5) == 2   # {3,2}, {3,1,1}
    assert count_C(3, 6) == 3   # {3,3}, {3,2,1}, {6}
    assert count_C(3, 4) == 1   # {3,1}


def test_count_D_examples():
    assert count_D(3, 3) == 3
    assert count_D(3, 4) == 4
    assert count_D(3, 5) == 6


def test_conventions_at_zero():
    for m in range(2, 7):
        assert count_A(m, 0) == 1
        assert count_B(m, 0) == 1
        assert count_C(m, 0) == 1
        assert count_D(m, 0) == 1
        for j in range(1, m):
            assert count_Bj(m, j, 0) == 0


def test_argument_validation():
    for fn in (count_A, count_B, count_C, count_D):
        with pytest.raises(ValueError):
            fn(1, 5)
        with pytest.raises(ValueError):
            fn(3, -1)
    with pytest.raises(ValueError):
        count_Bj(3, 0, 5)
    with pytest.raises(ValueError):
        count_Bj(3, 3, 5)
    with pytest.raises(ValueError):
        count_bounded_mult(3, 5, 0)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("Bj", 3)          # missing j
    with pytest.raises(ValueError):
        FamilySpec("Bj", 3, 3)       # j out of range
    with pytest.raises(ValueError):
        FamilySpec("A", 3, 1)        # j not allowed
    with pytest.raises(ValueError):
        FamilySpec("E", 3)
    with pytest.raises(ValueError):
        FamilySpec("A", 1)


def test_count_table():
    table = count_table(FamilySpec("C", 3), 6)
    assert table.counts == (1, 0, 0, 1, 1, 2, 3)
    assert table.n_max == 6
    table = count_table(FamilySpec("Bj", 3, 2), 5)
    assert table.counts == (0, 0, 1, 1, 2, 3)


def test_count_table_builds_its_table_once(monkeypatch):
    from glaisher import partitions

    real, sizes = partitions._build_C, []

    def build(m, n_max):
        sizes.append(n_max)
        return real(m, n_max)

    monkeypatch.setattr(partitions, "_cache", {})
    monkeypatch.setattr(partitions, "_build_C", build)
    table = count_table(FamilySpec("C", 2), 300)
    assert sizes == [300]
    assert table.counts == tuple(real(2, 300))


def test_brute_force_examples():
    assert brute_force_count(FamilySpec("A", 3), 4) == 4
    assert brute_force_count(FamilySpec("C", 3), 6) == 3
    assert brute_force_count(FamilySpec("B", 2), 0) == 1


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_count(FamilySpec("A", 2), BRUTE_FORCE_LIMIT + 1)


def _all_specs(m):
    specs = [FamilySpec(f, m) for f in ("A", "B", "C", "D")]
    specs += [FamilySpec("Bj", m, j) for j in range(1, m)]
    return specs


@pytest.mark.parametrize("m", [2, 3])
def test_brute_force_agrees_with_dp(m):
    dp = {
        "A": lambda sp, n: count_A(sp.m, n),
        "B": lambda sp, n: count_B(sp.m, n),
        "Bj": lambda sp, n: count_Bj(sp.m, sp.j, n),
        "C": lambda sp, n: count_C(sp.m, n),
        "D": lambda sp, n: count_D(sp.m, n),
    }
    for n in range(21):
        for sp in _all_specs(m):
            assert brute_force_count(sp, n) == dp[sp.family](sp, n), (sp, n)


def test_bounded_and_regular_counts_agree():
    # the classical equal-count theorem at small scale
    for m in range(2, 7):
        for n in range(61):
            assert count_A(m, n) == count_B(m, n), (m, n)


def test_largest_part_residues_decompose_regular_counts():
    for m in range(2, 6):
        for n in range(1, 61):
            assert sum(count_Bj(m, j, n) for j in range(1, m)) == count_B(m, n)


def test_top_residue_matches_shifted_C():
    for m in range(2, 6):
        for n in range(61):
            assert count_Bj(m, m - 1, n) == count_C(m, n + 1), (m, n)


def test_D_dominates_A():
    for m in range(2, 6):
        for n in range(1, 41):
            assert count_D(m, n) >= count_A(m, n)


def test_counts_nonnegative_and_growing_cache():
    # exercise the memo growth path: small request then a larger one
    assert count_C(5, 3) == 0
    assert count_C(5, 60) >= 0
    assert all(count_D(4, n) >= 0 for n in range(50))


def test_concurrent_reads_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    expected = [count_D(3, n) for n in range(150)]
    def worker(_):
        return [count_D(3, n) for n in range(150)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for got in pool.map(worker, range(16)):
            assert got == expected
