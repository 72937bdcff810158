"""Acceptance suite.

One test per criterion; each prints a `[criterion N] PASS/FAIL` line (run
with `pytest tests/test_acceptance.py -v -s` to watch them).  Exact
arithmetic throughout; no tolerances anywhere.

Criterion 3 is split: the three arithmetic routes to the correction series
(definition / triangular / qbinomial) agree coefficientwise everywhere and
that is asserted as stated; the count identity m*C(n) = D(n) + E(n) is
asserted (a) where it actually holds (m = 3 everywhere, m = 2 away from
n = 1) and (b) verbatim over the full stated grid.  Part (b) FAILS, and is
meant to: the package's cross-validation shows the identity is false at
n = 1 for every m != 3 and densely false for m >= 4, with witnesses printed
below.  The red test is the finding; do not silence it.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from glaisher import (
    FamilySpec,
    PochSpec,
    Series,
    brute_force_count,
    count_A,
    count_B,
    count_Bj,
    count_C,
    count_D,
    density_report,
    epsilon,
    gf_Bj_lhs,
    gf_C,
    gf_D,
    gf_regular,
    inv_pochhammer,
    pochhammer,
    qbinomial_poly,
    verify,
)
from glaisher.ring import CycInt, chi, cyc_as_integer, cyc_root_power, euler_phi


def _criterion(num, description, ok, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num}: {description}\n{detail}"


def test_criterion_01_equal_count_theorem():
    t0 = time.perf_counter()
    bad = []
    for m in range(2, 7):
        report = verify("T1.2", m, n_max=300)
        if not report.passed:
            bad.append((m, report.first_failure))
    _criterion(1, "bounded-multiplicity counts equal no-multiple counts, "
                  "m in [2,6], n <= 300, counts and products",
               not bad, f"{time.perf_counter() - t0:.1f}s" if not bad else str(bad))


def test_criterion_02_shifted_C_theorem():
    t0 = time.perf_counter()
    bad = []
    for m in range(2, 6):
        report = verify("T1.3", m, n_max=200)
        if not report.passed:
            bad.append((m, report.first_failure))
    _criterion(2, "top-residue counts equal shifted C counts, m in [2,5], "
                  "n <= 200",
               not bad, f"{time.perf_counter() - t0:.1f}s" if not bad else str(bad))


def test_criterion_03a_correction_routes_identical():
    t0 = time.perf_counter()
    bad = []
    for m in range(2, 6):
        e_def = epsilon(m, 300, "definition")
        e_tri = epsilon(m, 300, "triangular")
        e_qb = epsilon(m, 300, "qbinomial")
        if not (e_def == e_tri == e_qb):
            bad.append(m)
    # wider modulus at the documented invariant precision
    if not (epsilon(6, 200, "definition") == epsilon(6, 200, "triangular")
            == epsilon(6, 200, "qbinomial")):
        bad.append(6)
    _criterion("3a", "correction series identical by definition/triangular/"
                     "qbinomial routes, m in [2,6]",
               not bad, f"{time.perf_counter() - t0:.1f}s" if not bad else str(bad))


def test_criterion_03b_identity_where_established():
    t0 = time.perf_counter()
    bad = []
    e2 = epsilon(2, 300, "triangular")
    for n in [0] + list(range(2, 301)):
        if 2 * count_C(2, n) != count_D(2, n) + e2.coeff(n):
            bad.append((2, n))
    e3 = epsilon(3, 300, "triangular")
    for n in range(301):
        if 3 * count_C(3, n) != count_D(3, n) + e3.coeff(n):
            bad.append((3, n))
    if epsilon(3, 300, "identity") != e3:
        bad.append((3, "identity route"))
    _criterion("3b", "m*C(n) = D(n) + E(n) where the identity is "
                     "established (m=2 off n=1; m=3 everywhere), n <= 300",
               not bad, f"{time.perf_counter() - t0:.1f}s" if not bad else str(bad))


def test_criterion_03c_identity_as_stated():
    t0 = time.perf_counter()
    failures = {}
    for m in range(2, 6):
        e = epsilon(m, 300, "triangular")
        misses = [(n, m * count_C(m, n), count_D(m, n) + e.coeff(n))
                  for n in range(301)
                  if m * count_C(m, n) != count_D(m, n) + e.coeff(n)]
        if misses:
            failures[m] = misses
    ok = not failures
    if ok:
        detail = f"{time.perf_counter() - t0:.1f}s"
    else:
        parts = []
        for m, misses in failures.items():
            n0, lhs, rhs = misses[0]
            parts.append(f"m={m}: {len(misses)} failing n, first at n={n0} "
                         f"({m}*C({n0})={lhs} vs D+E={rhs})")
        detail = (
            "the count identity m*C(n) = D(n) + E(n) is genuinely false on "
            "part of the stated grid even though the three E-routes agree "
            "exactly (criterion 3a): " + "; ".join(parts) +
            ". It holds for m=3 at every n and for m=2 at every n != 1; "
            "for m >= 4 the raw difference m*C - D is a different series. "
            "See the identity-route regression tests for the pinned "
            "divergence values."
        )
    _criterion("3c", "m*C(n) = D(n) + E(n) verbatim for m in [2,5], n <= 300",
               ok, detail)


def test_criterion_04_closed_form_m3():
    t0 = time.perf_counter()
    e_def = epsilon(3, 500, "definition")
    e_closed = epsilon(3, 500, "closed3")
    ok = e_def == e_closed and e_def.coeffs[:3] == (2, -1, -2)
    _criterion(4, "m=3 correction series equals its closed form to "
                  "precision 500, prefix 2,-1,-2",
               ok, f"{time.perf_counter() - t0:.1f}s")


def test_criterion_05_almost_identity_m3():
    t0 = time.perf_counter()
    report = verify("T1.6", m=3, n_max=500)
    _criterion(5, "3*C(n) = D(n) exactly off shifted triangular n <= 500, "
                  "and fails exactly on them",
               report.passed,
               f"{time.perf_counter() - t0:.1f}s" if report.passed
               else str(report.first_failure))


def test_criterion_06_density_census():
    t0 = time.perf_counter()
    problems = []
    for m in range(2, 7):
        stats = density_report(m, 5000)
        if not stats.bound_satisfied:
            problems.append(f"m={m} bound")
        if stats.N_x + stats.nonzero_count != 5000:
            problems.append(f"m={m} partition")
    stats3 = density_report(3, 5000)
    if stats3.ratio < Fraction(97, 100):
        problems.append(f"m=3 ratio {stats3.ratio}")
    support = [n for n, c in enumerate(epsilon(3, 4999, "triangular").coeffs)
               if c and n > 0]
    expected = []
    k = 0
    while k * (k + 1) // 2 + 1 <= 4999:
        expected.append(k * (k + 1) // 2 + 1)
        k += 1
    if support != expected:
        problems.append("m=3 support mismatch")
    _criterion(6, "correction-series sparsity: window bound holds for "
                  "m in [2,6] at x=5000; m=3 support is exactly the "
                  "shifted triangulars; m=3 ratio >= 0.97",
               not problems,
               f"ratio(m=3)={float(stats3.ratio):.4f}, "
               f"{time.perf_counter() - t0:.1f}s"
               if not problems else "; ".join(problems))


def test_criterion_07_product_identities():
    t0 = time.perf_counter()
    bad = []
    for m in range(2, 6):
        for n_sum in range(1, 11):
            report = verify("T1.9", m, n_sum=n_sum, precision=100)
            if not report.passed:
                bad.append((m, n_sum, report.first_failure))
        report = verify("C1.10", m, precision=200)
        if not report.passed:
            bad.append((m, "inf", report.first_failure))
    _criterion(7, "finite product identity for m in [2,5], blocks 1..10 at "
                  "precision 100; infinite form matches the regular product "
                  "at precision 200",
               not bad, f"{time.perf_counter() - t0:.1f}s" if not bad else str(bad))


def test_criterion_08_oracle_triple_agreement():
    t0 = time.perf_counter()
    n_max = 35
    bad = []
    for m in range(2, 7):
        gf = {
            "A": gf_regular(m, "A_product", n_max),
            "B": gf_regular(m, "B_product", n_max),
            "C": gf_C(m, n_max),
            "D": gf_D(m, n_max),
        }
        dp = {
            "A": lambda n, m=m: count_A(m, n),
            "B": lambda n, m=m: count_B(m, n),
            "C": lambda n, m=m: count_C(m, n),
            "D": lambda n, m=m: count_D(m, n),
        }
        for fam in ("A", "B", "C", "D"):
            spec = FamilySpec(fam, m)
            for n in range(n_max + 1):
                b = brute_force_count(spec, n)
                d = dp[fam](n)
                g = gf[fam].coeff(n)
                if not (b == d == g):
                    bad.append((fam, m, n, b, d, g))
        # the residue family: brute == DP per branch; the decomposition
        # series is its generating function, summed over branches
        lhs = gf_Bj_lhs(m, None, n_max)
        for n in range(n_max + 1):
            per_j = [brute_force_count(FamilySpec("Bj", m, j), n)
                     for j in range(1, m)]
            if per_j != [count_Bj(m, j, n) for j in range(1, m)]:
                bad.append(("Bj", m, n, "brute vs dp"))
            total = sum(per_j) + (1 if n == 0 else 0)
            if total != lhs.coeff(n):
                bad.append(("Bj-sum", m, n, total, lhs.coeff(n)))
    _criterion(8, "brute force == DP == generating function for every "
                  "family, m in [2,6], n <= 35",
               not bad, f"{time.perf_counter() - t0:.1f}s" if not bad
               else str(bad[:4]))


def test_criterion_09_m2_correction_is_one():
    t0 = time.perf_counter()
    e2 = epsilon(2, 2000, "triangular")
    ok = e2 == Series.one(2000)
    # consequence: 2*C(n) = D(n) for n >= 2 (and provably not at n = 1)
    ok = ok and all(2 * count_C(2, n) == count_D(2, n) for n in range(2, 301))
    ok = ok and 2 * count_C(2, 1) != count_D(2, 1)
    _criterion(9, "m=2 correction series is exactly 1 to precision 2000; "
                  "2*C(n) = D(n) for 2 <= n <= 300",
               ok, f"{time.perf_counter() - t0:.1f}s")


def test_criterion_10_ring_and_series_properties():
    t0 = time.perf_counter()
    problems = []

    rng = random.Random(99)
    for m in (3, 4, 5, 8):
        phi = euler_phi(m)
        for _ in range(40):
            a, b, c = (CycInt(m, tuple(rng.randint(-9, 9) for _ in range(phi)))
                       for _ in range(3))
            if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
                problems.append(f"ring axiom m={m}")
                break
    for m in range(2, 9):
        for n in range(-20, 21):
            total = CycInt.zero(m)
            for j in range(1, m):
                total = total + cyc_root_power(m, j * n)
            if cyc_as_integer(total) != chi(m, n):
                problems.append(f"chi cross-check {m},{n}")
            if sum(chi(m, n - r) for r in range(m)) != 0:
                problems.append(f"chi window {m},{n}")

    for _ in range(20):
        e, s = rng.randint(1, 6), rng.randint(1, 6)
        count = rng.choice([None, 0, 1, 2, 3, 5, 8])
        if pochhammer(PochSpec(1, e, s, count), 64) * \
                inv_pochhammer(e, s, count, 64) != Series.one(64):
            problems.append(f"poch*inv {e},{s},{count}")

    for a in range(9):
        for b in range(9):
            if qbinomial_poly(a, b) != qbinomial_poly(b, a):
                problems.append(f"qbin symmetry {a},{b}")
    for a in range(7):
        for b in range(7):
            if sum(qbinomial_poly(a, b)) != math.comb(a + b, a):
                problems.append(f"qbin q->1 {a},{b}")

    pent = pochhammer(PochSpec(1, 1, 1, None), 100)
    expected = [0] * 101
    for k in range(-20, 21):
        n = k * (3 * k - 1) // 2
        if 0 <= n <= 100:
            expected[n] = -1 if k & 1 else 1
    if list(pent.coeffs) != expected:
        problems.append("pentagonal pattern")

    _criterion(10, "ring axioms, character cross-checks, product inverses, "
                   "Gaussian binomial symmetry and specialization, "
                   "pentagonal signs",
               not problems,
               f"{time.perf_counter() - t0:.1f}s" if not problems
               else "; ".join(problems[:5]))
