"""The acceptance battery: eight seeded, tolerance-zero check groups
covering the whole package, assembled for the `verify-paper` subcommand and
the acceptance test module.

Each check returns a CheckResult with exact values in `details`; `run_all`
executes all eight in order.  Randomness is seeded per check, so reports are
reproducible bit for bit.  The sample counts are constants of this module,
and each check reports the counts it ran in `details`; only the elliptic
suite of one n takes a count, `trials`, for `jumploci elliptic --trials`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .aomoto import (AomotoComplex, generic_dims_sample, isotropic_check,
                     log_resonance_membership, reduce_algebra_mod,
                     resonance_membership)
from .arrangement import (Arrangement, os_algebra, poincare_and_euler,
                          points_arrangement, restrict_line_arrangement)
from .elliptic import (elliptic_model, e2_page, scroll_membership,
                       tangent_pair_basis)
from .errors import DegeneracyError, PreconditionError
from .foxcalc import Character, Presentation, twisted_h1
from .scalars import DEFAULT_PRIME, QI, GaussianRational, rank
from .torus import (LaurentSystem, etc_membership, evaluate_terms,
                    tangent_cone_hypersurface)


@dataclass
class CheckResult:
    criterion: str
    label: str
    passed: bool
    details: dict = field(default_factory=dict)


def _rng(tag, seed):
    return random.Random(f"jumploci:{tag}:{seed}")


# ---------------------------------------------------------------------------
# 1. Orlik-Solomon correctness: deletion-restriction + two independent
#    combinatorial oracles on a library of small line arrangements.

LINE_LIBRARY = [
    ("boolean2", [[1, 0], [0, 1]]),
    ("concurrent3", [[1, 0], [0, 1], [1, 1]]),
    ("generic3", [[0, 1, 0], [0, 0, 1], [-1, 1, 1]]),
    ("parallel2", [[0, 1, 0], [-1, 1, 0]]),
    ("mixed3", [[0, 1, 0], [-1, 1, 0], [0, 0, 1]]),
    ("generic4", [[0, 1, 0], [0, 0, 1], [-1, 1, 1], [3, 2, -1]]),
    ("nearpencil4", [[0, 1, 0], [0, 0, 1], [0, 1, 1], [-1, 1, 1]]),
    ("pencil4", [[1, 0], [0, 1], [1, -1], [1, 1]]),
    ("triple4", [[0, 1, 0], [0, 0, 1], [-1, 1, 1], [0, 1, -1]]),
    ("hexlat6", [[0, 1, 0], [0, 0, 1], [0, 1, -1], [0, 1, 1],
                 [-1, 1, 0], [-1, 0, 1]]),
]


def line_library():
    return [(name, Arrangement(2, forms)) for name, forms in LINE_LIBRARY]


def nbc_counts(vectors):
    """Brute-force no-broken-circuit counts of a list of vectors: the number
    of independent index sets of each size containing no broken circuit
    (circuit minus its smallest element, in index order)."""
    d = len(vectors)
    r = rank(vectors) if vectors else 0
    circuits = []
    for size in range(1, r + 2):
        for s in combinations(range(d), size):
            if any(set(c) <= set(s) for c in circuits):
                continue
            if rank([vectors[i] for i in s]) < size:
                circuits.append(s)
    broken = [frozenset(c[1:]) for c in circuits]
    counts = []
    for k in range(r + 1):
        n = 0
        for s in combinations(range(d), k):
            if rank([vectors[i] for i in s]) < k:
                continue
            if any(b <= set(s) for b in broken):
                continue
            n += 1
        counts.append(n)
    return counts


def nbc_poincare(arr):
    """Poincare coefficients from NBC counts alone.  Affine arrangements are
    coned (homogenize, add the infinity hyperplane z = 0) and the cone's NBC
    polynomial is divided exactly by 1 + t."""
    if arr.central:
        return nbc_counts(arr.linear_parts())
    cone = [tuple(f) for f in arr.forms] + [(1,) + (0,) * arr.ambient]
    c = nbc_counts(cone)
    b = []
    carry = 0
    for k in range(len(c) - 1):
        b.append(c[k] - carry)
        carry = b[-1]
    if carry != c[-1]:
        raise AssertionError("cone NBC polynomial not divisible by 1 + t")
    return b


def point_count_poincare(arr):
    """Intersection-poset oracle for a line arrangement in C^2: b_2 is the
    sum of (multiplicity - 1) over the distinct intersection points, each
    pair of lines solved by Cramer's rule on its integer forms."""
    pts = {}
    for i, j in combinations(range(arr.size), 2):
        (a0, a1, a2), (b0, b1, b2) = arr.forms[i], arr.forms[j]
        if det := a1 * b2 - a2 * b1:  # else parallel: no common point
            p = (Fraction(a2 * b0 - a0 * b2, det),
                 Fraction(a0 * b1 - a1 * b0, det))
            pts.setdefault(p, set()).update((i, j))
    b2 = sum(len(lines) - 1 for lines in pts.values())
    return [1, arr.size, b2] if arr.size else [1]


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
            for k in range(n)]


def _poly_trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def check_os_library():
    failures = []
    tested = []
    for name, arr in line_library():
        coeffs, _chi = poincare_and_euler(arr)
        coeffs = _poly_trim(list(coeffs))
        for oracle, b in (("nbc", nbc_poincare(arr)),
                          ("points", point_count_poincare(arr))):
            if _poly_trim(b) != coeffs:
                failures.append((name, oracle, tuple(b), tuple(coeffs)))
        for j in range(arr.size):
            pd = _poly_trim(list(poincare_and_euler(arr.delete(j))[0]))
            pr = _poly_trim(list(poincare_and_euler(
                restrict_line_arrangement(arr, j))[0]))
            total = _poly_trim(_poly_add(pd, [0] + pr))
            if total != coeffs:
                failures.append((name, f"del-restr H_{j}",
                                 tuple(total), tuple(coeffs)))
        tested.append((name, tuple(coeffs)))
    return CheckResult(
        "1", "OS deletion-restriction + NBC/point-count oracles",
        not failures,
        {"arrangements": len(tested), "poincare": tested,
         "failures": failures})


# ---------------------------------------------------------------------------
# 2. The C^4 six-plane arrangement x y z w (x+y+z) (y-z+w) whose degree-2
#    resonance has two known 3-dimensional components meeting in a line.
#    Each component is the sum-zero slice of the span of one dependent
#    quadruple of hyperplanes: {H1,H2,H3,H5} and {H2,H3,H4,H6}.

SIXPLANES_FORMS = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                   [0, 0, 0, 1], [1, 1, 1, 0], [0, 1, -1, 1]]
COMPONENT_E1 = [[1, 0, 0, 0, -1, 0], [0, 1, 0, 0, -1, 0], [0, 0, 1, 0, -1, 0]]
COMPONENT_E2 = [[0, 1, 0, 0, 0, -1], [0, 0, 1, 0, 0, -1], [0, 0, 0, 1, 0, -1]]
_NORMALS_E1 = [[1, 1, 1, 0, 1, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]
_NORMALS_E2 = [[0, 1, 1, 1, 0, 1], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]]
OUTSIDE_SAMPLES = 100


def check_jump_components(seed=0):
    arr = Arrangement(4, SIXPLANES_FORMS)
    algebra = os_algebra(arr, top=3)
    for basis, normals in ((COMPONENT_E1, _NORMALS_E1),
                           (COMPONENT_E2, _NORMALS_E2)):
        for v in basis:
            for m in normals:
                if sum(Fraction(a) * b for a, b in zip(v, m)) != 0:
                    raise AssertionError("component basis/normals mismatch")
    inter_dim = 6 - rank([[Fraction(c) for c in row]
                          for row in _NORMALS_E1 + _NORMALS_E2])
    rep1 = generic_dims_sample(algebra, subspace=COMPONENT_E1, trials=25,
                               seed=seed)
    rep2 = generic_dims_sample(algebra, subspace=COMPONENT_E2, trials=25,
                               seed=seed + 1)
    repg = generic_dims_sample(algebra, trials=25, seed=seed + 2)
    h2_e1, h2_e2, h2_gen = rep1.dims[2], rep2.dims[2], repg.dims[2]

    reduced, _ = reduce_algebra_mod(algebra, DEFAULT_PRIME)
    rng = _rng("jump-outside", seed)
    mismatches = 0
    done = 0
    while done < OUTSIDE_SAMPLES:
        vec = [rng.randrange(DEFAULT_PRIME) for _ in range(6)]
        if not any(vec):
            continue
        in_e1 = all(sum(v * m for v, m in zip(vec, row)) % DEFAULT_PRIME == 0
                    for row in _NORMALS_E1)
        in_e2 = all(sum(v * m for v, m in zip(vec, row)) % DEFAULT_PRIME == 0
                    for row in _NORMALS_E2)
        if in_e1 or in_e2:
            continue
        dims = AomotoComplex(reduced, vec).cohomology_dims()
        if dims[2] != h2_gen:
            mismatches += 1
        done += 1
    passed = (inter_dim == 1 and h2_e1 > h2_gen and h2_e2 > h2_gen
              and mismatches == 0)
    return CheckResult(
        "2", "C^4 six-plane degree-2 jump components",
        passed,
        {"dim_intersection": inter_dim, "h2_on_E1": h2_e1, "h2_on_E2": h2_e2,
         "h2_generic": h2_gen, "outside_samples": done,
         "outside_mismatches": mismatches,
         "flagged_trials": (rep1.flagged, rep2.flagged, repg.flagged)})


# ---------------------------------------------------------------------------
# 3. Elliptic configuration-space suite for n in {3, 4, 5}.

ELLIPTIC_NS = (3, 4, 5)
# scroll, F^1, LR_1 and E_2 samples of one n
ELLIPTIC_SAMPLES = (200, 100, 100, 25)


def _sumzero_vector(rng, n):
    while True:
        v = [Fraction(rng.randint(-4, 4)) for _ in range(n - 1)]
        v.append(-sum(v))
        if any(v):
            return v


def _h1(model, x, y):
    coords = model.class_coords(x, y)
    return AomotoComplex(model.algebra, coords).cohomology_dims()[1]


def check_elliptic_suite(n, seed=0, trials=None):
    """Criterion 3 at one n: checks (a)-(e) below.  With `trials` None it
    draws ELLIPTIC_SAMPLES; with trials=t it draws t scroll, t F^1 and t
    LR_1 samples and max(1, t // 8) E_2 samples, and t must be at least 3,
    one scroll sample per stratum (rank1, general, near-miss)."""
    if n < 3:
        raise PreconditionError(
            f"n = {n}: the elliptic suite needs n >= 3, since check (e) "
            "needs a scroll point outside every tangent-pair subspace E_ij, "
            "and at n = 2 the scroll is E_01 itself")
    if trials is None:
        scroll_samples, f1_samples, lr_samples, e2_samples = ELLIPTIC_SAMPLES
    elif trials < 3:
        raise PreconditionError(
            f"trials must be at least 3, one scroll sample per stratum "
            f"(rank1, general, near-miss), got {trials}")
    else:
        scroll_samples = f1_samples = lr_samples = trials
        e2_samples = max(1, trials // 8)
    model = elliptic_model(n, top=2)
    rng = _rng(f"elliptic-{n}", seed)
    details = {"n": n}

    # (a) scroll membership == (Aomoto h^1 >= 1), on stratified samples
    disagreements = []
    strata = []
    third = scroll_samples // 3
    for s in range(scroll_samples):
        if s < third:
            u = _sumzero_vector(rng, n)
            while True:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                if a or b:
                    break
            x = [a * c for c in u]
            y = [b * c for c in u]
            strata.append("rank1")
        elif s < 2 * third:
            x = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            y = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            strata.append("general")
        else:
            u = _sumzero_vector(rng, n)
            x = [rng.randint(-3, 3) * c for c in u]
            y = [rng.randint(-3, 3) * c for c in u]
            k = rng.randrange(n)
            if rng.random() < 0.5:
                x[k] += 1
            else:
                y[k] += 1
            strata.append("near-miss")
        member = scroll_membership(n, x, y).member
        resonant = _h1(model, x, y) >= 1
        if member != resonant:
            disagreements.append((x, y, member, resonant))
    zero_ok = (scroll_membership(n, [0] * n, [0] * n).member
               and _h1(model, [0] * n, [0] * n) >= 1)
    details["scroll_samples"] = scroll_samples + 1
    details["scroll_disagreements"] = len(disagreements)
    if disagreements:
        details["scroll_witness"] = disagreements[0]

    # (b) the sum-zero slice of F^1 lies in the degree-1 resonance locus
    f1_failures = 0
    for _ in range(f1_samples):
        c = _sumzero_vector(rng, n)
        ic = [GaussianRational(0, v) for v in c]
        if _h1(model, c, ic) < 1:
            f1_failures += 1
    details["f1_samples"] = f1_samples
    details["f1_failures"] = f1_failures

    # (c) logarithmic resonance vanishes on all of F^1: kernel exactly C.alpha
    lr_failures = 0
    for _ in range(lr_samples):
        while True:
            c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            if any(c):
                break
        ic = [GaussianRational(0, v) for v in c]
        rep = log_resonance_membership(model.algebra,
                                       model.class_coords(c, ic))
        if rep.member or rep.h1 != 0:
            lr_failures += 1
    details["lr_samples"] = lr_samples
    details["lr_failures"] = lr_failures

    # (d) E2 terms on the sum-zero slice of F^1
    e2_failures = 0
    e2_values = set()
    for _ in range(e2_samples):
        c = _sumzero_vector(rng, n)
        ic = [GaussianRational(0, v) for v in c]
        rep = e2_page(model, c, ic)
        e2_values.add((rep.entries[(1, 0)], rep.entries[(0, 1)]))
        if (rep.entries[(1, 0)] != 0 or rep.entries[(0, 1)] != 1
                or not rep.consistent):
            e2_failures += 1
    details["e2_samples"] = e2_samples
    details["e2_failures"] = e2_failures
    details["e2_values"] = sorted(e2_values)

    # (e) tangent-pair subspaces: isotropic, pairwise zero intersection,
    #     inside the scroll, and one scroll point outside all of them
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bases = {}
    pair_ok = True
    for (i, j) in pairs:
        basis = tangent_pair_basis(n, i, j)
        coords = [model.class_coords(x, y) for x, y in basis]
        bases[(i, j)] = coords
        if not isotropic_check(model.algebra, coords).isotropic:
            pair_ok = False
        for _ in range(2):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if not (a or b):
                a = 1
            x = [a * v for v in basis[0][0]]
            y = [b * v for v in basis[1][1]]
            if not scroll_membership(n, x, y).member:
                pair_ok = False
    for p, q in combinations(pairs, 2):
        stacked = [list(r) for r in bases[p]] + [list(r) for r in bases[q]]
        if rank(stacked, QI) != 4:
            pair_ok = False
    witness_x = [Fraction(v) for v in [1, 1, -2] + [0] * (n - 3)]
    witness_y = [2 * v for v in witness_x]
    outside_ok = scroll_membership(n, witness_x, witness_y).member
    wcoords = list(model.class_coords(witness_x, witness_y))
    for p in pairs:
        stacked = [list(r) for r in bases[p]] + [wcoords]
        if rank(stacked, QI) != 3:
            outside_ok = False
    details["pairs"] = len(pairs)
    details["pair_subspaces_ok"] = pair_ok
    details["witness_outside_all_pairs"] = outside_ok

    passed = (not disagreements and zero_ok and f1_failures == 0
              and lr_failures == 0 and e2_failures == 0 and pair_ok
              and outside_ok)
    return CheckResult("3", f"elliptic configuration suite, n = {n}",
                       passed, details)


def check_elliptic_all(seed=0):
    subs = [check_elliptic_suite(n, seed=seed) for n in ELLIPTIC_NS]
    return CheckResult(
        "3", "elliptic configuration suite, n in {3, 4, 5}",
        all(s.passed for s in subs),
        {str(s.details["n"]): s.details for s in subs})


# ---------------------------------------------------------------------------
# 4. Hopf-index counts: univariate random configurations, bivariate line
#    arrangements with certified resultant counts, each cross-checked against
#    Corollary 1.1: a finite zero set (codimension 2) forces Aomoto
#    cohomology (0, 0, |chi|).

def _random_univariate_config(rng):
    d = rng.randint(2, 8)
    points = rng.sample(range(-6, 7), d)
    while True:
        lam = [rng.choice([k for k in range(-9, 10) if k]) for _ in range(d)]
        if sum(lam) != 0:
            return points, lam


BIVARIATE_CASES = [
    ("generic3", [[0, 1, 0], [0, 0, 1], [-1, 1, 1]]),
    ("boolean2", [[1, 0], [0, 1]]),
    ("triple4", [[0, 1, 0], [0, 0, 1], [-1, 1, 1], [0, 1, -1]]),
    # braid A3 deconed: x, y, x - y, x - 1, y - 1
    ("deconed-A3", [[0, 1, 0], [0, 0, 1], [0, 1, -1], [-1, 1, 0],
                    [-1, 0, 1]]),
]
UNIVARIATE_RUNS = 20


def check_hopf_counts(seed=0):
    from .master import (critical_points_bivariate,
                         critical_points_univariate, log_zero_divisor_p1)
    rng = _rng("hopf", seed)
    uni_failures = []
    for _ in range(UNIVARIATE_RUNS):
        points, lam = _random_univariate_config(rng)
        d = len(points)
        log_rep = log_zero_divisor_p1(points, lam)
        crit = critical_points_univariate(points, lam)
        ok = (log_rep.total == d - 1
              and log_rep.divisor_size == d + 1
              and log_rep.total == log_rep.divisor_size - 2
              and crit.total == abs(crit.chi) == d - 1
              and crit.chi_matches)
        if not ok:
            uni_failures.append((points, lam, log_rep.total, crit.total))

    biv_results = []
    biv_ok = True
    for name, forms in BIVARIATE_CASES:
        arr = Arrangement(2, forms)
        _coeffs, chi = poincare_and_euler(arr)
        counted = aomoto = None
        degeneracies = 0
        for _attempt in range(6):
            lam = [rng.choice([k for k in range(-7, 8) if k])
                   for _ in range(arr.size)]
            try:
                rep = critical_points_bivariate(arr, lam)
            except DegeneracyError:
                degeneracies += 1
                continue
            counted = rep.total
            aomoto = AomotoComplex(os_algebra(arr), lam).cohomology_dims()
            if (counted != abs(chi) or not rep.chi_matches
                    or aomoto != (0, 0, abs(chi))):
                biv_ok = False
            break
        if counted is None:
            biv_ok = False
        biv_results.append((name, abs(chi), counted, degeneracies, aomoto))

    passed = not uni_failures and biv_ok
    return CheckResult(
        "4", "Hopf index: P^1 divisor degrees and bivariate counts",
        passed,
        {"univariate_runs": UNIVARIATE_RUNS,
         "univariate_failures": uni_failures, "bivariate": biv_results})


# ---------------------------------------------------------------------------
# 5. Local Koszul cohomology at every univariate zero.

KOSZUL_CRAFTED = [
    # interior double zero at x = 4
    ([0, 1, 2], [24, -27, 6]),
    # boundary double zero at the puncture x = 1
    ([0, 1, 2], [Fraction(3, 2), 0, Fraction(3, 2)]),
    # zero of order 1 at infinity (sum of weights vanishes)
    ([0, 1], [1, -1]),
]
KOSZUL_RANDOM_RUNS = 20


def check_local_koszul(seed=0):
    from .master import local_koszul_univariate
    rng = _rng("koszul", seed)
    configs = [_random_univariate_config(rng)
               for _ in range(KOSZUL_RANDOM_RUNS)]
    configs += KOSZUL_CRAFTED
    failures = []
    zeros_seen = 0
    mult_seen = set()
    for points, lam in configs:
        for lk in local_koszul_univariate(points, lam):
            zeros_seen += 1
            mult_seen.add(lk.zero.multiplicity)
            if lk.h0 != 0 or lk.h1 != lk.zero.multiplicity:
                failures.append((points, lam, lk))
    return CheckResult(
        "5", "local Koszul: H^0 = 0, dim H^1 = multiplicity at every zero",
        not failures,
        {"configs": len(configs), "zeros_checked": zeros_seen,
         "multiplicities_seen": sorted(mult_seen), "failures": failures})


# ---------------------------------------------------------------------------
# 6. Exponential tangent cone suite.

SUBTORUS_CASES = [
    # (system, normals of the Lie algebra, kernel basis)
    (LaurentSystem(2, [{(1, 1): 1, (0, 0): -1}]),
     [(1, 1)], [(1, -1)]),
    (LaurentSystem(2, [{(2, 3): 1, (0, 0): -1}]),
     [(2, 3)], [(3, -2)]),
    (LaurentSystem(3, [{(1, -1, 0): 1, (0, 0, 0): -1},
                       {(0, 1, -1): 1, (0, 0, 0): -1}]),
     [(1, -1, 0), (0, 1, -1)], [(1, 1, 1)]),
]

TRANSLATED_SYSTEM = LaurentSystem(2, [{(1, 0): 1, (0, 1): 1, (0, 0): -2}])

HYPERSURFACE_CASES = [
    # (poly, rank, list of accepted-direction lines to sample from)
    ({(1, 1): 1, (0, 0): -1}, 2, [(1, -1)]),
    ({(2, 3): 1, (0, 0): -1}, 2, [(3, -2)]),
    # (z1 z2 - 1)(z1 - z2): the union of two subtori through 1
    ({(2, 1): 1, (1, 2): -1, (1, 0): -1, (0, 1): 1}, 2, [(1, -1), (1, 1)]),
]
ETC_SAMPLES = 50


def _rand_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3]))


def check_etc_suite(seed=0):
    rng = _rng("etc", seed)
    failures = []
    for system, normals, kernel in SUBTORUS_CASES:
        r = system.rank
        for s in range(ETC_SAMPLES):
            if s < ETC_SAMPLES // 2:
                while True:
                    coeffs = [_rand_rational(rng) for _ in kernel]
                    alpha = [sum(c * Fraction(k[i]) for c, k in
                                 zip(coeffs, kernel)) for i in range(r)]
                    if any(alpha):
                        break
            else:
                alpha = [_rand_rational(rng) for _ in range(r)]
            expected = all(
                sum(Fraction(m) * a for m, a in zip(row, alpha)) == 0
                for row in normals)
            got = etc_membership(system, alpha).member
            if got != expected:
                failures.append(("subtorus", system.rank, alpha, got, expected))

    translated_rejections = 0
    for _ in range(ETC_SAMPLES):
        while True:
            alpha = [_rand_rational(rng) for _ in range(2)]
            if any(alpha):
                break
        if etc_membership(TRANSLATED_SYSTEM, alpha).member:
            failures.append(("translated", alpha))
        else:
            translated_rejections += 1

    tc_checked = 0
    for poly, r, lines in HYPERSURFACE_CASES:
        system = LaurentSystem(r, [poly])
        cone = tangent_cone_hypersurface(poly, rank=r)
        for line in lines:
            for _ in range(8):
                while True:
                    t = _rand_rational(rng)
                    if t:
                        break
                alpha = [t * Fraction(k) for k in line]
                if not etc_membership(system, alpha).member:
                    failures.append(("hypersurface-accept", poly, alpha))
                    continue
                tc_checked += 1
                if evaluate_terms(cone.terms, alpha) != 0:
                    failures.append(("etc-vs-tc", poly, alpha))
    return CheckResult(
        "6", "exponential tangent cone: subtori, translated case, ETC in TC",
        not failures,
        {"subtorus_systems": len(SUBTORUS_CASES), "samples_each": ETC_SAMPLES,
         "translated_rejections": translated_rejections,
         "tc_inclusions_checked": tc_checked, "failures": failures})


# ---------------------------------------------------------------------------
# 7. Cross-oracle: Fox h^1 of the free group vs Aomoto h^1 of the punctured
#    line, both d - 1.

CROSS_DS = (2, 3, 4, 5, 6)
CROSS_SAMPLES = 20  # characters and alphas at each d


def check_cross_oracle(seed=0):
    rng = _rng("cross", seed)
    failures = []
    for d in CROSS_DS:
        pres = Presentation(d, [])
        for _ in range(CROSS_SAMPLES):
            while True:
                values = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                          for _ in range(d)]
                if any(v != 1 for v in values):
                    break
            h1 = twisted_h1(pres, Character(pres, values))
            if h1 != d - 1:
                failures.append(("fox", d, values, h1))
        algebra = os_algebra(points_arrangement(list(range(d))))
        for _ in range(CROSS_SAMPLES):
            while True:
                alpha = [Fraction(rng.randint(-9, 9)) for _ in range(d)]
                if any(alpha):
                    break
            dims = AomotoComplex(algebra, alpha).cohomology_dims()
            if dims[1] != d - 1:
                failures.append(("aomoto", d, alpha, dims))
    return CheckResult(
        "7", "Fox h^1 = Aomoto h^1 = d - 1 on punctured lines",
        not failures,
        {"ds": list(CROSS_DS), "characters_each": CROSS_SAMPLES,
         "alphas_each": CROSS_SAMPLES, "failures": failures})


# ---------------------------------------------------------------------------
# 8. Structural invariants across the whole fixture set.

STRUCTURAL_TRIALS = 100

def _structural_fixtures():
    fixtures = []
    for name in ("concurrent3", "generic3", "nearpencil4", "triple4",
                 "hexlat6"):
        forms = dict(LINE_LIBRARY)[name]
        fixtures.append((name, os_algebra(Arrangement(2, forms)), None))
    fixtures.append(
        ("sixplanes4", os_algebra(Arrangement(4, SIXPLANES_FORMS), top=3),
         None))
    for n in (2, 3):
        fixtures.append((f"elliptic{n}", None, elliptic_model(n, top=2)))
    return fixtures


def _composes_to_zero(outer, inner):
    """Is outer inner = 0, for differentials given as the sparse integer
    rows of `AomotoComplex.parts` (ints, or (re, im) pairs over QQ(i)),
    each a nonzero multiple of its map?"""
    for row in outer:
        acc = {}
        for k, a in row.items():
            for j, b in inner[k].items():
                if type(a) is int:
                    acc[j] = acc.get(j, 0) + a * b
                else:
                    re, im = acc.get(j, (0, 0))
                    acc[j] = (re + a[0] * b[0] - a[1] * b[1],
                              im + a[0] * b[1] + a[1] * b[0])
        if any(x != 0 and x != (0, 0) for x in acc.values()):
            return False
    return True


def check_structural_invariants(seed=0):
    rng = _rng("structural", seed)
    fixtures = _structural_fixtures()
    failures = []
    lr_members = 0
    for t in range(STRUCTURAL_TRIALS):
        name, algebra, model = fixtures[t % len(fixtures)]
        if model is not None:
            while True:
                c = [Fraction(rng.randint(-4, 4)) for _ in range(model.n)]
                if any(c):
                    break
            ic = [GaussianRational(0, v) for v in c]
            algebra_t = model.algebra
            alpha = list(model.class_coords(c, ic))
        else:
            algebra_t = algebra
            while True:
                alpha = [Fraction(rng.randint(-4, 4))
                         for _ in range(algebra.dim(1))]
                if any(alpha):
                    break
        cx = AomotoComplex(algebra_t, alpha)
        for d in range(algebra_t.top - 1):
            if not _composes_to_zero(cx.parts[d + 1], cx.parts[d]):
                failures.append((name, t, "composition"))
        if not cx.euler_matches():
            failures.append((name, t, "euler"))
        scale = rng.choice([Fraction(2), Fraction(-1), Fraction(3, 5),
                            Fraction(-7), Fraction(1, 4)])
        scaled = [algebra_t.field.coerce(scale) * algebra_t.field.coerce(a)
                  for a in alpha]
        if AomotoComplex(algebra_t, scaled).cohomology_dims() \
                != cx.cohomology_dims():
            failures.append((name, t, "scaling"))
        lr = log_resonance_membership(algebra_t, alpha)
        if lr.member:
            lr_members += 1
            res = resonance_membership(algebra_t, alpha, 1)
            if not res.member:
                failures.append((name, t, "LR not inside R1"))
    return CheckResult(
        "8", "composition-zero, Euler, scaling, LR1 in R1 cap F1",
        not failures,
        {"trials": STRUCTURAL_TRIALS, "fixtures": [f[0] for f in fixtures],
         "lr_members_seen": lr_members, "failures": failures})


# ---------------------------------------------------------------------------

def run_all(seed=0):
    return [
        check_os_library(),
        check_jump_components(seed),
        check_elliptic_all(seed),
        check_hopf_counts(seed),
        check_local_koszul(seed),
        check_etc_suite(seed),
        check_cross_oracle(seed),
        check_structural_invariants(seed),
    ]
