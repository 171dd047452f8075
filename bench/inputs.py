"""Seeded input generators.  The same (workload, seed) always gives the same
files and vectors; the program only ever sees what is written here.

Each generator returns a plan: a JSON-ready dict of arrangement files to
write and of query vectors, with every rational written as a string.  The
expected answers are not stored in the plan; the workloads recompute them
from `oracles` when they check an output.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import oracles


def rng_for(workload, seed):
    return random.Random(f"jumploci-bench:{workload}:{seed}")


def _s(v):
    return [str(Fraction(x)) for x in v]


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1 with small entries: a
    product of elementary shears and a signed permutation."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    m = [[signs[i] * x for x in m[perm[i]]] for i in range(n)]
    if oracles.det(m) not in (1, -1):
        raise AssertionError("shears and signed permutations are unimodular")
    return m


def _change_coordinates(forms, m):
    """Forms composed with the linear substitution x -> m x."""
    n = len(m)
    return [[sum(f[i] * m[i][j] for i in range(n)) for j in range(n)]
            for f in forms]


def braid_forms(n):
    forms = []
    for i, j in oracles.braid_edges(n):
        v = [0] * n
        v[i], v[j] = 1, -1
        forms.append(v)
    return forms


def b_forms(n):
    forms = []
    for i in range(n):
        v = [0] * n
        v[i] = 1
        forms.append(v)
    for i, j in combinations(range(n), 2):
        for s in (-1, 1):
            v = [0] * n
            v[i], v[j] = 1, s
            forms.append(v)
    return forms


def moment_forms(rng, d, rank):
    """d points on the moment curve t -> (1, t, ..., t^(rank-1)): any rank
    of them are independent (Vandermonde), so the arrangement is generic."""
    ts = sorted(rng.sample(range(-6, 7), d))
    return [[t ** k for k in range(rank)] for t in ts]


def generic_lines(rng, d, slopes=range(-9, 10), intercepts=range(-9, 10)):
    """d affine lines y = s x + b in general position, as forms [b, s, -1]
    (constant first), with distinct slopes and distinct intercepts drawn
    from the given ranges."""
    while True:
        forms = [[b, s, -1] for s, b in zip(rng.sample(slopes, d),
                                            rng.sample(intercepts, d))]
        if oracles.lines_in_general_position(forms):
            return forms


def arrangement_json(ambient, forms, central):
    return {"ambient": ambient, "central": central,
            "forms": [_s(f) for f in forms]}


# ------------------------------------------------------------------ os-build

# generic central (lines, rank) and generic affine line counts of the ladder
GENERIC_CENTRAL = ((7, 3), (8, 4), (10, 4))
GENERIC_LINES = (8, 12, 16)
# the many small builds whose median latency is os-build's op_p50_ms
SMALL_BUILDS, SMALL_LINES = 12, 7


def os_build_plan(seed):
    """The OS ladder: braid A3, A4 and B3 under a seeded unimodular change of
    coordinates, generic central arrangements on the moment curve in C^3 and
    C^4, and generic affine line arrangements; then the small generic line
    arrangements."""
    rng = rng_for("os-build", seed)
    rungs = []

    def coxeter(name, forms, n, poincare, circuits):
        forms = _change_coordinates(forms, _unimodular(rng, n))
        rungs.append({"name": name, "file": f"{name}.json",
                      "arrangement": arrangement_json(n, forms, True),
                      "poincare": poincare, "circuits": circuits})

    coxeter("braid-A3", braid_forms(4), 4, oracles.poincare_braid(4),
            oracles.braid_circuits(4))
    coxeter("braid-A4", braid_forms(5), 5, oracles.poincare_braid(5),
            oracles.braid_circuits(5))
    coxeter("coxeter-B3", b_forms(3), 3, oracles.poincare_b(3), None)
    for d, rank in GENERIC_CENTRAL:
        name = f"generic-central-{d}-{rank}"
        rungs.append({
            "name": name, "file": f"{name}.json",
            "arrangement": arrangement_json(
                rank, moment_forms(rng, d, rank), True),
            "poincare": oracles.poincare_generic_central(d, rank),
            "circuits": comb(d, rank + 1)})
    for d in GENERIC_LINES:
        name = f"generic-lines-{d}"
        rungs.append({
            "name": name, "file": f"{name}.json",
            "arrangement": arrangement_json(2, generic_lines(rng, d), False),
            "poincare": oracles.poincare_generic_affine(d, 2),
            "circuits": comb(d, 4)})
    for k in range(SMALL_BUILDS):
        name = f"small-lines-{k}"
        rungs.append({
            "name": name, "file": f"{name}.json", "kind": "small",
            "arrangement": arrangement_json(
                2, generic_lines(rng, SMALL_LINES), False),
            "poincare": oracles.poincare_generic_affine(SMALL_LINES, 2),
            "circuits": comb(SMALL_LINES, 4)})
    return {"rungs": rungs}


# -------------------------------------------------------------- aomoto-query

SIXPLANES = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [1, 1, 1, 0], [0, 1, -1, 1]]
# The two dependent quadruples {H1,H2,H3,H5} and {H2,H3,H4,H6} (0-based);
# the sum-zero slice of each coordinate span is a degree-2 jump component.
SIXPLANES_QUADRUPLES = [(0, 1, 2, 4), (1, 2, 3, 5)]


def _nonzero_ints(rng, n, lo=-5, hi=5):
    while True:
        v = [rng.randint(lo, hi) for _ in range(n)]
        if any(v):
            return v


def _sum_zero(rng, n, lo=-5, hi=5):
    while True:
        v = [rng.randint(lo, hi) for _ in range(n - 1)]
        v.append(-sum(v))
        if any(v):
            return v


def slice_basis(m, support):
    """Basis of the sum-zero slice of the coordinate span of `support`."""
    out = []
    for a, b in zip(support, support[1:]):
        v = [0] * m
        v[a], v[b] = 1, -1
        out.append(v)
    return out


# A4 queries: generic with sum != 0, one on each of the 15 R^1 components,
# and sum = 0 off every component; then generic six-plane queries
GENERIC_QUERIES, OFF_QUERIES, SIX_QUERIES = 15, 15, 5
SAMPLE_TRIALS = 2


def aomoto_query_plan(seed):
    """Braid A4 under a seeded change of coordinates and the six-plane
    arrangement in C^4, with the A4 and six-plane queries above.  Samples
    over F_p: A4 over all of A^1 and over one seeded R^1 component; the six
    planes over all of A^1 and over both jump components."""
    rng = rng_for("aomoto-query", seed)
    a4 = _change_coordinates(braid_forms(5), _unimodular(rng, 5))
    comps = oracles.braid_r1_components(5)
    queries = []
    for _ in range(GENERIC_QUERIES):
        while True:
            v = _nonzero_ints(rng, 10)
            if sum(v):
                break
        queries.append({"kind": "generic", "alpha": _s(v)})
    for label, _sup, _eqs, basis in comps:
        a, b = _nonzero_ints(rng, 2, -4, 4)
        v = [a * x + b * y for x, y in zip(*basis)]
        queries.append({"kind": "component", "component": label,
                        "alpha": _s(v)})
    for _ in range(OFF_QUERIES):
        while True:
            v = [Fraction(x) for x in _sum_zero(rng, 10)]
            if not oracles.components_containing(v, comps):
                break
        queries.append({"kind": "off", "alpha": _s(v)})
    rng.shuffle(queries)
    comp = rng.choice(comps)
    samples = [{"algebra": "A4", "component": label,
                "subspace": None if basis is None else [_s(r) for r in basis],
                "trials": SAMPLE_TRIALS, "seed": rng.randrange(1 << 30)}
               for label, basis in ((None, None), (comp[0], comp[3]))]
    six_queries = []
    for _ in range(SIX_QUERIES):
        while True:
            v = _nonzero_ints(rng, 6)
            if sum(v):
                break
        six_queries.append({"kind": "generic", "alpha": _s(v)})
    samples.append({"algebra": "sixplanes", "component": None,
                    "subspace": None, "trials": SAMPLE_TRIALS,
                    "seed": rng.randrange(1 << 30)})
    for q in SIXPLANES_QUADRUPLES:
        samples.append({"algebra": "sixplanes", "component": list(q),
                        "subspace": [_s(r) for r in slice_basis(6, q)],
                        "trials": SAMPLE_TRIALS,
                        "seed": rng.randrange(1 << 30)})
    return {
        "files": {"A4": arrangement_json(5, a4, True),
                  "sixplanes": arrangement_json(4, SIXPLANES, True)},
        "queries": queries, "six_queries": six_queries, "samples": samples}


# ------------------------------------------------------------------ elliptic

# scroll h^1 queries at n = H1_N per stratum: general points, rank-one
# points of the scroll, and near misses one unit off it
H1_N = 6
H1_STRATA = (("general", 24), ("rank1", 6), ("near-miss", 6))
LR_QUERIES = 6
E2_NS = (5, 6, 6)  # one E_2 page per entry, at that n


def elliptic_plan(seed):
    """Stratified scroll h^1 queries, log-resonance queries at pure classes
    (c, ic), and E_2 pages at pure classes c = e_i - e_j + e_k - e_l.
    General points are the majority, so the median h^1 latency falls inside
    their cluster and not between two clusters; E_2 time grows with the
    support of c, so the support is fixed at four."""
    rng = rng_for("elliptic", seed)
    n = H1_N
    h1 = []
    for stratum, count in H1_STRATA:
        for _ in range(count):
            if stratum == "general":
                x, y = _nonzero_ints(rng, n, -4, 4), _nonzero_ints(rng, n, -4, 4)
            else:
                u = _sum_zero(rng, n, -3, 3)
                a, b = _nonzero_ints(rng, 2, -3, 3)
                x, y = [a * c for c in u], [b * c for c in u]
                if stratum == "near-miss":
                    k = rng.randrange(n)
                    (x if rng.random() < 0.5 else y)[k] += 1
            h1.append({"stratum": stratum, "x": _s(x), "y": _s(y)})
    rng.shuffle(h1)
    lrq = [{"n": n, "c": _s(_nonzero_ints(rng, n, -4, 4))}
           for _ in range(LR_QUERIES)]
    e2 = []
    for m in E2_NS:
        c = [0] * m
        for k, sign in zip(rng.sample(range(m), 4), (1, -1, 1, -1)):
            c[k] = sign
        e2.append({"n": m, "c": _s(c)})
    return {"h1_n": n, "h1": h1, "lr": lrq, "e2": e2}


# -------------------------------------------------------------------- master

BIVARIATE_DS = (3, 4, 5, 6)
UNIVARIATE, PUNCTURES = 64, 5


def master_plan(seed):
    """Generic affine line arrangements with d in BIVARIATE_DS lines, slopes
    in -3..3 and intercepts in -4..4, weighted by a permutation of 1..d; and
    UNIVARIATE configurations of PUNCTURES distinct points in -6..6 with
    weights in 1..5.  Positive weights keep every critical point real and
    nondegenerate, and keep the coefficient sizes, and so the sympy work,
    alike from seed to seed."""
    rng = rng_for("master", seed)
    biv = []
    for d in BIVARIATE_DS:
        name = f"lines-{d}"
        biv.append({"name": name, "file": f"{name}.json", "d": d,
                    "arrangement": arrangement_json(
                        2, generic_lines(rng, d, range(-3, 4), range(-4, 5)),
                        False),
                    "weights": _s(rng.sample(range(1, d + 1), d))})
    uni = []
    for _ in range(UNIVARIATE):
        uni.append({"points": _s(rng.sample(range(-6, 7), PUNCTURES)),
                    "weights": _s(rng.randint(1, 5)
                                  for _ in range(PUNCTURES))})
    return {"bivariate": biv, "univariate": uni}


PLANS = {"os-build": os_build_plan, "aomoto-query": aomoto_query_plan,
         "elliptic": elliptic_plan, "master": master_plan}


def write_plan(workload, seed, directory):
    """Write the workload's arrangement files and plan.json into
    `directory`; return the plan path."""
    plan = PLANS[workload](seed)
    files = {}
    for r in plan.get("rungs", []) + plan.get("bivariate", []):
        files[r["file"]] = r.pop("arrangement")
    for name, arr in plan.pop("files", {}).items():
        files[f"{name}.json"] = arr
    for fname, arr in files.items():
        with open(os.path.join(directory, fname), "w") as fh:
            json.dump(arr, fh, indent=1)
    plan["workload"] = workload
    plan["seed"] = seed
    path = os.path.join(directory, "plan.json")
    with open(path, "w") as fh:
        json.dump(plan, fh, indent=1)
    return path
