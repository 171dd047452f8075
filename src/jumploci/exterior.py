"""Exterior algebras and their graded quotients.

Subsets of generators are bitmasks, and the mask of a monomial is its one
key: a relation is a dict {mask: coefficient} of one degree, and a
quotient algebra stores, per degree, a canonical quotient basis (the
lexicographically smallest monomials completing an echelon basis of the
ideal) and the projection of every monomial onto that basis, keyed by its
mask.  The relations are kept as {mask: int} of nonzero integer terms,
ranked as integer rows or straightened (`_straighten`); the projections of
a degree are integers over one denominator, and the field is only where
coordinates live.
Generators may carry Hodge types (p, q), in which case monomials are
bigraded.  Ideal generators must then be pure, so the ideal's reduced
echelon form splits into blocks by type and every monomial projects onto
basis monomials of its own type.  The Hodge filtration F^p is therefore a
coordinate subspace: the span of the basis monomials whose first index is
at least p.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm

from .errors import PreconditionError
# rref is imported for the benchmark's tracer, which wraps exterior.rref
from .scalars import (QI, QQ, Matrix, _integral, _read,  # noqa: F401
                      _rref_parts, rref)


def _degree_masks(ngens, d):
    """The masks of the degree-d monomials on `ngens` generators, in lex
    order.  Distinct bits add as they OR, and `sum` of a tuple runs in C."""
    return [sum(c) for c in combinations([1 << i for i in range(ngens)], d)]


def _indices(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _prefix_parity(t):
    """The mask P whose bit i is set when an odd number of bits of t lie
    below i (a negative int: the bits past the last of t are all set).  For
    s disjoint from t, e_S wedge e_T = (-1)^((s & P).bit_count()) e_{S+T}:
    each i in S passes the elements of T below it."""
    p = 0
    while t:
        b = t & -t
        p ^= -(b << 1)  # every bit above b
        t ^= b
    return p


def _merge_sign(s, t):
    """Sign of e_S wedge e_T for disjoint bitmasks: parity of interleavings.
    Where one t meets many s, compute `_prefix_parity(t)` once instead."""
    return -1 if (s & _prefix_parity(t)).bit_count() & 1 else 1


def _mono_type(mask, hodge_types):
    p = q = 0
    for i in _indices(mask):
        tp, tq = hodge_types[i]
        p += tp
        q += tq
    return p, q


class GradedAlgebra:
    """Quotient of an exterior algebra by a homogeneous ideal, per degree.

    Built by `build_quotient_algebra`, or in that form by `_straighten`
    (`arrangement.os_algebra`, `elliptic.EllipticModel`), with the ideal's
    generators in `ideal_gens` as relations {mask: int}.  Per degree d up
    to `top` it holds the quotient basis `basis[d]` (the masks of the
    non-pivot monomials of the ideal's reduced echelon form, in lex order)
    and the projections of all monomials as `proj[d] = (den, cols)`:
    cols[m] is the sparse column ((basis position, numerator), ...) of the
    monomial of mask m, integers over den, the lcm of their reduced
    denominators.  `field`
    holds the coordinates that queries take and report: QQ, QQ(i), or F_p
    for p prime to every den (`aomoto.reduce_algebra_mod`).

    Multiplication by the generators is kept as integer structure constants
    (`structure_constants`), built on first use: the one product of classes,
    read by the Aomoto differentials (`class_mult_parts`) and isotropy.

    `complete` records that the builder knows A^{top+1} = 0, so that the
    zero map out of A^top is the true differential; the Aomoto queries
    refuse what reads that map on an algebra that is not complete.
    """

    def __init__(self, ngens, field, top, ideal_gens, hodge_types, basis,
                 proj, complete):
        self.ngens = ngens
        self.field = field
        self.top = top
        self.complete = complete
        self.ideal_gens = tuple(ideal_gens)
        self.hodge_types = hodge_types
        self.basis = basis
        self.proj = proj
        self._structure = {}
        self._anticommutes = False
        self._boundary = None

    def dim(self, d):
        if d < 0 or d > self.top:
            return 0
        return len(self.basis[d])

    def dims(self):
        return tuple(self.dim(d) for d in range(self.top + 1))

    def euler(self):
        return sum((-1) ** d * len(b) for d, b in enumerate(self.basis))

    def structure_constants(self, d):
        """Multiplication by each generator out of degree d in integers:
        (den, cols) with cols[i][j] the sparse column ((row, entry), ...) of
        den * (e_i wedge .): A^d -> A^{d+1} at the j-th basis monomial.

        `den` and the entries are those of the stored projections into
        A^{d+1} (`proj[d + 1]`), signed.  Built on first use and kept.
        """
        if d not in self._structure:
            self._structure[d] = self._integer_structure(d)
        return self._structure[d]

    def _integer_structure(self, d):
        den, target = self.proj[d + 1]
        cols = []
        for i in range(self.ngens):
            bit = 1 << i
            gen = []
            for m in self.basis[d]:
                if m & bit:
                    gen.append(())
                    continue
                col = target[bit | m]
                if _merge_sign(bit, m) < 0:
                    col = tuple((j, -e) for j, e in col)
                gen.append(col)
            cols.append(gen)
        return den, cols

    def check_anticommutation(self):
        """Certify (alpha wedge .)^2 = 0 for every alpha in A^1, once per
        algebra: with E_i = (e_i wedge .), check E_i E_j + E_j E_i = 0 for
        all i <= j out of every degree, in integers, so mod every p too.
        (alpha wedge .)^2 is the sum of a_i a_j times these maps, so the
        Aomoto complex of every alpha is a complex.
        Raises AssertionError naming the pair and degree that fail."""
        if self._anticommutes:
            return
        pairs = list(combinations_with_replacement(range(self.ngens), 2))
        for d in range(self.top - 1):
            _, first = self.structure_constants(d)
            _, second = self.structure_constants(d + 1)
            for j, (i, k) in product(range(self.dim(d)), pairs):
                acc = {}
                for a, b in {(i, k), (k, i)}:
                    for r, c in first[a][j]:
                        for s, e in second[b][r]:
                            acc[s] = acc.get(s, 0) + c * e
                if any(acc.values()):
                    raise AssertionError(
                        f"e_{i} and e_{k} do not anticommute out of degree "
                        f"{d}: the Aomoto differentials would not square "
                        "to zero")
        self._anticommutes = True

    def boundary_split(self):
        """The boundary derivation D (degree -1, De_i = 1) checked once per
        algebra in integers, so mod every p too: (descends, kept).
        `descends`: Dg projects to 0 for every ideal generator g of degree
        <= top, so D is defined on A.  `kept`: if D descends and e_jA,
        j = ngens - 1, is a coordinate subspace, the positions of the basis
        monomials without j in each degree (a basis of A/e_jA); else None.
        """
        if self._boundary is None:
            descends = all(self._boundary_vanishes(g) for g in self.ideal_gens
                           if next(iter(g)).bit_count() <= self.top)
            kept = self._quotient_positions() if descends else None
            self._boundary = (descends, kept)
        return self._boundary

    def _boundary_vanishes(self, g):
        """Does Dg, for g an integer relation, project to 0?"""
        d = next(iter(g)).bit_count()
        _, cols = self.proj[d - 1]
        acc = {}
        for m, c in g.items():
            for k, i in enumerate(_indices(m)):
                for j, e in cols[m ^ 1 << i]:
                    acc[j] = acc.get(j, 0) + (-c * e if k & 1 else c * e)
        return not any(acc.values())

    def _quotient_positions(self):
        """`kept`, if e_j sends each basis monomial m without j to +-den at
        m + {j}, reaching every basis monomial with j; else None."""
        if not self.ngens:
            return None
        bit = 1 << (self.ngens - 1)
        for d in range(self.top):
            den, cols = self.structure_constants(d)
            position = {m: k for k, m in enumerate(self.basis[d + 1])}
            reached = set()
            for m, col in zip(self.basis[d], cols[-1]):
                if m & bit:
                    continue
                k = position.get(m | bit)
                if k is None or col not in (((k, den),), ((k, -den),)):
                    return None
                reached.add(k)
            if len(reached) != sum(1 for m in self.basis[d + 1] if m & bit):
                return None
        return [[k for k, m in enumerate(ms) if not m & bit]
                for ms in self.basis]

    def class_mult_parts(self, alpha, d, rows=None, cols=None):
        """The matrix of (alpha wedge .): A^d -> A^{d+1} as the sparse
        integer rows that `scalars._rref_parts` takes, for alpha given by
        its integer parts, one list each ([ints] over QQ, [re, im] over
        QQ(i), [residues] over F_p; see `scalars._integral`).  Row k maps
        the column of each nonzero entry to an integer, or, when alpha has
        two parts, to an (re, im) pair; the real part of a real class over
        QQ(i), given alone, gives integers.  Rows are target coordinates;
        the entries are scale * den_d times the matrix, with scale the
        factor that cleared alpha, which changes no rank, kernel or RREF.
        They are the same integers over every field; over F_p the
        elimination core reduces them mod p.

        `rows` and `cols`, lists of distinct target and source positions in
        any order (all of them when None), select a block: block row k is
        target `rows[k]`, block column j is source `cols[j]`.  Each row is
        written straight from the sparse structure constants, so no entry
        outside the block is formed and no dense row is filled."""
        src = range(self.dim(d)) if cols is None else cols
        if rows is None:
            where, nrows = range(self.dim(d + 1)), self.dim(d + 1)
        else:
            where, nrows = [None] * self.dim(d + 1), len(rows)
            for k, r in enumerate(rows):
                where[r] = k
        block = [{} for _ in range(nrows)]
        if d >= self.top:
            return block
        _, gens = self.structure_constants(d)
        if len(alpha) == 1:
            zero = 0
            for a, gen in zip(alpha[0], gens):
                if not a:
                    continue
                for j, s in enumerate(src):
                    for r, c in gen[s]:
                        k = where[r]
                        if k is not None:
                            row = block[k]
                            row[j] = row.get(j, 0) + a * c
        else:
            zero = (0, 0)
            for (ar, ai), gen in zip(zip(*alpha), gens):
                if not ar and not ai:
                    continue
                for j, s in enumerate(src):
                    for r, c in gen[s]:
                        k = where[r]
                        if k is not None:
                            row = block[k]
                            u, v = row.get(j, zero)
                            row[j] = (u + ar * c, v + ai * c)
        # a sum of products can cancel to zero
        return [{j: v for j, v in row.items() if v != zero}
                if zero in row.values() else row for row in block]

    def class_mult_matrix(self, alpha, d):
        """Matrix of (alpha wedge .): A^d -> A^{d+1}, alpha in A^1 coords.

        Returns a Matrix acting on coordinate columns (rows = target dim),
        with entries in the field: the integer rows of `class_mult_parts`
        read over scale * den_d by `scalars._read`, where scale * alpha are
        the integer parts of alpha (`scalars._integral`).
        """
        field = self.field
        integral, scale = _integral(field, alpha)
        den = self.structure_constants(d)[0] if d < self.top else 1
        n = self.dim(d)
        rows = []
        for row in self.class_mult_parts(integral, d):
            nums = [[0] * n for _ in integral]
            for j, v in row.items():
                if len(integral) == 2:
                    nums[0][j], nums[1][j] = v
                else:
                    nums[0][j] = v
            rows.append(_read(field, scale * den, nums))
        return Matrix(rows, field=field, ncols=n)

    @cached_property
    def hodge_index(self):
        """hodge_index[d][j]: the first Hodge index of the j-th degree-d
        basis monomial, the sum of its generators' first indices.  Computed
        when first read and kept."""
        if self.hodge_types is None:
            raise PreconditionError("algebra carries no Hodge types")
        return [[_mono_type(m, self.hodge_types)[0] for m in ms]
                for ms in self.basis]

    def hodge_positions(self, p, d):
        """Positions of the degree-d basis monomials whose first Hodge index
        is at least p (`hodge_index`; none outside the built degrees)."""
        index = self.hodge_index  # refuses an algebra without Hodge types
        if d < 0 or d > self.top:
            return []
        return [j for j, t in enumerate(index[d]) if t >= p]

    def hodge_subspace(self, p, d):
        """Echelon basis (coordinate rows) of F^p A^d = span of the classes
        of monomials with first-index sum >= p.

        The ideal generators are pure (`build_quotient_algebra` rejects
        mixed ones; the models' relations have type (1, 1)), so every
        monomial projects onto basis monomials of its own type and F^p A^d
        is spanned by the unit rows at `hodge_positions(p, d)`.
        """
        zero, one = self.field.zero(), self.field.one()
        n = self.dim(d)
        return [tuple(one if k == j else zero for k in range(n))
                for j in self.hodge_positions(p, d)]


def build_quotient_algebra(ngens, ideal_gens, top, field=QQ, hodge_types=None):
    """Quotient of the exterior algebra on `ngens` generators by the ideal
    generated by `ideal_gens`, with bases and projections through degree `top`.

    Each ideal generator is a relation {mask: coefficient}: the mask of a
    monomial (bit i for generator i) maps to its coefficient, an int, a
    Fraction or, over QQ(i), a GaussianRational with zero imaginary part.
    Zero terms are dropped and an empty relation is skipped.  Ideal
    generators must be homogeneous of degree >= 2; with Hodge types
    present they must also be pure (all monomials of equal total type).
    The quotient basis in each degree is canonical: monomials are ordered
    lexicographically and the non-pivot ones survive.

    Each generator is cleared to integers once (`scalars._integral`, which
    refuses a coefficient outside the field), kept as the relation
    {mask: int} of den * g, and the rows e_T wedge g are signed copies of
    it, written as sparse rows and ranked by `scalars._rref_parts`.
    `field` is QQ or QQ(i), only the field of the coordinates: the
    generators must be rational.
    Over F_p, reduce a built algebra with `aomoto.reduce_algebra_mod`.
    The package's models are straightened instead (`_straighten`).
    """
    if field is not QQ and field is not QI:
        raise PreconditionError(
            f"quotient algebras are built over QQ or QQ(i), not {field}; "
            "reduce a built one mod p with aomoto.reduce_algebra_mod")
    if ngens < 0:
        raise PreconditionError("generator count must be nonnegative")
    if top < 0:
        raise PreconditionError("top degree must be nonnegative")
    top = min(top, ngens)
    if hodge_types is not None:
        hodge_types = tuple(tuple(t) for t in hodge_types)
        if len(hodge_types) != ngens:
            raise PreconditionError("one Hodge type per generator required")
    gens = []
    for k, g in enumerate(ideal_gens):
        if not isinstance(g, dict):
            raise PreconditionError(
                f"ideal generator {k} is not a relation {{mask: coefficient}}")
        terms = {}
        for m, c in g.items():
            if not isinstance(m, int) or m < 0 or m >> ngens:
                raise PreconditionError(
                    f"subset mask {m!r} out of range for {ngens} generators")
            if c:
                terms[m] = c
        if not terms:
            continue
        degrees = {m.bit_count() for m in terms}
        if len(degrees) > 1:
            raise PreconditionError(f"ideal generator {k} is not homogeneous")
        degree, = degrees
        if degree < 2:
            raise PreconditionError(
                f"ideal generator {k} has degree {degree}; degree-one "
                "relations would change the generator space")
        parts, _ = _integral(field, list(terms.values()))
        if len(parts) == 2 and any(parts[1]):
            raise PreconditionError(
                f"ideal generator {k} has a non-rational coefficient; the "
                "relations of a quotient over QQ(i) are rational")
        if hodge_types is not None:
            types = {_mono_type(m, hodge_types) for m in terms}
            if len(types) > 1:
                raise PreconditionError(f"ideal generator {k} mixes "
                                        f"Hodge types {sorted(types)}")
        gens.append(dict(zip(terms, parts[0])))

    basis = []
    proj = []
    graded = _graded(gens, top)
    for d in range(top + 1):
        monos = _degree_masks(ngens, d)
        index = {m: k for k, m in enumerate(monos)}
        rows = [{index[m]: c for m, c in hits}
                for _, hits in _ideal_rows(graded, proj, d)]
        pivots, free, echelon = _rref_parts(rows, len(monos), QQ)
        basis.append([monos[k] for k in free])
        proj.append(_projections(monos, pivots, free, echelon))
    return GradedAlgebra(ngens, field, top, gens, hodge_types, basis, proj,
                         top == ngens)


def _projections(monos, pivots, free, echelon):
    """`proj[d]` = (den, cols) from the RREF of the degree-d ideal, in the
    form `scalars._rref_parts` returns, on the columns `monos`: the basis
    is the free columns, a free monomial projects to den / den at its
    place, and a pivot monomial to minus its RREF row; den is the lcm of
    the reduced denominators.  cols is keyed by mask, in lex order."""
    den = lcm(*(r // gcd(r, *nums) for r, (nums,) in echelon))
    cols = [None] * len(monos)
    for j, k in enumerate(free):
        cols[k] = ((j, den),)
    for k, (r, (nums,)) in zip(pivots, echelon):
        cols[k] = tuple((j, -a * den // r) for j, a in enumerate(nums) if a)
    return den, dict(zip(monos, cols))


def _graded(gens, top):
    """(k, deg g, g) for the k-th relation g {mask: int} of `gens`, for
    each g of degree <= top: the degrees that `_ideal_rows` reads."""
    out = []
    for k, g in enumerate(gens):
        e = next(iter(g)).bit_count()
        if e <= top:
            out.append((k, e, g))
    return out


def _ideal_rows(graded, proj, d):
    """The nonzero rows g wedge e_T of the ideal in degree d, signed, as
    (k, [(mask, c), ...]) for each (k, deg g, g) of `graded` (`_graded`)
    with deg g <= d and each T of degree d - deg g, a key of
    `proj[d - deg g]`."""
    for k, e, g in graded:
        if e > d:
            continue
        for t in proj[d - e][1]:
            prefix = _prefix_parity(t)
            row = [(m | t, -c if (m & prefix).bit_count() & 1 else c)
                   for m, c in g.items() if not m & t]
            if row:
                yield k, row


def _straighten(ngens, field, top, gens, rels, hodge_types, complete):
    """The `GradedAlgebra` over `field` of the quotient by the ideal of
    `gens` through degree `top`, as `build_quotient_algebra` gives it, with
    no elimination.  Each of `rels`, relations {mask: int} in the ideal, is
    solved for its lex-first monomial L, of coefficient c = +-1: e_L = -c sum
    c_s e_s over its later terms (only those of degree <= top are read).
    The first element with a given lead wins.
    A monomial m = L + R containing a lead (its witness: m, or the witness
    of a one-smaller subset) is e_m = sign(L, R) e_L e_R; each term e_s e_R
    is lex-later than m (0 if s meets R), since adding a disjoint set keeps
    lex order on sets of one size.  So walking a degree in reverse lex
    order, every term's normal form nf is known.  The basis is the
    monomials with no witness, proj[d] is (1, nf), keyed by mask.  Every
    m - nf(m) lies in the ideal with leading monomial m, and nf(g e_T) = 0
    is checked for every row that elimination stacks (`_ideal_rows`), so
    the rows m - nf(m) are the RREF of the ideal.  Raises AssertionError
    naming the generator and degree that fail."""
    rules = {}
    for g in rels:
        lead = next(iter(g))
        if lead.bit_count() > top:
            continue  # no monomial of its degree is built: no rule read
        for m in g:
            x = m ^ lead
            if m & x & -x:  # the lowest index where they differ is in m
                lead = m
        c = g[lead]
        if c not in (1, -1):
            raise PreconditionError(f"lead coefficient {c} is not +-1")
        rules.setdefault(lead, [(s, -c * v) for s, v in g.items()
                                if s != lead])
    basis, proj = [], []
    witness = {}
    graded = _graded(gens, top)
    for d in range(top + 1):
        monos = _degree_masks(ngens, d)
        below, witness = witness, {}
        for m in monos:
            if m in rules:
                witness[m] = m
                continue
            bits = m
            while bits:
                b = bits & -bits
                bits ^= b
                w = below.get(m ^ b)
                if w is not None:
                    witness[m] = w
                    break
        std = [m for m in monos if m not in witness]
        position = {m: j for j, m in enumerate(std)}
        nf = {}
        for m in reversed(monos):
            w = witness.get(m)
            if w is None:
                nf[m] = ((position[m], 1),)
                continue
            rest = m ^ w
            prefix = _prefix_parity(rest)
            parity = (w & prefix).bit_count()
            acc = {}
            for s, v in rules[w]:
                if not s & rest:
                    c = -v if (parity + (s & prefix).bit_count()) & 1 else v
                    for j, e in nf[s | rest]:
                        acc[j] = acc.get(j, 0) + c * e
            nf[m] = tuple(sorted((j, e) for j, e in acc.items() if e))
        for k, row in _ideal_rows(graded, proj, d):
            acc = {}
            for m, c in row:
                for j, e in nf[m]:
                    acc[j] = acc.get(j, 0) + c * e
            if any(acc.values()):
                raise AssertionError(
                    f"ideal generator {k} does not straighten to zero in "
                    f"degree {d}: the rewriting rules miss part of the ideal")
        basis.append(std)
        proj.append((1, nf))
    return GradedAlgebra(ngens, field, top, gens, hodge_types, basis, proj,
                         complete)
