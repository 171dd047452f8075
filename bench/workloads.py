"""The four workloads.  Each one loads its plan, sets up what its queries
need, and lists the operations of one round.  An operation is a call into
the program (timed) and a check of its output against `oracles` (not
timed); the check returns None or a description of the mismatch.

The program is always reached through module attributes looked up at call
time (`aomoto.resonance_membership(...)`), so the traced run sees every call
through the wrappers of `spans`.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
from fractions import Fraction

import oracles


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _fracs(v):
    return [Fraction(x) for x in v]


def _expect(cond, what):
    return None if cond else what


def _first(*results):
    return next((r for r in results if r), None)


class Workload:
    """`primary` names the operation kind whose median latency is the
    workload's op_p50_ms."""

    primary = None

    def __init__(self, plan, directory):
        self.plan = plan
        self.dir = directory
        from jumploci import aomoto, arrangement, cli, elliptic, io, master
        self.aomoto, self.arrangement, self.cli = aomoto, arrangement, cli
        self.elliptic, self.io, self.master = elliptic, io, master

    def path(self, name):
        return os.path.join(self.dir, name)

    def load(self, name):
        path = self.path(name)
        return self.io.parse_arrangement(self.io.load_json(path), path)

    def setup_steps(self):
        """The builds the queries need, as separate calls (the worker
        calibrates each one on its own)."""
        return []

    def ops(self):
        raise NotImplementedError


class OsBuild(Workload):
    """`jumploci os-algebra` in process on every rung of the ladder and on
    the small arrangements."""

    primary = "small"

    def ops(self):
        out = []
        for rung in self.plan["rungs"]:
            argv = ["os-algebra", "--arrangement", self.path(rung["file"])]
            out.append(Op(rung.get("kind", "ladder"),
                          lambda argv=argv: self._cli(argv),
                          lambda res, rung=rung: self._check(rung, res)))
        return out

    def _cli(self, argv):
        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    @staticmethod
    def _check(rung, res):
        code, text = res
        if code != 0:
            return f"{rung['name']}: exit code {code}"
        got = json.loads(text)["result"]
        want = rung["poincare"]
        return _first(
            _expect(list(got["dims"]) == want,
                    f"{rung['name']}: dims {got['dims']} != {want}"),
            _expect(got["euler"] == oracles.euler(want),
                    f"{rung['name']}: euler {got['euler']} != "
                    f"{oracles.euler(want)}"),
            _expect(got["rank"] == len(want) - 1,
                    f"{rung['name']}: rank {got['rank']}"),
            _expect(rung["circuits"] is None
                    or len(got["circuits"]) == rung["circuits"],
                    f"{rung['name']}: {len(got['circuits'])} circuits != "
                    f"{rung['circuits']}"))


class AomotoQuery(Workload):
    """Exact Aomoto queries on braid A4 and the six planes in C^4, and
    generic-dimension samples over F_p on the same algebras."""

    primary = "query"

    def setup_steps(self):
        self.algebras = {}
        self.components = {c[0]: c for c in oracles.braid_r1_components(5)}

        def build(name):
            self.algebras[name] = self.arrangement.os_algebra(
                self.load(f"{name}.json"))
        return [lambda name=name: build(name) for name in ("A4", "sixplanes")]

    def ops(self):
        out = []
        a4, six = self.algebras["A4"], self.algebras["sixplanes"]
        for q in self.plan["queries"]:
            alpha = _fracs(q["alpha"])
            out.append(Op(
                "query",
                lambda alpha=alpha: self.aomoto.resonance_membership(
                    a4, alpha, 1),
                lambda rep, q=q, alpha=alpha: self._check_a4(q, alpha, rep)))
        for q in self.plan["six_queries"]:
            alpha = _fracs(q["alpha"])
            out.append(Op(
                "six-query",
                lambda alpha=alpha: self.aomoto.resonance_membership(
                    six, alpha, 1),
                lambda rep: _expect(not any(rep.dims),
                                    f"six planes, sum != 0: h = {rep.dims}")))
        for s in self.plan["samples"]:
            algebra = self.algebras[s["algebra"]]
            rows = None if s["subspace"] is None else [
                _fracs(r) for r in s["subspace"]]
            kind = "sample" if s["algebra"] == "A4" else "six-sample"
            out.append(Op(
                kind,
                lambda algebra=algebra, rows=rows, s=s:
                    self.aomoto.generic_dims_sample(
                        algebra, subspace=rows, trials=s["trials"],
                        seed=s["seed"]),
                lambda rep, s=s: self._check_sample(s, rep)))
        return out

    def _check_a4(self, q, alpha, rep):
        dims = rep.dims
        where = oracles.components_containing(alpha,
                                              self.components.values())
        base = _first(
            _expect(oracles.euler(dims) == 0, f"A4 {alpha}: Euler of h {dims}"),
            _expect(dims[0] == 0, f"A4 {alpha}: h^0 = {dims[0]}"))
        if sum(alpha):
            # a central arrangement's Aomoto complex is acyclic off sum = 0
            return base or _expect(not any(dims),
                                   f"A4 {alpha}, sum != 0: h = {dims}")
        if where:
            # h^1 = dim L - 1 = 1 at every nonzero point of a component L
            return base or _expect(
                dims[1] == 1 and where == [q.get("component")],
                f"A4 {alpha} on {where}: h^1 = {dims[1]}")
        return base or _expect(dims[1] == 0,
                               f"A4 {alpha} off R^1: h^1 = {dims[1]}")

    @staticmethod
    def _check_sample(s, rep):
        dims = rep.dims
        label = f"{s['algebra']} sample over {s['component'] or 'A^1'}"
        if s["component"] is None:
            return _expect(not any(dims), f"{label}: h = {dims}")
        if s["algebra"] == "A4":
            return _expect(dims[0] == 0 and dims[1] == 1
                           and oracles.euler(dims) == 0,
                           f"{label}: h = {dims}")
        # a degree-2 jump component of the six planes
        return _expect(dims[0] == 0 and dims[2] >= 1
                       and oracles.euler(dims) == 0, f"{label}: h = {dims}")


class Elliptic(Workload):
    """Scroll h^1, log-resonance and E_2 queries on the elliptic
    configuration models over Q(i)."""

    primary = "h1"
    NS = (5, 6)

    def setup_steps(self):
        self.models = {}

        def build(n, top):
            self.models[(n, top)] = self.elliptic.elliptic_model(n, top)
        return [lambda n=n, top=top: build(n, top)
                for n in self.NS for top in (2, 3)]

    def ops(self):
        from jumploci.scalars import GaussianRational
        iu = GaussianRational(0, 1)
        out = []
        model = self.models[(self.plan["h1_n"], 2)]
        for q in self.plan["h1"]:
            x, y = _fracs(q["x"]), _fracs(q["y"])
            out.append(Op(
                "h1",
                lambda x=x, y=y: self.aomoto.resonance_membership(
                    model.algebra, model.class_coords(x, y), 1),
                lambda rep, x=x, y=y: self._check_h1(x, y, rep)))
        for q in self.plan["lr"]:
            m = self.models[(q["n"], 2)]
            c = _fracs(q["c"])
            out.append(Op(
                "lr",
                lambda m=m, c=c: self.aomoto.log_resonance_membership(
                    m.algebra, m.class_coords(c, [iu * v for v in c])),
                lambda rep, c=c: _expect(
                    not rep.member and rep.h1 == 0 and not rep.zero_class,
                    f"LR_1 at {c}: {rep}")))
        for q in self.plan["e2"]:
            m = self.models[(q["n"], 2)]
            c = _fracs(q["c"])
            out.append(Op(
                f"e2.n{q['n']}",
                lambda m=m, c=c: self.elliptic.e2_page(
                    m, c, [iu * v for v in c]),
                lambda rep, c=c: self._check_e2(c, rep)))
        return out

    @staticmethod
    def _check_h1(x, y, rep):
        member = oracles.on_scroll(x, y)
        h = rep.dims
        return _expect(h[0] == 0 and (h[1] >= 1) == member,
                       f"scroll {member} but h = {h} at x={x} y={y}")

    @staticmethod
    def _check_e2(c, rep):
        e, h = rep.entries, rep.h
        sums_ok = all(sum(e[(p, m - p)] for p in range(m + 1)) == h[m]
                      for m in range(3))
        return _expect(e[(1, 0)] == 0 and e[(0, 1)] == 1 and sums_ok
                       and h[0] == 0 and h[1] >= 1,
                       f"E_2 at {c}: entries {e}, h {h}")


class Master(Workload):
    """Bivariate critical counts by sheared resultants and univariate log
    divisors with local Koszul data (the sympy path)."""

    primary = "univariate"

    def setup_steps(self):
        def load():
            self.lines = {b["name"]: self.load(b["file"])
                          for b in self.plan["bivariate"]}
        return [load]

    def ops(self):
        out = []
        for b in self.plan["bivariate"]:
            arr, lam = self.lines[b["name"]], _fracs(b["weights"])
            out.append(Op(
                "bivariate",
                lambda arr=arr, lam=lam: self.master.critical_points_bivariate(
                    arr, lam, seed=0),
                lambda rep, d=b["d"]: self._check_bivariate(d, rep)))
        for u in self.plan["univariate"]:
            pts, lam = _fracs(u["points"]), _fracs(u["weights"])
            out.append(Op(
                "univariate",
                lambda pts=pts, lam=lam: (
                    self.master.critical_points_univariate(pts, lam),
                    self.master.log_zero_divisor_p1(pts, lam),
                    self.master.local_koszul_univariate(pts, lam)),
                lambda res, d=len(pts): self._check_univariate(d, res)))
        return out

    @staticmethod
    def _check_bivariate(d, rep):
        want = oracles.critical_count_generic_lines(d)
        mults = sum(z.multiplicity for z in rep.zeros)
        return _expect(rep.total == want == abs(rep.chi) == mults,
                       f"{d} lines: count {rep.total}, chi {rep.chi}, "
                       f"zeros {mults}, want {want}")

    @staticmethod
    def _check_univariate(d, res):
        crit, log, koszul = res
        # sum of weights != 0 and no weight 0: N has degree d - 1 and no
        # zero at a puncture, so every zero is interior
        return _expect(
            crit.total == d - 1 and log.total == d - 1
            and log.divisor_size == d + 1
            and all(k.h0 == 0 and k.h1 == k.zero.multiplicity for k in koszul)
            and sum(k.h1 for k in koszul) == d - 1,
            f"{d} punctures: critical {crit.total}, log {log.total}, "
            f"koszul {[(k.h0, k.h1) for k in koszul]}")


WORKLOADS = {"os-build": OsBuild, "aomoto-query": AomotoQuery,
             "elliptic": Elliptic, "master": Master}
