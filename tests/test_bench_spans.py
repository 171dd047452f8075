"""The benchmark's tracer (bench/spans.py) still finds every attribute it
wraps.

The tracer rebinds module and class attributes of the package from outside,
so an attribute it names that a change removes or renames breaks the traced
benchmark run.  This test installs the tracer and restores it, so such a
change fails here too.
"""

import os
import sys
from importlib import import_module

from jumploci import cli, elliptic, exterior, scalars
from jumploci.exterior import GradedAlgebra

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _spans():
    sys.path.insert(0, BENCH)
    try:
        import spans
    finally:
        sys.path.remove(BENCH)
    return spans


def test_the_tracer_installs_and_restores():
    spans = _spans()
    # resolve cli's lazy names first: the tracer wraps aomoto, elliptic and
    # master before cli, so a name first read during install would keep the
    # module's wrapper
    for name in cli._TRACED:
        getattr(cli, name)
    originals = (scalars.rref, exterior.rref, elliptic.rref,
                 elliptic.solve_linear, elliptic.rank_and_kernel,
                 GradedAlgebra.__dict__["class_mult_matrix"])
    rec = spans.SpanRecorder()
    spans.install(rec)
    try:
        assert exterior.rref is not originals[1]
        elliptic.EllipticModel(2)
    finally:
        rec.restore()
    assert rec.calls["elliptic.model"] == 1
    assert rec.calls["exterior.build"] == 0  # the model straightens
    assert (scalars.rref, exterior.rref, elliptic.rref,
            elliptic.solve_linear, elliptic.rank_and_kernel,
            GradedAlgebra.__dict__["class_mult_matrix"]) == originals
    for name, module in cli._TRACED.items():
        assert getattr(cli, name) is getattr(
            import_module(f"jumploci.{module}"), name)
