"""The circuits and Orlik-Solomon algebras, pinned bit for bit.

Each digest is the SHA-256 of `matroid_circuits` and of the full-rank
`os_algebra` (top, monomials, basis, projections and ideal generators) on
the inputs below, as the package produced them when an affine build walked
the forms twice: once alone for the circuits, once with the hyperplane at
infinity e0 adjoined for the relations.  Reading both off one walk must
change none of them.

The inputs are the line library and the six planes of `jumploci.verify`,
the braid arrangements A3-A5, the Coxeter arrangement B3, the bundled
arrangement fixtures, and seeded draws of central and affine arrangements
with parallel families (circuits that do not meet) and concurrent triples.
"""

import hashlib
import random
from importlib import resources
from itertools import combinations

import pytest

from jumploci.arrangement import Arrangement, matroid_circuits, os_algebra
from jumploci.errors import PreconditionError
from jumploci.io import input_kind, load_json, parse_arrangement
from jumploci.verify import LINE_LIBRARY, SIXPLANES_FORMS


def digest(arrangements):
    values = []
    for arr in arrangements:
        algebra = os_algebra(arr)
        values.append((matroid_circuits(arr), algebra.top, algebra.monomials,
                       algebra.basis, algebra.proj,
                       [sorted(g.terms.items()) for g in algebra.ideal_gens]))
    return hashlib.sha256(repr(values).encode()).hexdigest()


def braid(n):
    return Arrangement(n, [[1 if k == i else (-1 if k == j else 0)
                            for k in range(n)]
                           for i, j in combinations(range(n), 2)])


def coxeter_b3():
    forms = [[1 if k == i else 0 for k in range(3)] for i in range(3)]
    forms += [[1 if k == i else (s if k == j else 0) for k in range(3)]
              for i, j in combinations(range(3), 2) for s in (-1, 1)]
    return Arrangement(3, forms)


def fixtures():
    folder = resources.files("jumploci").joinpath("fixtures")
    out = []
    for entry in sorted(folder.iterdir(), key=lambda e: e.name):
        obj = load_json(str(entry))
        if input_kind(obj) is Arrangement:
            out.append(parse_arrangement(obj, entry.name))
    return out


def drawn(seed):
    """An arrangement of 3-7 lines in C^2 or 3-6 planes in C^3, a quarter
    of them central: each form a translate of an earlier one, a combination
    of two earlier ones (through their common flat), or coefficients in
    -2..2."""
    rng = random.Random(f"jumploci-test:os-identity:{seed}")
    ambient = rng.choice((2, 2, 3))
    central = rng.random() < 0.25
    size = rng.randint(3, 7 if ambient == 2 else 6)
    forms = []
    while len(forms) < size:
        roll = rng.random()
        if forms and roll < 0.3:
            form = [rng.randint(-2, 2), *rng.choice(forms)[1:]]
        elif len(forms) >= 2 and roll < 0.6:
            a, b = rng.sample(forms, 2)
            s, t = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
            form = [s * x + t * y for x, y in zip(a, b)]
        else:
            form = [rng.randint(-2, 2) for _ in range(ambient + 1)]
        if central:
            form[0] = 0
        try:  # a zero linear part or a repeated hyperplane is no new form
            Arrangement(ambient, forms + [form])
        except PreconditionError:
            continue
        forms.append(form)
    return Arrangement(ambient, forms)


def test_library_circuits_and_algebras_are_pinned():
    arrangements = [Arrangement(2, forms) for _name, forms in LINE_LIBRARY]
    arrangements += [Arrangement(4, SIXPLANES_FORMS)]
    arrangements += [braid(n) for n in (4, 5, 6)] + [coxeter_b3()]
    arrangements += fixtures()
    assert len(arrangements) == 19
    assert digest(arrangements) == (
        "61cae90f60fff408edeb4fa4cfd333615933c8b4418beeffc1e559a8b6c1f094")


DRAWN_DIGESTS = {
    0: "1cc57a30e50cb7b3993e7e7e8fcef1782808af4fa3e3dad1c10fda7d9a71a2b6",
    1: "1d72c8bf7876ba496c3acb8ae151778a3dfdb0a2cc263c305880bf63c6f96137",
    2: "048971a15c914d1e8b514cd6503af9004d06819fe8d140c3307ea82193262bbc",
    3: "013f0de375c36e85ab5a201a427b6dc0370781640cb7d6848f5c899d34b82e37",
}


@pytest.mark.parametrize("block", sorted(DRAWN_DIGESTS))
def test_drawn_circuits_and_algebras_are_pinned(block):
    arrangements = [drawn(seed) for seed in range(100 * block,
                                                  100 * block + 100)]
    assert digest(arrangements) == DRAWN_DIGESTS[block]
