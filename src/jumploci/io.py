"""JSON input/output: exact scalars as strings, typed parsing with
field-path error locations, and canonical serialization that round-trips.

Formats:
  rational        "3/4", "-2", or a JSON integer
  arrangement     {"ambient": n, "central": bool, "forms": [[rational]]}
                  central forms have length n, affine n+1 (constant first);
                  without "central" the forms decide
  laurent system  {"rank": r, "polys": [[{"monomial": [int], "coeff": rational}]]}
  presentation    {"generators": g, "relators": [[signed int]]}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from io import BytesIO, TextIOWrapper

from .arrangement import Arrangement
from .errors import ParseError


# Fraction builds 10**e exactly for a decimal exponent e, so the exponent is
# bounded by Python's default int-string digit limit.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


def rational_from_text(text, where):
    """Fraction(text), as a ParseError at `where` when the text is not a
    rational or its decimal exponent exceeds _MAX_EXPONENT in magnitude."""
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or \
                int(digits or "0") > _MAX_EXPONENT:
            raise ParseError(
                f"bad rational {text!r}: decimal exponent exceeds "
                f"{_MAX_EXPONENT} in magnitude", where)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}", where) from None


def parse_rational(node, where):
    if isinstance(node, bool):
        raise ParseError(f"expected a rational, got {node!r}", where)
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, str):
        return rational_from_text(node, where)
    raise ParseError(f"expected a rational, got {node!r}", where)


def _expect(obj, key, types, where):
    if key not in obj:
        raise ParseError(f"missing key {key!r}", where)
    v = obj[key]
    # JSON true/false must not pass for an integer (bool subclasses int)
    if isinstance(v, bool) or not isinstance(v, types):
        raise ParseError(f"key {key!r} has wrong type {type(v).__name__}",
                         where)
    return v


def parse_arrangement(obj, where="arrangement"):
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    ambient = _expect(obj, "ambient", int, where)
    if ambient < 1:
        raise ParseError(f"ambient dimension must be at least 1, got {ambient}",
                         f"{where}.ambient")
    central = obj.get("central")
    if "central" in obj and not isinstance(central, bool):
        raise ParseError(
            f"expected true or false, got {type(central).__name__}",
            f"{where}.central")
    forms_node = _expect(obj, "forms", list, where)
    if central is None:
        widths = {ambient, ambient + 1}
    else:
        widths = {ambient} if central else {ambient + 1}
    forms = []
    for i, row in enumerate(forms_node):
        if not isinstance(row, list) or len(row) not in widths:
            want = " or ".join(str(w) for w in sorted(widths))
            raise ParseError(
                f"form must be a list of {want} rationals", f"{where}.forms[{i}]")
        forms.append([parse_rational(c, f"{where}.forms[{i}][{k}]")
                      for k, c in enumerate(row)])
    return Arrangement(ambient, forms, central=central)


def parse_laurent_system(obj, where="system"):
    if isinstance(obj, list):
        polys_node, rank = obj, None
    elif isinstance(obj, dict):
        polys_node = _expect(obj, "polys", list, where)
        rank = obj.get("rank")
        if rank is not None:
            rank = _expect(obj, "rank", int, where)
    else:
        raise ParseError("expected an object or a list of polynomials", where)
    polys = []
    for i, poly_node in enumerate(polys_node):
        if not isinstance(poly_node, list):
            raise ParseError("polynomial must be a list of terms",
                             f"{where}.polys[{i}]")
        terms = []
        for j, term in enumerate(poly_node):
            loc = f"{where}.polys[{i}][{j}]"
            if not isinstance(term, dict):
                raise ParseError("term must be an object", loc)
            mono = _expect(term, "monomial", list, loc)
            if not all(isinstance(e, int) and not isinstance(e, bool)
                       for e in mono):
                raise ParseError("monomial must be a list of integers",
                                 f"{loc}.monomial")
            coeff = parse_rational(_expect(term, "coeff", (int, str), loc),
                                   f"{loc}.coeff")
            terms.append((tuple(mono), coeff))
            if rank is None:
                rank = len(mono)
        polys.append(terms)
    if rank is None:
        raise ParseError("cannot infer the torus rank from an empty system",
                         where)
    from .torus import LaurentSystem
    return LaurentSystem(rank, polys)


def parse_presentation(obj, where="presentation"):
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    g = _expect(obj, "generators", int, where)
    relators = obj.get("relators", [])
    if not isinstance(relators, list):
        raise ParseError("relators must be a list of words", where)
    for i, word in enumerate(relators):
        if not isinstance(word, list) or not all(
                isinstance(s, int) and not isinstance(s, bool) for s in word):
            raise ParseError("word must be a list of signed integers",
                             f"{where}.relators[{i}]")
    from .foxcalc import Presentation
    return Presentation(g, relators)


def read_bytes(path):
    """The bytes of the file at `path`; a path that cannot be read (a
    directory, a missing file, no permission) is a ParseError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ParseError("file not found", str(path)) from None
    except OSError as exc:
        raise ParseError(f"cannot read the file: {exc.strerror or exc}",
                         str(path)) from None


def load_json(path, data=None):
    """The JSON value in the file at `path`, decoded as `open(path)` decodes
    it (the locale's encoding, universal newlines).  `data` is the file's
    bytes, when the caller has read them already."""
    if data is None:
        data = read_bytes(path)
    try:
        return json.loads(TextIOWrapper(BytesIO(data)).read())
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON: {exc.msg}",
            f"{path}:{exc.lineno}:{exc.colno}") from None
    except ValueError as exc:
        # bytes the encoding cannot decode, or an integer literal longer
        # than Python's int-string digit limit
        raise ParseError(f"malformed JSON: {exc}", str(path)) from None


def _parser_of(obj):
    """The parser of a loaded JSON input, chosen by its shape alone, or
    None for no known shape."""
    if isinstance(obj, dict):
        if "forms" in obj:
            return parse_arrangement
        if "polys" in obj:
            return parse_laurent_system
        if "generators" in obj:
            return parse_presentation
    if isinstance(obj, list):
        return parse_laurent_system
    return None


def input_kind(obj):
    """The type a loaded JSON input parses to, judged by its shape alone
    (Arrangement, LaurentSystem or Presentation), or None for no known
    shape.  The module of a torus system or a presentation is loaded only
    when the input has its shape."""
    parse = _parser_of(obj)
    if parse is parse_laurent_system:
        from .torus import LaurentSystem
        return LaurentSystem
    if parse is parse_presentation:
        from .foxcalc import Presentation
        return Presentation
    return None if parse is None else Arrangement


def parse_typed(obj, where):
    """A loaded JSON input, typed by its shape."""
    parse = _parser_of(obj)
    if parse is None:
        raise ParseError(
            "unrecognized input shape: expected an arrangement ('forms'), "
            "a Laurent system ('polys'), or a presentation ('generators')",
            where)
    return parse(obj, where)


def parse_input(path):
    """Load and type a JSON input file by its shape."""
    return parse_typed(load_json(path), str(path))


def rational_str(x):
    return str(Fraction(x))


def serialize(value):
    """Canonical JSON-ready form of a parsed input object."""
    if isinstance(value, Arrangement):
        # each form scaled so that its first nonzero coefficient is 1
        forms = [[str(Fraction(c, next(filter(None, f)))) for c in f]
                 for f in value.forms]
        return {
            "ambient": value.ambient,
            "central": value.central,
            "forms": [f[1:] if value.central else f for f in forms],
        }
    # a torus system exists only once its module is loaded, and so does a
    # presentation: an arrangement reaches neither import
    from .torus import LaurentSystem
    if isinstance(value, LaurentSystem):
        return {
            "rank": value.rank,
            "polys": [
                [{"monomial": list(m), "coeff": rational_str(c)}
                 for m, c in sorted(p.items())]
                for p in value.polys
            ],
        }
    from .foxcalc import Presentation
    if isinstance(value, Presentation):
        return {
            "generators": value.generators,
            "relators": [list(w) for w in value.relators],
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")
