"""JSON parsing with field-path errors, canonical serialization, and the
command-line interface (run in-process through main(argv)).

Serialization is only required to be a projection: serialize(parse(x)) may
normalize x, but a second parse/serialize pass must be the identity.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import jumploci
from jumploci import __version__, cli, master
from jumploci.errors import ParseError, PreconditionError
from jumploci.io import (
    load_json, parse_arrangement, parse_input, parse_laurent_system,
    parse_presentation, parse_rational, serialize)
from jumploci.verify import check_elliptic_suite

FIXTURES = resources.files("jumploci").joinpath("fixtures")


# ------------------------------------------------------------------ rationals

def test_rational_accepts_ints_and_fraction_strings():
    assert parse_rational(7, "x") == 7
    assert parse_rational("3/4", "x") == Fraction(3, 4)
    assert parse_rational("-2", "x") == -2


@pytest.mark.parametrize("node", [True, False, 1.5, None, [1]])
def test_rational_rejects_nonrational_json(node):
    with pytest.raises(ParseError, match="expected a rational"):
        parse_rational(node, "x")


def test_rational_zero_denominator_names_the_field():
    with pytest.raises(ParseError) as exc:
        parse_rational("1/0", "forms[1][0]")
    assert "forms[1][0]" in str(exc.value)
    assert "bad rational '1/0'" in str(exc.value)


@pytest.mark.parametrize("text, value", [
    ("1e4300", 10 ** 4300), ("-2.5E-4300", Fraction(-25, 10 ** 4301)),
    ("3e0_004", 30000), ("0.75", Fraction(3, 4))],
    ids=["1e4300", "-2.5E-4300", "3e0_004", "0.75"])
def test_rational_decimal_exponents_up_to_4300(text, value):
    # ids: a 4301-digit value has no str under the default digit limit
    assert parse_rational(text, "x") == value


@pytest.mark.parametrize("text", [
    "1e4301", "1E-4301", "1e100000000", "1e1_000_000",
    "2.5e+" + "9" * 5000],
    ids=["1e4301", "1E-4301", "1e100000000", "1e1_000_000", "5000-digit"])
def test_rational_decimal_exponent_beyond_4300_is_refused(text):
    # Fraction would build 10**e exactly: no time or size bound
    with pytest.raises(ParseError) as exc:
        parse_rational(text, "forms[0][1]")
    assert exc.value.location == "forms[0][1]"
    assert "decimal exponent exceeds 4300 in magnitude" in str(exc.value)


# --------------------------------------------------------------- typed inputs

def test_arrangement_bad_coefficient_reports_full_path():
    obj = {"ambient": 2, "forms": [["1", "0"], ["1/0", "1"]]}
    with pytest.raises(ParseError, match=re.escape("forms[1][0]")):
        parse_arrangement(obj, "arrangement")


def test_arrangement_duplicate_forms_cites_both_indices():
    # scalar multiples define the same hyperplane
    obj = {"ambient": 2, "forms": [["1", "1"], ["0", "1"], ["2", "2"]]}
    with pytest.raises(PreconditionError,
                       match="forms 0 and 2 define the same hyperplane"):
        parse_arrangement(obj)


def test_arrangement_width_error_spells_out_the_expected_length():
    obj = {"ambient": 2, "central": True, "forms": [["1", "0", "0"]]}
    with pytest.raises(ParseError, match="list of 2 rationals"):
        parse_arrangement(obj)


@pytest.mark.parametrize("central", [1, 0, "yes", "true", None, [True]])
def test_arrangement_central_flag_must_be_a_boolean(central):
    obj = {"ambient": 2, "central": central, "forms": [["1", "0"]]}
    with pytest.raises(ParseError) as exc:
        parse_arrangement(obj)
    assert exc.value.location == "arrangement.central"
    assert "expected true or false" in str(exc.value)


def test_arrangement_central_flag_true_false_or_absent():
    central = {"ambient": 2, "forms": [["1", "0"], ["0", "1"]]}
    affine = {"ambient": 2, "forms": [["1", "1", "0"], ["0", "0", "1"]]}
    assert parse_arrangement(central).central
    assert parse_arrangement(dict(central, central=True)).central
    assert not parse_arrangement(affine).central
    assert not parse_arrangement(dict(affine, central=False)).central


@pytest.mark.parametrize("ambient", [0, -3])
def test_arrangement_ambient_below_one_is_refused(ambient):
    obj = {"ambient": ambient, "forms": [["1"]]}
    with pytest.raises(ParseError) as exc:
        parse_arrangement(obj)
    assert exc.value.location == "arrangement.ambient"
    assert f"ambient dimension must be at least 1, got {ambient}" in \
        str(exc.value)


def test_arrangement_missing_key():
    with pytest.raises(ParseError, match="missing key 'forms'"):
        parse_arrangement({"ambient": 2})


def test_laurent_list_shape_infers_rank():
    sys_ = parse_laurent_system(
        [[{"monomial": [1, 0, 2], "coeff": 1}]])
    assert sys_.rank == 3


def test_laurent_empty_system_needs_a_rank():
    with pytest.raises(ParseError, match="cannot infer the torus rank"):
        parse_laurent_system([])
    assert parse_laurent_system({"rank": 2, "polys": []}).rank == 2


def test_laurent_rejects_bool_exponents():
    node = [[{"monomial": [True, 0], "coeff": 1}]]
    with pytest.raises(ParseError, match="monomial must be a list of integers"):
        parse_laurent_system(node)


def test_laurent_rejects_float_coefficients():
    node = [[{"monomial": [1, 0], "coeff": 1.5}]]
    with pytest.raises(ParseError, match="wrong type float"):
        parse_laurent_system(node)


def test_presentation_rejects_bool_letters():
    obj = {"generators": 2, "relators": [[1, True]]}
    with pytest.raises(ParseError, match="signed integers"):
        parse_presentation(obj)


@pytest.mark.parametrize("parse, obj", [
    (parse_arrangement, {"ambient": True, "forms": [["1"]]}),
    (parse_laurent_system, {"rank": True, "polys": []}),
    (parse_laurent_system, {"rank": "2", "polys": []}),
    (parse_presentation, {"generators": False, "relators": []}),
])
def test_integer_keys_reject_booleans_and_strings(parse, obj):
    with pytest.raises(ParseError, match="wrong type (bool|str)"):
        parse(obj)


# ----------------------------------------------------------------- file layer

def test_load_json_missing_file():
    with pytest.raises(ParseError, match="file not found"):
        load_json("/nonexistent/nope.json")


def test_load_json_integer_beyond_the_digit_limit(tmp_path):
    p = tmp_path / "long.json"
    p.write_text('{"ambient": 2, "forms": [[' + "1" * 5000 + ', 0]]}')
    with pytest.raises(ParseError) as exc:
        load_json(str(p))
    assert exc.value.location == str(p)
    assert "malformed JSON" in str(exc.value)


def test_load_json_syntax_error_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"ambient": 2,\n  "forms": [[1, 0],]\n}')
    with pytest.raises(ParseError) as exc:
        load_json(str(p))
    assert re.search(r"broken\.json:\d+:\d+", str(exc.value))
    assert "malformed JSON" in str(exc.value)


def test_parse_input_dispatches_on_shape():
    from jumploci.arrangement import Arrangement
    from jumploci.foxcalc import Presentation
    from jumploci.torus import LaurentSystem
    assert isinstance(
        parse_input(str(FIXTURES / "concurrent3.json")), Arrangement)
    assert isinstance(
        parse_input(str(FIXTURES / "subtorus.json")), LaurentSystem)
    assert isinstance(
        parse_input(str(FIXTURES / "torusrel.json")), Presentation)


def test_parse_input_rejects_unrecognized_shape(tmp_path):
    p = tmp_path / "odd.json"
    p.write_text('{"x": 1}')
    with pytest.raises(ParseError, match="unrecognized input shape"):
        parse_input(str(p))


# -------------------------------------------------------------- serialization

def _reparse(obj):
    if "forms" in obj:
        return parse_arrangement(obj)
    if "polys" in obj:
        return parse_laurent_system(obj)
    return parse_presentation(obj)


@pytest.mark.parametrize("name", [
    "boolean2", "concurrent3", "generic3", "sixplanes4",
    "subtorus", "translated", "free2", "torusrel"])
def test_serialize_parse_is_idempotent_on_every_fixture(name):
    first = serialize(parse_input(str(FIXTURES / f"{name}.json")))
    second = serialize(_reparse(first))
    assert second == first
    json.dumps(first)  # must already be JSON-ready


def test_central_arrangements_serialize_without_constant_terms():
    arr = parse_input(str(FIXTURES / "sixplanes4.json"))
    out = serialize(arr)
    assert out["central"] is True
    assert all(len(f) == arr.ambient for f in out["forms"])
    affine = serialize(parse_input(str(FIXTURES / "generic3.json")))
    assert all(len(f) == 3 for f in affine["forms"])  # constant kept


def test_serialization_normalizes_leading_coefficients():
    out = serialize(parse_arrangement({"ambient": 2, "forms": [["2", "4"]]}))
    assert out["forms"] == [["1", "2"]]


# Hypothesis fuzzing of the three parsers: arbitrary JSON with the keys the
# parsers read, and near-valid inputs of each shape.  Only rejected-input
# errors may escape, and whatever parses serializes canonically.

_KEYS = ["ambient", "central", "forms", "rank", "polys", "monomial", "coeff",
         "generators", "relators", "re", "im"]
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 6),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["1", "-2", "3/4", "0", "1/0", "x", "", "2.5"]))
_json = st.recursive(
    _json_leaves,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.sampled_from(_KEYS), kids,
                                           max_size=4)),
    max_leaves=16)
_coeff = st.one_of(st.integers(-5, 5), _json_leaves)
_small = st.one_of(st.integers(-2, 4), _json_leaves)


@st.composite
def _arrangements(draw):
    obj = {"ambient": draw(st.one_of(st.integers(1, 3), _small))}
    if draw(st.booleans()):
        obj["central"] = draw(st.one_of(st.booleans(), _json_leaves))
    ambient = obj["ambient"]
    width = ambient if type(ambient) is int and ambient > 0 else 2
    width += draw(st.integers(0, 1))
    row = st.one_of(
        st.lists(st.integers(-3, 3), min_size=width, max_size=width),
        st.lists(_coeff, max_size=4))
    obj["forms"] = draw(st.lists(row, max_size=4))
    return obj

_terms = st.fixed_dictionaries(
    {"monomial": st.lists(st.integers(-3, 3), max_size=3), "coeff": _coeff})
_polys = st.lists(st.lists(_terms, max_size=3), max_size=3)
_systems = st.one_of(
    _polys,
    st.fixed_dictionaries({"polys": _polys}, optional={"rank": _small}))
_presentations = st.fixed_dictionaries(
    {"generators": _small},
    optional={"relators": st.lists(st.lists(st.integers(-4, 4), max_size=5),
                                   max_size=3)})


_PARSERS = [parse_arrangement, parse_laurent_system, parse_presentation]


@given(st.one_of(
    st.tuples(st.sampled_from(_PARSERS), _json),
    st.tuples(st.sampled_from(_PARSERS),
              st.one_of(_arrangements(), _systems, _presentations)),
    st.tuples(st.just(parse_arrangement), _arrangements()),
    st.tuples(st.just(parse_laurent_system), _systems),
    st.tuples(st.just(parse_presentation), _presentations)))
@settings(max_examples=400, deadline=None)
def test_parsers_reject_bad_input_only_with_input_errors(case):
    parse, obj = case
    try:
        value = parse(obj)
    except PreconditionError:  # ParseError included
        return
    first = serialize(value)
    assert serialize(_reparse(first)) == first
    json.dumps(first)


def test_laurent_serialization_sorts_terms():
    sys_ = parse_laurent_system(
        [[{"monomial": [1, 1], "coeff": 1},
          {"monomial": [0, 0], "coeff": "-1"}]])
    out = serialize(sys_)
    monomials = [t["monomial"] for t in out["polys"][0]]
    assert monomials == sorted(monomials)


# ------------------------------------------------------------------------ CLI

def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def report(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


def stderr_error(argv, expected_code):
    code, out, err = run_cli(argv)
    assert code == expected_code
    assert out == ""
    return json.loads(err)


def test_report_shape_and_fixture_fallback():
    # a bare name with no .json resolves to the bundled fixture
    rep = report(["aomoto", "--arrangement", "concurrent3",
                  "--alpha", "1,1,-2"])
    assert set(rep) == {"tool", "version", "subcommand", "seed", "inputs",
                        "result", "elapsed_s"}
    assert rep["tool"] == "jumploci"
    assert rep["version"] == __version__
    assert rep["subcommand"] == "aomoto"
    assert rep["seed"] == 0
    arr_input = rep["inputs"]["arrangement"]
    assert arr_input["path"].endswith("fixtures/concurrent3.json")
    assert re.fullmatch(r"[0-9a-f]{64}", arr_input["sha256"])
    assert rep["result"] == {"degree": 1, "depth": 1, "dims": [0, 1, 1],
                             "member": True, "euler_ok": True}


def test_unknown_fixture_name_is_a_parse_error():
    err = stderr_error(["aomoto", "--arrangement", "no-such-input",
                        "--alpha", "1,1"], 2)
    assert err["kind"] == "parse"
    assert "no bundled fixture matches" in err["error"]


def test_etc_membership_subtorus_and_translated():
    rep = report(["etc-membership", "--system", "subtorus",
                  "--alpha", "1,-1"])
    # the direction lies along the subtorus: every restriction collapses
    assert rep["result"] == {"member": True, "restrictions": [[]],
                             "witness": None}
    rep = report(["etc-membership", "--system", "translated",
                  "--alpha", "1,-1"])
    assert rep["result"]["member"] is False
    assert rep["result"]["witness"] == [0, "-1", "1"]
    assert rep["result"]["restrictions"][0] == [
        {"frequency": "-1", "coeff": "1"},
        {"frequency": "0", "coeff": "-2"},
        {"frequency": "1", "coeff": "1"}]


def test_os_algebra_report_and_truncation():
    rep = report(["os-algebra", "--arrangement", "sixplanes4"])
    res = rep["result"]
    assert res["dims"] == [1, 6, 15, 18, 8]
    assert res["euler"] == 0
    assert res["rank"] == 4 and res["central"] is True
    assert [0, 1, 2, 4] in res["circuits"] and [1, 2, 3, 5] in res["circuits"]
    assert res["canonical_input"]["forms"][4] == ["1", "1", "1", "0"]
    truncated = report(["os-algebra", "--arrangement", "sixplanes4",
                        "--top", "3"])["result"]
    assert truncated["dims"] == [1, 6, 15, 18]
    assert truncated["euler"] is None  # not computable from a truncation


def test_fox_h1_on_the_free_group():
    rep = report(["fox-h1", "--presentation", "free2", "--character", "2,3"])
    assert rep["result"] == {"h0": 0, "h1": 1, "h2_presentation": 0,
                             "jacobian_rank": 0}


def test_log_resonance_subcommand():
    rep = report(["log-resonance", "--arrangement", "concurrent3",
                  "--alpha", "1,1,-2"])
    assert rep["result"] == {"member": True, "h1": 1, "zero_class": False,
                             "filtration_dim": 3}


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_log_resonance_alpha_of_the_wrong_length_exits_2(alpha):
    # "0" used to exit 0 with zero_class: true before the length was checked
    err = stderr_error(["log-resonance", "--arrangement", "concurrent3",
                        "--alpha", alpha], 2)
    assert err["kind"] == "precondition"
    assert err["error"] == "alpha needs 3 coordinates, got 1"


def test_e2_page_entries_are_keyed_by_bidegree():
    rep = report(["e2-page", "--n", "3", "--x", "1,1,-2"])
    res = rep["result"]
    assert res["entries"] == {"0,0": 0, "0,1": 1, "1,0": 0,
                              "0,2": 2, "1,1": 1, "2,0": 0}
    assert res["h"] == [0, 1, 3]
    assert res["consistent"] is True


def test_master_points_report():
    rep = report(["master", "--points", "0,1,2", "--weights", "1,1,1"])
    crit = rep["result"]["critical"]
    assert crit["total"] == 2 and crit["chi"] == -2 and crit["chi_matches"]
    assert [z["minpoly"] for z in crit["zeros"]] == [[3, -6, 2], [3, -6, 2]]
    assert [z["interval"] for z in crit["zeros"]] == [["0", "1"], ["1", "2"]]
    log = rep["result"]["log_divisor"]
    assert log["total"] == 2 and log["divisor_size"] == 4
    for entry in rep["result"]["koszul"]:
        assert entry["h0"] == 0
        assert entry["h1"] == entry["zero"]["multiplicity"]


def _csv(values):
    return ",".join(str(Fraction(v)) for v in values)


# The subcommand calls the very functions it is compared with, so the
# comparison checks `jsonable` and the envelope; these four cases reach
# every kind of zero, and random configurations would add nothing.
@pytest.mark.parametrize("points, lam", [
    ([0, 1, 2], [24, -27, 6]),
    ([0, 1, 2], [Fraction(3, 2), 0, Fraction(3, 2)]),
    ([0, 1], [1, -1]),
    ([0, 1, 2, 3], [1, 0, -2, 1]),
], ids=["double-interior-zero", "at-a-puncture", "at-infinity",
        "both-plus-interior"])
def test_master_points_report_equals_the_public_functions(points, lam):
    # the subcommand calls the three public functions, which share one
    # factorization of the configuration's numerator
    rep = report(["master", "--points", _csv(points),
                  "--weights", _csv(lam)])
    assert rep["result"] == {
        "critical": cli.jsonable(
            master.critical_points_univariate(points, lam)),
        "log_divisor": cli.jsonable(master.log_zero_divisor_p1(points, lam)),
        "koszul": cli.jsonable(master.local_koszul_univariate(points, lam)),
    }


def test_residues_subcommand(tmp_path):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({
        "ambient": 3, "central": True,
        "forms": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]}))
    rep = report(["residues", "--arrangement", str(tri),
                  "--weights", "1,1,-2"])
    res = rep["result"]
    assert res["lines"] == [[0, "1"], [1, "1"], [2, "-2"]]
    assert res["points"] == [{"lines": [0, 1, 2], "point": ["0", "0", "1"],
                              "residue": "0"}]
    assert res["zero_components"] == [["point", [0, 1, 2]]]
    generic = tmp_path / "gen.json"
    generic.write_text(json.dumps({
        "ambient": 3, "central": True,
        "forms": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    rep = report(["residues", "--arrangement", str(generic),
                  "--weights", "1,1,-2"])
    assert rep["result"]["points"] == []


def test_exit_code_2_on_parse_errors(tmp_path):
    bad = tmp_path / "bad_coeff.json"
    bad.write_text(json.dumps(
        {"ambient": 2, "forms": [["1", "0"], ["1/0", "1"]]}))
    err = stderr_error(["aomoto", "--arrangement", str(bad),
                        "--alpha", "1,1"], 2)
    assert err["kind"] == "parse"
    assert f"{bad}.forms[1][0]" in err["error"]
    boolean = tmp_path / "bool_ambient.json"
    boolean.write_text(json.dumps({"ambient": True, "forms": [["1", "0"]]}))
    err = stderr_error(["os-algebra", "--arrangement", str(boolean)], 2)
    assert err["kind"] == "parse"
    assert "key 'ambient' has wrong type bool" in err["error"]


def test_huge_decimal_exponent_exits_2_in_json_and_weights(tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(
        {"ambient": 2, "forms": [["0", "1", "0"], ["1e100000000", "0", "1"],
                                 ["0", "1", "1"]]}))
    err = stderr_error(["master", "--arrangement", str(huge),
                        "--weights", "1,1,1"], 2)
    assert err["kind"] == "parse"
    assert err["error"].startswith(f"{huge}.forms[1][0]: bad rational")
    assert "decimal exponent exceeds 4300" in err["error"]
    err = stderr_error(["master", "--points", "0,1",
                        "--weights", "1,1e100000000"], 2)
    assert err["kind"] == "parse"
    assert err["error"].startswith("weights[1]: bad rational '1e100000000'")


@pytest.mark.parametrize("subspace, length", [("1,0,0,5", 4), ("1,-1", 2)])
def test_subspace_rows_of_the_wrong_length_exit_2(subspace, length):
    # concurrent3 has dim A^1 = 3: a longer row used to raise IndexError,
    # a shorter one was padded with zeros
    err = stderr_error(["resonance-sample", "--arrangement", "concurrent3",
                        "--subspace", subspace], 2)
    assert err["kind"] == "precondition"
    assert err["error"] == (f"subspace row 0 has {length} entries; "
                            "A^1 has dimension 3")


def test_subspace_rows_that_lose_rank_mod_p_exit_2():
    p = 2147483629  # the default sampling prime
    err = stderr_error(["resonance-sample", "--arrangement", "concurrent3",
                        "--subspace", f"{p},{2 * p},0;1,-1,0"], 2)
    assert err["kind"] == "precondition"
    assert err["error"].startswith(
        f"subspace rows have rank 2 over QQ but their images mod {p} have "
        "rank 1")


def _unlimited_str(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_reports_render_rationals_beyond_the_digit_limit_exactly():
    # a critical point of (t - 1/N)^N (t - N) is (N^2 - N + 1)/N, whose
    # numerator has 8000 digits; and (t - 1)(t - 2)^W with W = 10^4300 has
    # its critical point at (W + 2)/(W + 1)
    limit = sys.get_int_max_str_digits()
    n = int("7" * 4000)
    rep = report(["master", "--points", f"1/{'7' * 4000},{'7' * 4000}",
                  "--weights", f"{'7' * 4000},1"])
    value = rep["result"]["critical"]["zeros"][0]["value"]
    assert value == f"{_unlimited_str(n * n - n + 1)}/{'7' * 4000}"
    rep = report(["master", "--points", "1,2", "--weights", "1,1e4300"])
    for key in ("critical", "log_divisor"):
        zeros = rep["result"][key]["zeros"]
        assert [z["value"] for z in zeros] == [
            f"1{'0' * 4299}2/1{'0' * 4299}1"]
    assert sys.get_int_max_str_digits() == limit


def test_exit_code_2_on_precondition_errors(tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(
        {"ambient": 2, "forms": [["1", "1"], ["2", "2"]]}))
    err = stderr_error(["os-algebra", "--arrangement", str(dup)], 2)
    assert err["kind"] == "precondition"
    assert "forms 0 and 1 define the same hyperplane" in err["error"]
    err = stderr_error(["master", "--points", "0,1,0",
                        "--weights", "1,1,1"], 2)
    assert "distinct" in err["error"]


@pytest.mark.parametrize("argv", [
    ["elliptic", "--n", "3", "--trials", "-1"],
    ["resonance-sample", "--arrangement", "concurrent3", "--trials", "0"],
])
def test_sample_counts_below_one_exit_2(argv):
    # the elliptic battery needs one scroll sample per stratum
    least = 3 if argv[0] == "elliptic" else 1
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument --trials: must be at least {least}" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["os-algebra", "--arrangement", "concurrent3", "--prime", "13"],
    ["os-algebra", "--arrangement", "concurrent3", "--trials", "7"],
    ["aomoto", "--arrangement", "concurrent3", "--alpha", "1,1,-2",
     "--trials", "3"],
    ["elliptic", "--n", "3", "--prime", "13"],
    ["e2-page", "--n", "3", "--x", "1,1,-2", "--trials", "3"],
    ["master", "--points", "0,1,2", "--weights", "1,1,1", "--prime", "13"],
    ["verify-paper", "--trials", "5"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_options_a_subcommand_does_not_read_exit_2(argv):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err.getvalue()


def test_elliptic_suite_refuses_vacuous_sample_counts():
    for count in (0, -1):
        with pytest.raises(PreconditionError, match="trials"):
            check_elliptic_suite(3, trials=count)


@pytest.mark.parametrize("trials", ["1", "2"])
def test_elliptic_scroll_samples_below_three_exit_2(trials):
    # fewer than three scroll samples would leave the rank-1 and general
    # strata untested; argparse refuses them by the option's own name
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(["elliptic", "--n", "3", "--trials", trials])
    assert exc.value.code == 2
    assert f"argument --trials: must be at least 3, got {trials}" \
        in err.getvalue()
    assert "precondition" not in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_elliptic_help_names_the_least_trials():
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out):
        cli.main(["elliptic", "--help"])
    assert exc.value.code == 0
    assert "at least 3" in " ".join(out.getvalue().split())


@pytest.mark.parametrize("n", ["2", "1", "0", "-1"])
def test_elliptic_suite_below_three_points_exits_2(n):
    # at n = 2 the scroll is E_01 itself, so check (e) has no witness; the
    # refusal comes before the sample counts are read
    for argv in (["elliptic", "--n", n], ["elliptic", "--n", n,
                                          "--trials", "3"]):
        err = stderr_error(argv, 2)
        assert err["kind"] == "precondition"
        assert err["error"].startswith(f"n = {n}: the elliptic suite needs "
                                       "n >= 3"), err
        assert "E_01" in err["error"]
    with pytest.raises(PreconditionError, match=f"n = {n}: "):
        check_elliptic_suite(int(n), trials=0)


def test_exit_code_3_on_degenerate_weights():
    # concurrent lines with weights summing to zero at the common point:
    # the critical set is positive-dimensional
    err = stderr_error(["master", "--arrangement", "concurrent3",
                        "--weights", "1,1,-2"], 3)
    assert err["kind"] == "degeneracy"


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["frobnicate"])
    assert exc.value.code == 2


# list values that start with a minus sign, each next to its option
NEGATIVE_VALUE_RUNS = [
    ["aomoto", "--arrangement", "concurrent3", "--alpha", "-2,1,1"],
    ["e2-page", "--n", "3", "--x", "-1,1,0"],
    ["master", "--points", "-1,0,1", "--weights", "1,1,1"],
    ["master", "--points", "0,1,2", "--weights", "-1/2,2,1"],
    ["resonance-sample", "--arrangement", "concurrent3",
     "--subspace", "-1,1,0", "--trials", "2"],
    ["log-resonance", "--arrangement", "concurrent3", "--alpha", "-.5,1,1"],
    ["fox-h1", "--presentation", "free2", "--character", "-2,3"],
]


@pytest.mark.parametrize("argv", NEGATIVE_VALUE_RUNS,
                         ids=[" ".join(a[:1] + a[-2:]) for a in
                              NEGATIVE_VALUE_RUNS])
def test_list_values_may_start_with_a_minus_sign(argv):
    k = next(k for k, a in enumerate(argv) if a[:2] != "--" and a[:1] == "-")
    spelled = argv[:k - 1] + [f"{argv[k - 1]}={argv[k]}"] + argv[k + 1:]
    got, want = report(argv), report(spelled)
    got.pop("elapsed_s"), want.pop("elapsed_s")
    assert got == want


def test_a_list_option_without_its_value_still_exits_2():
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(["aomoto", "--arrangement", "concurrent3", "--alpha",
                  "--degree", "1"])
    assert exc.value.code == 2
    assert "argument --alpha: expected one argument" in err.getvalue()


def test_json_out_duplicates_stdout(tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(["aomoto", "--arrangement", "concurrent3",
                            "--alpha", "1,1,-2",
                            "--json-out", str(out_path)])
    assert code == 0
    assert out_path.read_text().strip() == out.strip()


def test_reports_are_deterministic_modulo_elapsed_time():
    argv = ["e2-page", "--n", "2", "--x", "1,-1"]
    a, b = report(argv), report(argv)
    a.pop("elapsed_s"), b.pop("elapsed_s")
    assert a == b


def test_parser_is_built_once_and_survives_a_refused_argv(monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        argv = ["aomoto", "--arrangement", "concurrent3", "--alpha", "-2,1,1"]
        first = report(argv)
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            cli.main(["aomoto", "--arrangement", "concurrent3", "--alpha",
                      "--degree", "1"])
        assert exc.value.code == 2
        assert "argument --alpha: expected one argument" in err.getvalue()
        last = report(argv)
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    first.pop("elapsed_s"), last.pop("elapsed_s")
    assert first == last


# every subcommand that reads a typed input file, with the option naming the
# file and the comma-separated options it also needs
TYPED_SUBCOMMANDS = [
    ("os-algebra", "--arrangement", []),
    ("aomoto", "--arrangement", ["--alpha"]),
    ("resonance-sample", "--arrangement", []),
    ("log-resonance", "--arrangement", ["--alpha"]),
    ("master", "--arrangement", ["--weights"]),
    ("residues", "--arrangement", ["--weights"]),
    ("etc-membership", "--system", ["--alpha"]),
    ("fox-h1", "--presentation", ["--character"]),
]
FIXTURE_NAMES = sorted(f.name[:-len(".json")] for f in FIXTURES.iterdir()
                       if f.name.endswith(".json"))


def _fixture_length(name):
    """How many values the fixture's own kind of option takes: one per
    hyperplane, torus coordinate or generator."""
    value = parse_input(str(FIXTURES / f"{name}.json"))
    for attr in ("size", "rank", "generators"):
        if hasattr(value, attr):
            return getattr(value, attr)
    raise AssertionError(f"{name}: unknown input kind")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("subcommand,file_option,value_options",
                         TYPED_SUBCOMMANDS, ids=[s for s, _, _ in
                                                 TYPED_SUBCOMMANDS])
def test_every_typed_subcommand_on_every_fixture(subcommand, file_option,
                                                 value_options, name):
    # values sized to the fixture; a fixture of another kind than the
    # subcommand reads must be refused with exit 2, never a traceback
    values = ",".join(str(k + 1) for k in range(_fixture_length(name)))
    argv = [subcommand, file_option, name]
    for option in value_options:
        argv += [option, values]
    code, out, err = run_cli(argv)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["subcommand"] == subcommand
    else:
        assert out == "" and json.loads(err)["kind"] in ("parse",
                                                         "precondition")


@pytest.mark.parametrize("argv,message", [
    (["etc-membership", "--system", "torusrel", "--alpha", "1,1"],
     "system: expected a torus system, got a presentation"),
    (["etc-membership", "--system", "concurrent3", "--alpha", "1,1"],
     "system: expected a torus system, got an arrangement"),
    (["fox-h1", "--presentation", "subtorus", "--character", "2,3"],
     "presentation: expected a presentation, got a torus system"),
    (["os-algebra", "--arrangement", "free2"],
     "arrangement: expected an arrangement, got a presentation"),
    (["master", "--arrangement", "subtorus", "--weights", "1,1"],
     "arrangement: expected an arrangement, got a torus system"),
])
def test_typed_input_of_the_wrong_kind_exits_2(argv, message):
    err = stderr_error(argv, 2)
    assert err == {"error": message, "kind": "parse"}


# argv fuzz of the subcommands that rank: mostly fixtures of the kind the
# subcommand reads with value lists of their length, so that most draws
# reach the ranks, and otherwise fixtures of other kinds, malformed names,
# lists of other lengths, malformed tokens and out-of-range integers
_BAD_TOKENS = ["", " ", "x", "1/0", "1//2", "nan", "inf", "1e4301", "--",
               "-", "1,,2", "\u0663", "0x10", "1_0", "2/-3"]
_good_value = st.one_of(
    st.integers(-9, 9).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 5)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["-.5", "1.25", "3e2", "-2E-1", "1e4300"]))
_value = st.one_of(_good_value, _good_value, st.sampled_from(_BAD_TOKENS))
_ARRANGEMENTS = [name for name in FIXTURE_NAMES if hasattr(
    parse_input(str(FIXTURES / f"{name}.json")), "size")]
_PRESENTATIONS = [name for name in FIXTURE_NAMES if hasattr(
    parse_input(str(FIXTURES / f"{name}.json")), "generators")]
_READS = {"aomoto": ("--arrangement", "--alpha", _ARRANGEMENTS),
          "log-resonance": ("--arrangement", "--alpha", _ARRANGEMENTS),
          "fox-h1": ("--presentation", "--character", _PRESENTATIONS)}


def _values(draw, length):
    if draw(st.integers(0, 3)):
        return ",".join(draw(st.lists(_value, min_size=length,
                                      max_size=length)))
    return draw(st.one_of(
        st.lists(_value, min_size=1, max_size=7).map(",".join),
        st.sampled_from(_BAD_TOKENS)))


@st.composite
def _ranking_argv(draw):
    subcommand = draw(st.sampled_from(
        ["aomoto", "log-resonance", "e2-page", "fox-h1"]))
    if subcommand == "e2-page":
        n = draw(st.integers(2, 6)) if draw(st.integers(0, 3)) else None
        options = [("--n", str(n) if n else draw(st.sampled_from(
                        ["-1", "0", "1", "33", "x", ""]))),
                   ("--x", _values(draw, n or 3))]
    else:
        file_option, value_option, own = _READS[subcommand]
        name = draw(st.sampled_from(own)) if draw(st.integers(0, 3)) else \
            draw(st.sampled_from(FIXTURE_NAMES + ["no-such-input", "",
                                                  "../x.json"]))
        length = _fixture_length(name) if name in FIXTURE_NAMES else 3
        options = [(file_option, name),
                   (value_option, _values(draw, length))]
        if subcommand == "aomoto":
            options += draw(st.lists(st.tuples(
                st.sampled_from(["--degree", "--depth"]),
                st.one_of(st.integers(-1, 4).map(str),
                          st.sampled_from(["x", "1.5"]))), max_size=2))
    options = draw(st.permutations(options))
    # now and then an option is dropped, which argparse refuses
    if not draw(st.integers(0, 9)):
        options = options[1:]
    return [subcommand] + [token for option in options for token in option]


@given(_ranking_argv())
@settings(max_examples=300, deadline=None)
def test_ranking_subcommands_survive_argv_fuzz(argv):
    _run_fuzzed(argv)


@st.composite
def _battery_argv(draw):
    """argv of the subcommands that build or sample at a size the argv
    names: `elliptic` at n in 1..4 with --trials in -1..8, `os-algebra`
    with --top in -2..5 on every bundled fixture."""
    if draw(st.booleans()):
        options = [("--n", str(draw(st.integers(1, 4)))),
                   ("--trials", str(draw(st.integers(-1, 8))))]
        subcommand = "elliptic"
    else:
        options = [("--arrangement", draw(st.sampled_from(FIXTURE_NAMES))),
                   ("--top", str(draw(st.integers(-2, 5))))]
        subcommand = "os-algebra"
    options = draw(st.permutations(options))
    # now and then an option is dropped: a required one is refused by
    # argparse, an optional one takes its default
    if not draw(st.integers(0, 9)):
        options = options[1:]
    return [subcommand] + [token for option in options for token in option]


def _run_fuzzed(argv):
    """(exit code, stdout) of one fuzzed argv, asserting the exit contract:
    0, 2 or 3 from `main` with a JSON error on stderr otherwise, or
    argparse's own exit 2, and never a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            # argparse's own refusal: its usage message, exit 2
            assert exc.code == 2, (argv, err.getvalue())
            assert "error:" in err.getvalue(), argv
            assert "Traceback" not in err.getvalue(), argv
            return None, ""
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 0:
        assert json.loads(out.getvalue())["subcommand"] == argv[0]
    else:
        assert out.getvalue() == "", argv
        error = json.loads(err.getvalue())
        assert error["kind"] in ("parse", "precondition", "degeneracy")
        assert error["error"], argv
    return code, out.getvalue()


@given(_battery_argv())
@settings(max_examples=100, deadline=None)
def test_sized_subcommands_survive_argv_fuzz(argv):
    code, out = _run_fuzzed(argv)
    if code == 0 and argv[0] == "elliptic":
        assert json.loads(out)["result"]["passed"] is True, argv


@st.composite
def _sample_argv(draw):
    """argv of `resonance-sample`, whose F_p samples rank blocks of the
    reduced algebra: --trials in -1..5, a prime, a composite or 1000003 as
    --prime, and now and then a --subspace that is valid, ragged or has a
    zero row, on the bundled fixtures."""
    name = draw(st.sampled_from(_ARRANGEMENTS)) if draw(st.integers(0, 3)) \
        else draw(st.sampled_from(FIXTURE_NAMES))
    length = _fixture_length(name)
    options = [("--arrangement", name),
               ("--trials", str(draw(st.integers(-1, 5)))),
               ("--prime", str(draw(st.sampled_from([2, 4, 7, 1000003]))))]
    if draw(st.booleans()):
        row = st.lists(st.integers(-3, 3), min_size=length,
                       max_size=length)
        rows = draw(st.lists(row, min_size=1, max_size=3))
        kind = draw(st.sampled_from(["valid", "ragged", "zero"]))
        if kind == "ragged":
            rows[-1] = rows[-1] + [1] if draw(st.booleans()) else \
                rows[-1][1:]
        elif kind == "zero":
            rows.insert(draw(st.integers(0, len(rows))), [0] * length)
        options.append(("--subspace", ";".join(
            ",".join(map(str, r)) for r in rows)))
    options = draw(st.permutations(options))
    return ["resonance-sample"] + [token for option in options
                                   for token in option]


@given(_sample_argv())
@settings(max_examples=60, deadline=None)
def test_resonance_sample_survives_argv_fuzz(argv):
    code, out = _run_fuzzed(argv)
    if code == 0:
        report = json.loads(out)["result"]
        assert report["trials"] == int(argv[argv.index("--trials") + 1])


_SYSTEMS = [name for name in FIXTURE_NAMES if hasattr(
    parse_input(str(FIXTURES / f"{name}.json")), "rank")]


@st.composite
def _etc_argv(draw):
    """argv of `etc-membership`: mostly a bundled torus system with an
    --alpha of its rank, otherwise any bundled fixture or a missing name,
    and now and then without one of its options."""
    name = draw(st.sampled_from(_SYSTEMS)) if draw(st.integers(0, 3)) else \
        draw(st.sampled_from(FIXTURE_NAMES + ["no-such-input", "",
                                              "../x.json"]))
    length = _fixture_length(name) if name in FIXTURE_NAMES else 2
    options = draw(st.permutations([("--system", name),
                                    ("--alpha", _values(draw, length))]))
    if not draw(st.integers(0, 9)):
        options = options[1:]
    return ["etc-membership"] + [token for option in options
                                 for token in option]


@given(_etc_argv())
@settings(max_examples=60, deadline=None)
def test_etc_membership_survives_argv_fuzz(argv):
    _run_fuzzed(argv)


def test_malformed_arrangement_files_keep_their_field_messages(tmp_path):
    # only a file shaped like another kind of input is refused by its kind
    no_forms = tmp_path / "no_forms.json"
    no_forms.write_text(json.dumps({"ambient": 2}))
    err = stderr_error(["os-algebra", "--arrangement", str(no_forms)], 2)
    assert err == {"error": f"{no_forms}: missing key 'forms'",
                   "kind": "parse"}
    scalar = tmp_path / "scalar.json"
    scalar.write_text("3")
    err = stderr_error(["residues", "--arrangement", str(scalar),
                        "--weights", "1"], 2)
    assert err == {"error": f"{scalar}: expected an object", "kind": "parse"}


# ------------------------------------------------------------ lazy sympy

# every subcommand that needs no sympy, on bundled fixtures
SYMPY_FREE_RUNS = [
    ["os-algebra", "--arrangement", "concurrent3"],
    ["aomoto", "--arrangement", "concurrent3", "--alpha", "1,1,-2"],
    ["resonance-sample", "--arrangement", "concurrent3", "--trials", "2"],
    ["log-resonance", "--arrangement", "concurrent3", "--alpha", "1,1,-2"],
    ["e2-page", "--n", "3", "--x", "1,1,-2"],
    ["elliptic", "--n", "3", "--trials", "3"],
    ["etc-membership", "--system", "subtorus", "--alpha", "1,-1"],
    ["fox-h1", "--presentation", "free2", "--character", "2,3"],
]

_LAZY_SCRIPT = """
import contextlib, io, json, sys
from jumploci import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

codes = [run(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in ("sympy", "jumploci.master") if m in sys.modules)
master = run(["master", "--points", "0,1,2", "--weights", "1,1,1"])
print(json.dumps({"codes": codes, "loaded": loaded, "master": master,
                  "sympy_after": "sympy" in sys.modules}))
"""


def test_sympy_free_subcommands_never_import_sympy(tmp_path):
    # a fresh interpreter, since this one has imported master already
    src = os.path.dirname(os.path.dirname(jumploci.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCRIPT, json.dumps(SYMPY_FREE_RUNS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"codes": [0] * len(SYMPY_FREE_RUNS), "loaded": [],
                   "master": 0, "sympy_after": True}


@pytest.mark.parametrize("name", [
    "critical_points_bivariate", "critical_points_univariate",
    "log_zero_divisor_p1", "local_koszul_univariate"])
def test_cli_resolves_the_traced_master_names(name):
    # the benchmark's tracer rebinds these four on the cli module
    assert getattr(cli, name) is getattr(master, name)


def test_cli_getattr_refuses_other_names():
    # hasattr and getattr with a default rely on AttributeError
    assert not hasattr(cli, "residues_line_arrangement")
