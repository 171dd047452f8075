"""The package's public names: every name in `jumploci.__all__` imports."""

import importlib

import pytest

import jumploci


@pytest.mark.parametrize("name", jumploci.__all__)
def test_every_public_name_imports(name):
    namespace = {}
    exec(f"from jumploci import {name}", namespace)
    assert namespace[name] is getattr(jumploci, name)


def test_public_api_names_the_entry_points():
    public = set(jumploci.__all__)
    assert {"os_algebra", "build_quotient_algebra", "elliptic_model",
            "AomotoComplex", "resonance_membership", "generic_dims_sample",
            "log_resonance_membership", "e2_page", "ResonanceReport",
            "E2Report", "PreconditionError", "BadPrimeError",
            "run_all"} <= public
    assert len(public) == len(jumploci.__all__)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        importlib.import_module("jumploci").not_a_name
