"""The suite turns a warning raised in library code into an error
(``filterwarnings`` in pyproject.toml), so a deprecation on a path only the
tests reach fails them instead of scrolling by."""

import warnings

import pytest


def _warner(module: str):
    """A function defined in a module named module that warns when called."""
    scope = {"__name__": module, "warnings": warnings}
    exec("def warn():\n    warnings.warn('probe', DeprecationWarning)\n", scope)
    return scope["warn"]


@pytest.mark.parametrize("module", ["liederiv", "liederiv.lie", "liederiv.derivations"])
def test_a_warning_from_the_library_is_an_error(module):
    with pytest.raises(DeprecationWarning, match="probe"):
        _warner(module)()


def test_a_warning_from_elsewhere_stays_a_warning():
    with pytest.warns(DeprecationWarning, match="probe"):
        _warner("elsewhere")()
