"""Integer strings that the exact-input rule (``linalg.rational``) holds
alike wherever it reads: the ``decompose`` matrix reader (tests/test_cli.py)
and ``LieAlgebra.from_json_dict`` (tests/test_lie.py) are both run on them.

``INT_ONLY`` are read by int() (a non-ASCII digit, an underscore, a sign
or blank) and refused by the rule, as is ``OVERLONG``, past int()'s digit
limit of 4300. ``SPELLINGS`` maps each accepted integer spelling that is
not a plain int to the int it reads as.
"""

import contextlib
import sys

import pytest

INT_ONLY = ["\u0663", "\uff17", "1_0", " 7", "+7", "7\n"]
OVERLONG = "7" * 5000
SPELLINGS = {"007": 7, "-0": 0, "6/3": 2}

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")


@contextlib.contextmanager
def digit_limit():
    """int()'s digit limit set to its default, 4300, while the block runs."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
