import sys
from contextlib import contextmanager

import pytest

from abnormal_forge import nt
from abnormal_forge.construction import ConstructionConfig, Mode, construct
from abnormal_forge.seed import ListDigitSource

# Hand-checked demonstration case: seed digits [1,2,3,1], one block of
# four, base 2. The planner must land on inserts (1, 2, 555, 2**225 + 1)
# with denominators 23, 59 and 32768 = 2**15.
WORKED_SEED = [1, 2, 3, 1]

# Mode texts of the retired relaxed:<scale> mode, keyed by test id: scales
# that once raised ZeroDivisionError or formed 10**100000000 in Fraction(),
# a plain one, and one past the int<->str digit limit. Each is now refused
# as an unknown mode.
RELAXED_MODES = {"1/0": "relaxed:1/0", "0/0": "relaxed:0/0",
                 "1e100000000": "relaxed:1e100000000",
                 "1.5E-3": "relaxed:1.5E-3", "2": "relaxed:2",
                 "10**6-digits": "relaxed:" + "7" * 10**6}


@pytest.fixture
def worked_number():
    config = ConstructionConfig(block_size=4, blocks=1,
                                mode=Mode.parse("paper"))
    return construct(config, ListDigitSource(WORKED_SEED))


@pytest.fixture
def is_prime_operands(monkeypatch):
    """Operands of every nt.is_prime call during the test, in order."""
    operands, real = [], nt.is_prime
    monkeypatch.setattr(nt, "is_prime",
                        lambda n: operands.append(n) or real(n))
    return operands


@contextmanager
def lifted_int_limit():
    """Lift the int<->str digit limit, for str()/int() used as oracles."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
