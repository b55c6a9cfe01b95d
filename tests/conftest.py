import pytest

from critex.numeral import RadixContext
from critex import logic, quotient, sequences

import helpers


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with empty compile and solve memos, so what one
    test checks never rests on machines an earlier test compiled or solved."""
    logic._MEMO.clear()
    quotient._SOLVED.clear()


@pytest.fixture(scope="session")
def ctx2():
    return RadixContext(2)


@pytest.fixture(scope="session")
def tm():
    return sequences.thue_morse()


@pytest.fixture(scope="session")
def rs():
    return sequences.rudin_shapiro()


@pytest.fixture(scope="session")
def zero():
    return helpers.constant_zero()


@pytest.fixture(scope="session")
def one_then_zeros():
    return helpers.one_then_zeros()


@pytest.fixture(scope="session")
def alternating():
    return helpers.alternating()


@pytest.fixture(scope="session")
def vtm():
    return sequences.vtm()


@pytest.fixture(scope="session")
def tm_period_language(tm):
    from critex.exponents import period_language

    return period_language(tm)


@pytest.fixture(scope="session")
def tm_prefix(tm):
    from critex.oracle import sequence_prefix

    return sequence_prefix(tm, 1 << 14)


@pytest.fixture(scope="session")
def rs_prefix(rs):
    from critex.oracle import sequence_prefix

    return sequence_prefix(rs, 1 << 14)
