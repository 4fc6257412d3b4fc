import pytest

from segrecalc import cli


@pytest.fixture(autouse=True)
def fresh_session():
    """Every test starts on an empty manifest session, so a test that
    counts the work of a check measures it cold, whichever tests ran
    before; the test's session is dropped after it."""
    cli.new_session()
    yield
    cli.new_session()
