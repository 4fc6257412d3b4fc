import pytest
from hypothesis import settings

from segrecalc import cli


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    """Every property draws a fixed set of inputs, so a failure replays
    and the suite's time is a measure, not a draw.  A run without
    --hypothesis-seed draws those of seed 0; a given seed chooses
    another draw.  (A derandomized profile would ignore a given seed, and
    would redraw a test whenever its source changes.)  No example
    database either: its replayed examples would change the draw."""
    if config.getoption("--hypothesis-seed") is None:
        config.option.hypothesis_seed = "0"
    settings.register_profile("fixed-draw", database=None)
    settings.load_profile("fixed-draw")


@pytest.fixture(autouse=True)
def fresh_session():
    """Every test starts on an empty manifest session, so a test that
    counts the work of a check measures it cold, whichever tests ran
    before; the test's session is dropped after it."""
    cli.new_session()
    yield
    cli.new_session()
