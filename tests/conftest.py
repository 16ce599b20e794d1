"""Session set-up shared by the test modules."""

import shutil
import tempfile


def pytest_configure(config):
    # Hypothesis caches the constants it reads from local source files under
    # its home directory, `.hypothesis/` in the working directory by default,
    # even with no example database; keep that cache in a temporary directory
    # so that a test run leaves nothing in the checkout.
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # the property tests need the `test` extra
        return
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
