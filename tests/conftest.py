"""Test-suite configuration.

Property tests draw a fixed sequence of examples (``derandomize``), so
every run of the suite checks the same cases, and no example fails for
running slowly on a loaded machine.  Nothing is written into the source
tree: there is no example database, and the cache of source constants
that Hypothesis keeps (filled while tests are collected) goes to a
temporary directory removed when the run ends.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("conepack", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("conepack")


def pytest_configure(config):
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)
