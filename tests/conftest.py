"""Hypothesis profiles for the test suite.

Tier-1 must give the same verdict on every run, so the default profile
is derandomized: each property test draws the same examples every time
(seeded from the test itself), and no example database is replayed or
written.  Example counts stay whatever each test's ``@settings`` says.

The ``randomized`` profile draws fresh examples; ``scripts/check.sh``
runs the property modules once under it to look for new
counterexamples (pin each one as an ``@example``)::

    python -m pytest -q --hypothesis-profile=randomized tests/test_properties.py
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("derandomized")
