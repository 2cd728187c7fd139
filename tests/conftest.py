"""Hypothesis profiles for the test suite.

``tier1``, loaded by default, derandomizes every property: each test draws
the same examples on every run (until hypothesis, Python or the test
changes), so a rare draw cannot fail correct code at random.  ``random``
draws fresh examples, and is selected with ``--hypothesis-profile=random``
to keep exploring.  A test's own ``@settings`` apply on top of either.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("tier1")
