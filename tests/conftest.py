"""Hypothesis profiles for the suite.

``pytest --hypothesis-profile=ci`` runs every property test that does not
set its own ``max_examples`` at a larger budget, with no deadline.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
