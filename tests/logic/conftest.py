"""Registers the ``cover-plan-ci`` hypothesis profile.

The CI ``tests`` job re-runs ``test_cover_plan.py``,
``test_engine_machine.py``'s oracle property, ``test_parser.py``'s
reader-agreement properties, ``test_knowledge.py``'s index-build property
and ``tests/test_util.py``'s weighted-draw property under it with
``--hypothesis-seed=random``: ten times the default example budget and no
deadline, so each CI run explores cases the tier-1 run (default profile,
100 examples a property) did not.
The properties set no ``max_examples`` of their own — a test's own
setting would win over the profile's.
"""

try:  # hypothesis is optional: only the property suites need it
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("cover-plan-ci", max_examples=1000, deadline=None)
