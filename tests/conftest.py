"""Hypothesis profiles for the test suite.

The default profile keeps tier-1's run time. ``deep`` is for differential
runs that should search many more inputs, e.g. the CI ``tree-exact``
job::

    PYTHONPATH=src python -m pytest tests/subspace/test_tree_exact.py \
        --hypothesis-profile=deep

A property that wants the profile's example count must not fix
``max_examples`` in its own ``@settings``.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000, deadline=None)
