"""Test-wide settings.

Hypothesis runs derandomized and without a deadline, so property tests
draw the same examples on every run and cannot fail on a slow machine.
"""
try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("jetlift", derandomize=True, deadline=None)
    settings.load_profile("jetlift")
