"""Test-session settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a pass or a failure
# repeats exactly; each test's own max_examples and deadline still apply.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
