"""Hypothesis profiles for the suite (docs/TESTING.md).

``ci`` is what tier-1 runs: derandomised, so a red build replays, with
the scenario state machine at a budget of a few seconds.  ``chaos`` is
the deeper sweep ``make chaos`` selects with hypothesis's own
``--hypothesis-profile=chaos --hypothesis-seed=N``.
"""

from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True,
                          stateful_step_count=14)
settings.register_profile("chaos", deadline=None, max_examples=400,
                          stateful_step_count=30)
settings.load_profile("ci")
