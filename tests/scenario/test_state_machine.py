"""The scenario state machine under the active hypothesis profile.

The profile sets the step count; the machine runs half the profile's
example budget (an example is a whole simulated session, not a value).
"""

from hypothesis import settings

from .machine import TRIPLES, ScenarioMachine, explored

TestScenarioMachine = ScenarioMachine.TestCase
TestScenarioMachine.settings = settings(
    max_examples=settings().max_examples // 2)


def test_the_machine_explored_the_triples():
    """Runs after the machine (file order): under ``ci`` — derandomised
    — every feature triple of ISSUE 23 occurs in at least one example
    (``-s`` prints the counts, with what the runs provoked)."""
    print(dict(explored))
    for name in TRIPLES:
        assert explored[name] >= 1, (name, dict(explored))
