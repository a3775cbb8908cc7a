import pytest
from hypothesis import Phase, settings

from caretcalc import GeneratingSet, ball
from helpers import restricted

# The mutation gate (tests/mutants.py) runs with --hypothesis-profile=mutants:
# a failing example is reported as drawn, not shrunk, since the gate reads
# only whether a test fails, and shrinking one took minutes.
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])

X1 = GeneratingSet.of([0, 1])
X2 = GeneratingSet.of([0, 1, 2])
X3 = GeneratingSet.of([0, 1, 2, 3])


def counted_calls(monkeypatch, module, name):
    """The calls of ``module.<name>`` from now on, one entry each."""
    calls = []
    function = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="session")
def ball_x1_r8():
    return ball(X1, 8)


@pytest.fixture(scope="session")
def ball_x2_r7():
    return ball(X2, 7)


@pytest.fixture(scope="session")
def ball_x3_r6():
    return ball(X3, 6)


@pytest.fixture(scope="session")
def ball_x2_r6(ball_x2_r7):
    # restriction of the radius-7 index; avoids a second enumeration
    return restricted(ball_x2_r7, 6)
