import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def _body_calls(fn, run) -> int:
    """How often the body of ``fn`` (of its ``__wrapped__`` original, for a
    memoised function) runs during ``run()``."""
    code, count = getattr(fn, "__wrapped__", fn).__code__, 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


@pytest.fixture
def body_calls():
    """Call counts, not timings: ``body_calls(fn, run)`` counts the calls."""
    return _body_calls
