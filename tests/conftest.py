import math
import os
import re

import pytest

from iclmanip.model import Episode, GripperState, ObjectObservation, Pose6, WorkspaceBounds

BOUNDS = WorkspaceBounds(-0.5, 0.5, -0.5, 0.5, 0.0, 0.5)

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests take their example count from the active profile:
    # "local" by default, "ci" when HYPOTHESIS_PROFILE=ci.
    settings.register_profile("local", max_examples=300, derandomize=True, deadline=None)
    settings.register_profile("ci", max_examples=2000, derandomize=True, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "local"))


def make_episode(norms, grips=None, instruction="push the red button"):
    """Episode whose per-step velocity norms and gripper states are given:
    step t has seven equal velocity components of norm norms[t] and the
    pose (0.001 t, 0, 0.1, 0, 0, 0)."""
    T = len(norms)
    if grips is None:
        grips = [GripperState.OPEN] * T
    objects = (ObjectObservation("red button", Pose6(0.1, 0.1, 0.0, 0, 0, 0)),)
    poses = [[0.001 * t, 0.0, 0.1, 0.0, 0.0, 0.0] for t in range(T)]
    velocities = [[n / math.sqrt(7)] * 7 for n in norms]
    return Episode(instruction, objects, poses, [g.to_bit() for g in grips], velocities)


@pytest.fixture
def bounds():
    return BOUNDS


# One visible line per acceptance criterion, independent of output capture.
_CRITERION = re.compile(r"test_criterion_0?(\d+)")
_criterion_results = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    n = int(match.group(1))
    if report.when == "call":
        _criterion_results[n] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _criterion_results[n] = "SKIP"
    elif not report.passed and report.when in ("setup", "teardown"):
        _criterion_results.setdefault(n, "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_criterion_results):
        terminalreporter.write_line(f"criterion {n}: {_criterion_results[n]}")
