"""The clock that scales CPU times to the reference speed, and the sliced
wait that stops a timed child for its calibration samples."""

import os
import sys
import time

import pytest

import run


@pytest.fixture
def work():
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        yield
    finally:
        run.remove_work()


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_calibration_kernel_is_fixed():
    # every time metric is scaled by this kernel's time: changing its work
    # rescales them all
    assert run.calibration_kernel(run.CALIBRATION_ROUNDS) == 0x557FCC08D1443CA5


def test_timed_child_is_sliced_and_calibrated(work):
    clock = run.Clock()
    busy = "import time\nend = time.process_time() + 0.5\nwhile time.process_time() < end: pass"
    child, factor = clock.timed([sys.executable, "-c", busy], time.monotonic() + 60)
    assert child.cpu_s >= 0.5
    # samples before the command and during it, one per slice of its run
    assert len(clock.samples) >= run.PRE_SAMPLES + int(0.5 / run.SLICE_S) - 1
    assert factor == pytest.approx(run.REFERENCE_SAMPLE_S / run.middle_mean(clock.samples))
    assert no_children_left()


def test_middle_mean_drops_the_outer_fifths():
    assert run.middle_mean([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    assert run.middle_mean([2.0, 4.0]) == 3.0


def test_failing_child_raises(work):
    with pytest.raises(run.BenchError, match="exited 3"):
        run.Clock().timed([sys.executable, "-c", "raise SystemExit(3)"],
                          time.monotonic() + 60)
    assert no_children_left()


def test_child_past_the_deadline_is_killed_and_reaped(work):
    start = time.monotonic()
    with pytest.raises(run.BenchError, match="timed out"):
        run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                      start + 1.5, run.Clock())
    assert time.monotonic() - start < 10
    assert no_children_left()
