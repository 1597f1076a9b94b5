"""A live sampling window must be a finite, positive number of seconds.

``LiveSampler`` rejects anything else with a ``ValueError``; the CLI flags
that set a window (``top --window``, ``adaptive --window`` and
``--live-window``) reject it at parse time with exit status 2 and a
one-line message, before any simulation runs.
"""

import pytest

from repro.__main__ import main
from repro.obs.live import LiveSampler

BAD_WINDOWS = ("nan", "inf", "-inf", "0", "-0.001", "abc")


@pytest.mark.parametrize("window", [float("nan"), float("inf"), 0.0, -1.0])
def test_sampler_rejects_non_finite_or_non_positive_window(window):
    with pytest.raises(ValueError, match="finite and > 0"):
        LiveSampler(window=window)


def _rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "window must be a finite number" in errors[0]


@pytest.mark.parametrize("window", BAD_WINDOWS)
def test_top_window_rejected(window, capsys):
    _rejected(["top", "--once", f"--window={window}"], capsys)


@pytest.mark.parametrize("window", BAD_WINDOWS)
def test_live_window_rejected(window, capsys):
    _rejected(["bench", "--mode", "power", "--smoke", f"--live-window={window}"], capsys)


def test_adaptive_window_rejected(capsys):
    _rejected(["adaptive", "--smoke", "--window=nan"], capsys)


def test_valid_window_accepted(capsys):
    assert main(["top", "--point", "fig8", "--once", "--window", "0.05"]) == 0
    assert "window(s)" in capsys.readouterr().out
