"""``scripts/thread_tax.py`` at a tiny size: it runs and prints its three medians."""

import importlib.util
import os
import re
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "thread_tax.py")
_spec = importlib.util.spec_from_file_location("thread_tax", _PATH)
thread_tax = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(thread_tax)

NUMBER = r"(\d+\.\d{3}) \((\d+)\)"


def test_tiny_run_prints_alone_thread_and_process_medians():
    done = subprocess.run([sys.executable, _PATH, "--size", "12x12", "--repeats", "2"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("12x12, median ms of 2 calls")
    assert [line.split()[0] for line in lines[1:]] == ["taped", "untaped"]
    for line in lines[1:]:
        match = re.fullmatch(rf"\w+\s+alone {NUMBER}  thread {NUMBER}  process {NUMBER}", line)
        assert match, line
        assert all(float(ms) > 0 for ms in match.groups()[::2])


@pytest.mark.parametrize("text", ["64", "64x", "63x96", "8x8", "ax96"])
def test_size_must_fit_the_feature_grid_and_the_scene(text):
    with pytest.raises(SystemExit):
        thread_tax.parse_args(["--size", text])


def test_repeats_must_be_positive():
    with pytest.raises(SystemExit):
        thread_tax.parse_args(["--repeats", "0"])
