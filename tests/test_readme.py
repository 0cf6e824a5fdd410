"""README's library sketch runs exactly as written and does what it says."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    bag, trend = ns["bag"], ns["trend"]
    assert len(bag.fits) == len(ns["specs"])
    assert all(f.waic is not None for f in bag.fits)
    # the closing comment's claim: the inertia trend tracks the simulated truth
    inertia = ns["StatisticKind"].INERTIA
    err = trend.modes[inertia] - ns["truth"](trend.grid)
    assert np.sqrt(np.mean(err**2)) < 0.25
