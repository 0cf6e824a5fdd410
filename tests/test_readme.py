"""README's library sketch and CLI pipeline run as written and do what they say."""

import re
import shlex
from pathlib import Path

import numpy as np

from remdecay.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# Flags appended to each CLI step (argparse keeps the last value) so that the
# pipeline runs in seconds: 300 events and a 9-model bag.
REDUCED = {
    "simulate": ["--n-events", "300"],
    "gen-intervals": ["--per-kind-count", "1"],
    "fit-bag": [],
    "trend": ["--n-draws", "500"],
    "report": [],
}


def readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_library_sketch_runs():
    blocks = readme_blocks("python")
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


def test_cli_pipeline_runs(tmp_path):
    pipeline = next(b for b in readme_blocks("bash") if "remdecay simulate" in b)
    text = pipeline.replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    commands = [c for c in commands if c]
    assert [c[1] for c in commands] == list(REDUCED)
    for argv in commands:
        assert argv[0] == "remdecay"
        args = [a.replace("run/", f"{tmp_path}/run/") for a in argv[1:]]
        assert main(args + REDUCED[args[0]]) == 0, args
    fit = tmp_path / "run" / "fit"
    for name in ("fits.json", "weights.csv", "trend.csv", "trend.json", "report.md"):
        assert (fit / name).is_file()
    assert len((fit / "weights.csv").read_text().splitlines()) == 1 + 3 * (1 + 1 + 1)
