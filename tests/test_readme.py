"""README's library sketch and CLI pipeline run as written and do what they
say, and CI runs the same pipeline."""

import re
import shlex
import textwrap
from pathlib import Path

import numpy as np

from remdecay.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

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


def commands(script):
    """The non-empty argv lists of a shell script, with continuations joined."""
    lines = script.replace("\\\n", " ").splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]


def readme_pipeline():
    return commands(next(b for b in readme_blocks("bash") if "remdecay simulate" in b))


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
    pipeline = readme_pipeline()
    assert [c[1] for c in pipeline] == list(REDUCED)
    for argv in pipeline:
        assert argv[0] == "remdecay"
        args = [a.replace("run/", f"{tmp_path}/run/") for a in argv[1:]]
        assert main(args + REDUCED[args[0]]) == 0, args
    fit = tmp_path / "run" / "fit"
    for name in ("fits.json", "weights.csv", "trend.csv", "trend.json", "report.md"):
        assert (fit / name).is_file()
    assert len((fit / "weights.csv").read_text().splitlines()) == 1 + 3 * (1 + 1 + 1)


def test_ci_runs_the_readme_pipeline():
    """The workflow's full-size pipeline step runs README's five commands as
    written (read without a YAML parser: the step's ``run: |`` block)."""
    step = WORKFLOW.read_text().split("- name: README WAIC pipeline", 1)[1]
    block = step.split("run: |\n", 1)[1].split("\n      - name:", 1)[0]
    ci = [argv for argv in commands(textwrap.dedent(block)) if argv[0] == "remdecay"]
    assert ci == readme_pipeline()
