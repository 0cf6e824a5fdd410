"""Every CLI argv that the benchmark runs still parses, flag by flag, to the
fields that each flag has always parsed to, so a change to the CLI's option
table that drops or retypes a flag the benchmark passes fails here instead
of in a benchmark run. Reads bench/workloads.py and changes nothing there."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from remdecay.cli import _merge_config, build_parser

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()

# How each flag's text has always been read (argparse's type= of the flag);
# a flag not listed is text. --kinds compares as the list fit-bag splits it into.
READ = {
    "n_actors": int, "beta0": float, "n_events": int, "horizon": float, "seed": int,
    "effects": json.loads, "k_values": lambda s: [int(k) for k in s.split(",")],
    "per_kind_count": int, "min_size": float, "gamma_max": float, "kinds": lambda s: s.split(","),
    "jobs": int, "waic_draws": int, "n_draws": int, "grid_size": int,
}


def bench_argvs():
    for name, wl in WORKLOADS.items():
        for step, argv in wl.commands("work", 3):
            yield pytest.param(argv, id=f"{name}-{step}")
        yield pytest.param(wl.fit_bag_args("work", 3, "work/serial", jobs=1), id=f"{name}-fit-bag-serial")


def expected_fields(argv):
    flags, values = argv[1::2], argv[2::2]
    assert len(flags) == len(values) and all(f.startswith("--") for f in flags), argv
    fields = {f[2:].replace("-", "_"): v for f, v in zip(flags, values)}
    return {key: READ.get(key, str)(value) for key, value in fields.items()}


@pytest.mark.parametrize("argv", bench_argvs())
def test_bench_argv_parses_to_its_fields(argv):
    cfg = _merge_config(build_parser().parse_args(argv))
    # JSON text tells 20 from 20.0, as the config echo does
    assert json.dumps(cfg, sort_keys=True) == json.dumps(expected_fields(argv), sort_keys=True)

