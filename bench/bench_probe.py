"""Set-up probe: one fresh process that imports the harness and loads what a
workload loads before its first timed call, then prints ``ready``.

Usage: ``python3 bench/bench_probe.py [RUN_CONFIG]``. With a run config it
parses the config and loads every dataset it names; without one it loads the
benchmark registry (the report workload reads no config).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hicot import cli  # noqa: E402
from hicot.datasets import load_dataset, load_registry  # noqa: E402

if __name__ == "__main__":
    if len(sys.argv) > 1:
        config = cli.load_run_config(sys.argv[1])
        for name, (path, spec) in config.benchmarks.items():
            load_dataset(path, name, spec.field_map, spec.kind)
    else:
        load_registry()
    print("ready", flush=True)
