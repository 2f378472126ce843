"""Set-up probe: a fresh interpreter gets one input ready for its first trial.

    python3 bench/setup_probe.py <input> <seed>

Imports msdoa from the checkout's ``src/``, loads and validates the
input's config, resolves the experiment, then prints ``ready``. The
parent times it from process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msdoa import resolve_experiment  # noqa: E402
from workloads import INPUTS  # noqa: E402

resolve_experiment(INPUTS[sys.argv[1]].load(int(sys.argv[2])))
print("ready", flush=True)
