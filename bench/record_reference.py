"""Record the reference output digests that the benchmark checks against.

    python3 bench/record_reference.py

Runs every input at every pool seed serially and writes
``reference.json``. Re-record only when the program's outputs are meant
to change; a change that keeps outputs byte-identical must pass against
the existing file.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import INPUTS, OUT_DIR, POOL_SIZE, REFERENCE_PATH, execute, pool_seed, summarize  # noqa: E402


def main():
    OUT_DIR.mkdir(exist_ok=True)
    reference = {}
    for name, inp in INPUTS.items():
        digests = []
        for index in range(POOL_SIZE):
            cfg = inp.load(pool_seed(index))
            digests.append(summarize(inp, cfg, execute(inp, cfg, 1), OUT_DIR).digest)
        reference[name] = {"input": inp.describe(), "digests": digests}
        print(f"{name}: {POOL_SIZE} digests", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
