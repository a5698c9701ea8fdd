"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py

Writes ``references.json`` next to this file for the full and the smoke
sizes: fit profiles and replay outcomes at seed 0 (on generic points they
do not depend on the seed), and the outcome of every retrieval trial in the
trial-seed pool.  Rerun it only when a change to mavik is meant to change
these outputs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    sys.path.insert(0, str(HERE))
    from run import THREAD_PINS, import_mavik

    os.environ.update(THREAD_PINS)
    import_mavik()
    import workloads

    refs = {}
    out_root = HERE.parent / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as workdir:
        for sizes in (workloads.SMOKE, workloads.FULL):
            for name in workloads.WORKLOADS:
                seeds = [0]
                if name == "retrieval":
                    seeds = range(-(-sizes.trial_pool // sizes.trials_per_case))
                for seed in seeds:
                    for op in workloads.build(name, seed, sizes, workdir):
                        if op.key not in refs:
                            refs[op.key] = op.record(op.call())
                print(f"recorded {name}", file=sys.stderr)
    entries = (f"{json.dumps(k)}: {json.dumps(refs[k])}" for k in sorted(refs))
    workloads.REFERENCES.write_text("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    main()
