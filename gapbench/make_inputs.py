#!/usr/bin/env python3
"""Write one workload's input CSVs for one seed (run by run.py in a child
process, so the generator's memory is not charged to the benchmark).

    python3 gapbench/make_inputs.py train-n1000 1 .gapbench/inputs/train-n1000/seed1
"""

import sys
from pathlib import Path

sys.dont_write_bytecode = True
from run import import_gapcast  # noqa: E402

if __name__ == "__main__":
    import_gapcast()
    from workloads import WORKLOADS, write_inputs

    name, seed, out = sys.argv[1:]
    write_inputs(WORKLOADS[name].corridor, int(seed), Path(out))
