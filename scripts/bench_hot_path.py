#!/usr/bin/env python
"""Track the training hot path: aggregation-step time on the gradient arena.

Thin wrapper over ``python -m repro bench`` (see
:mod:`repro.perf.bench`): times S-SGD and every compressed aggregator's
step at world_size 4 on a VGG-style model over zero-copy arena slabs,
and writes the rows — including the fused-allocation counters, the
fusion buffer-size sweep, and the per-backend worker-mode comparison
(``--workers seq,process``: end-to-end ``train_step`` per method) — to
``BENCH_hotpath.json``.

Usage:
    python scripts/bench_hot_path.py [--world-size 4] [--base-width 32]
                                     [--workers seq,process]
                                     [--output BENCH_hotpath.json]
Exit code 0 on success.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["bench"] + sys.argv[1:]))
