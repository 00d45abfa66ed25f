"""Path and thread pinning for the harness self-tests.

Run with ``python -m pytest perfbench/tests -q`` from the repo root; these
are not part of the tier-1 ``testpaths``.
"""

import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent

for _path in (PERFBENCH, PERFBENCH.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import results  # noqa: E402

# Same pins the children get, set before numpy is first imported.
os.environ.update(results.PINNED_ENV)
