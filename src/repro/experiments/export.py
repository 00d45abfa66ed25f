"""Machine-readable export of the full evaluation.

``collect_all`` gathers every experiment's structured results into one
JSON-serializable dict, so downstream users can plot the figures with
their own tooling instead of parsing the text renderings. Its ``claims``
list holds one row per :data:`repro.experiments.claims.CLAIMS` entry: the
paper's number, the bounds, the reproduced value, the role and whether it
holds, the same verdicts the report's claim table prints.
Exposed via ``python -m repro evaluate --json out.json``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict


def _plain(value: Any) -> Any:
    """Recursively convert dataclasses / numpy scalars to JSON-safe types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    return value


def collect_all(fast: bool = True) -> Dict[str, Any]:
    """Run every experiment driver and return structured results.

    Args:
        fast: skip the convergence figures (minutes of numpy training).
    """
    import repro.experiments as E
    from repro.experiments import claims

    out: Dict[str, Any] = {
        "claims": claims.evaluate(),
        "table1": _plain(E.run_table1()),
        "table2": _plain(E.run_table2()),
        "fig2": _plain(E.run_fig2()),
        "fig3": _plain(E.run_fig3()),
        "fig5": [
            {
                "model": item.model,
                "rank": item.rank,
                "uncompressed_sizes": list(item.uncompressed_sizes),
                "compressed_sizes": list(item.compressed_sizes),
            }
            for item in E.run_fig5()
        ],
        "table3": _plain(E.run_table3()),
        "fig8": _plain(E.run_fig8()),
        "fig9": _plain(E.run_fig9()),
        "fig10": _plain(E.run_fig10()),
        "fig11a": _plain(E.run_fig11a()),
        "fig11b": _plain(E.run_fig11b()),
        "fig12": _plain(E.run_fig12()),
        "fig13": _plain(E.run_fig13()),
        "microbench": {
            "contention": _plain(E.run_contention_microbench()),
            "fusion": _plain(E.run_fusion_microbench()),
        },
    }
    if not fast:
        out["fig6"] = {
            method: _plain(history) for method, history in E.run_fig6().items()
        }
        out["fig7"] = {
            method: _plain(history) for method, history in E.run_fig7().items()
        }
    return out


def export_json(path: str, fast: bool = True) -> Dict[str, Any]:
    """Collect everything and write it to ``path``; returns the dict."""
    data = collect_all(fast=fast)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1)
    return data
