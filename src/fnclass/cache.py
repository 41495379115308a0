"""Cache directory layout and report persistence.

Layout (under the directory from --cache-dir, the FNCLASS_CACHE environment
variable, or ~/.cache/fnclass):

    classify_<relation>_k<k>n<n>_v<version>.json   sealed classification reports

Every report is written to a temporary name and then renamed over its final
name, so an interrupted write never leaves a torn file behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

CODE_VERSION = 1


def cache_dir(explicit: str | None = None) -> Path:
    # FNCLASS_CACHE deliberately outranks the flag, so operators can
    # redirect every run of a deployment at once
    path = os.environ.get("FNCLASS_CACHE") or explicit \
        or os.path.join(os.path.expanduser("~"), ".cache", "fnclass")
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def report_path(base: Path, relation: str, k: int, n: int) -> Path:
    return base / f"classify_{relation}_k{k}n{n}_v{CODE_VERSION}.json"


def save_json(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    tmp.replace(path)


def load_json(path: Path) -> dict | None:
    """The JSON object stored at `path`, or None when the file is absent,
    unreadable, torn or holds anything but an object (callers recompute)."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):  # ValueError covers bad JSON and bad UTF-8
        return None
    return payload if isinstance(payload, dict) else None

