"""Crash-safe file writes.

Each write goes to a temp file beside its target and is renamed over the
target once complete, so the target path holds the old file or the whole
new one, never part of one. A write that fails leaves no temp file behind,
and an OSError that names no file (a full disk fails the write, not the
open) is stamped with the target path.
(The data is not fsynced: this guards against a failed or interrupted
process, not against power loss.)
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path: str | Path):
    """A binary file handle whose contents replace `path` on a clean exit."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError) and e.filename is None:
            e.filename = str(path)
        raise


def write_bytes(path: str | Path, data: bytes) -> None:
    with replacing(path) as fh:
        fh.write(data)
