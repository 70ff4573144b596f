"""Whole-file writes: a reader of the target sees the old file or the new one, never part of either."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def replacing(path):
    """Yield a temporary path beside ``path`` to write; on success move it over ``path``.

    The temporary file is ``path`` + ".tmp", in the same directory, so the
    move is one os.replace. The directory, and any missing parent of it, is
    created first. If the write or the move raises, the temporary file is
    removed and ``path`` is left as it was.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
