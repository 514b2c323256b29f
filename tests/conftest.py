"""Shared test helpers."""

import json
import math
from pathlib import Path

import numpy as np
import pytest


def _rewrite_checkpoint(src, dst, edit=None, raw=None, arrays=None, data=None):
    """Copy checkpoint ``src`` to ``dst`` with its header line or array bytes changed.

    ``arrays`` maps a name to a replacement array (its header shape
    follows) or to None (its entry and bytes are dropped); the other
    arrays keep their bytes.  ``edit(header)`` then changes the parsed
    header in place, and ``raw`` is put in place of each JSON string
    ``"@"`` in the re-dumped header, for tokens ``json.dumps`` will not
    write.  ``data`` replaces the whole array section.
    """
    line, _, rest = Path(src).read_bytes().partition(b"\n")
    header = json.loads(line)
    if arrays:
        entries, chunks, at = [], [], 0
        for name, shape in header["arrays"]:
            chunk, at = rest[at : at + 8 * math.prod(shape)], at + 8 * math.prod(shape)
            if name in arrays:
                if arrays[name] is None:
                    continue
                new = np.ascontiguousarray(arrays[name], dtype="<f8")
                shape, chunk = list(new.shape), new.tobytes()
            entries.append([name, shape])
            chunks.append(chunk)
        header["arrays"], rest = entries, b"".join(chunks)
    if edit is not None:
        edit(header)
    text = json.dumps(header)
    if raw is not None:
        text = text.replace('"@"', raw)
    Path(dst).write_bytes(text.encode("ascii") + b"\n" + (rest if data is None else data))


@pytest.fixture
def rewrite_checkpoint():
    return _rewrite_checkpoint
