"""Content-addressed artifact cache.

Entries are JSON files keyed by the sha256 of the canonical form of the
semantic inputs and the cache format; each file stores the payload hash
so corrupted entries are detected, discarded with a warning, and
recomputed.  Entries are written through a unique temporary file and
renamed into place, so concurrent writers never share a partial file.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ENV_VAR = "SEGRECALC_CACHE_DIR"

# bump when the payload layout or the meaning of a key changes, so that
# entries written by older code are never read back
CACHE_FORMAT = 2


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(obj) -> str:
    keyed = {"cache_format": CACHE_FORMAT, "key": obj}
    return hashlib.sha256(canonical_json(keyed).encode()).hexdigest()


def cache_dir() -> Path:
    root = os.environ.get(ENV_VAR)
    if root:
        return Path(root)
    return Path.home() / ".cache" / "segrecalc"


def cache(key_obj, producer, warn=None) -> dict:
    """Return the cached payload for the key, producing it on a miss.

    `producer` is a zero-argument callable returning a JSON-able dict.
    """
    warn = warn or (lambda msg: print(msg, file=sys.stderr))
    key = content_key(key_obj)
    path = cache_dir() / f"{key}.json"
    if path.exists():
        try:
            stored = json.loads(path.read_text())
            payload_text = canonical_json(stored["payload"])
            if hashlib.sha256(payload_text.encode()).hexdigest() == stored["sha256"]:
                return stored["payload"]
            warn(f"cache entry {key[:12]} failed its integrity check; recomputing")
        except (json.JSONDecodeError, KeyError, OSError):
            warn(f"cache entry {key[:12]} is corrupted; recomputing")
    payload = producer()
    payload_text = canonical_json(payload)
    record = {
        "key": key,
        "sha256": hashlib.sha256(payload_text.encode()).hexdigest(),
        "payload": payload,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{key}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(record, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return payload
