"""Content digests of source files.

A cache whose entries are computed by code must key them on that code,
or an edit is served stale.  :func:`source_digest` is the one hash both
caches use: the harness result cache over the whole ``repro`` package
(:func:`repro.harness.cache.code_fingerprint`) and the audit cache over
the rule modules (:func:`repro.verify.catalog_version`).
"""

import hashlib
import os


def source_digest(root, paths):
    """SHA-256 hex digest of the files ``paths`` (relative to ``root``),
    in the given order.

    Each file contributes its relative path (with ``/`` separators) and
    its bytes, each length-prefixed, so renaming, moving or editing any
    file changes the digest, and two lists can never frame the same
    bytes.
    """
    digest = hashlib.sha256()
    for path in paths:
        with open(os.path.join(root, path), "rb") as handle:
            data = handle.read()
        name = path.replace(os.sep, "/").encode("utf-8")
        digest.update(len(name).to_bytes(8, "little") + name)
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    return digest.hexdigest()
