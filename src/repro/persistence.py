"""Crash-safe checkpointing for incremental training state.

An incremental recommender is a *stateful production system*: between
time spans the operator must persist the model parameters, every user's
interest matrix (whose row count varies per user — the whole point of
IMSR), the creation tags, per-user attention weights, and whatever
*extra* state the strategy accumulates across spans (ADER's replay
pool, EWC's Fisher estimates — the strategy's ``extra_state()`` hook,
stored under ``extra/``).  This module serializes all of that to a
single ``.npz`` file and restores it into a freshly constructed
strategy.

Format v3 stores one archive member per *field*, not per user: every
user's interest rows are packed into one ``users/interests`` matrix (in
manifest ``users`` order), with ``users/rows`` holding the per-user row
counts that split it back apart on load; the other per-user fields
(``prev_interests``, ``created_span``, ``n_existing``, the NID
``expanded`` guard and SA attention weights) are packed the same way.
Members are *stored*, not deflated: float payloads barely compress, and
the per-member zlib, zip and ``.npy`` header cost of the old per-user
layout dominated every save.

The format keeps the guarantees a long-lived service needs:

* **atomic writes** — the archive is staged to a temp file, fsynced, and
  committed with ``os.replace``; a crash at any instant leaves either
  the old checkpoint or the new one, never a truncated hybrid;
* **a manifest** — per-array SHA-256 checksums plus run metadata (span
  index, strategy/model/config fingerprint, and the bit-generator state
  of every RNG the strategy owns, so a resumed run continues the exact
  random stream);
* **verification** — a whole-file SHA-256 trailer is appended after the
  zip archive (zip readers ignore bytes past the end-of-central-directory
  record, so ``np.load`` still opens the file directly), making *any*
  single flipped byte or truncation detectable; :func:`verify_checkpoint`
  additionally re-hashes every array against the manifest, and
  :func:`load_checkpoint` always verifies *before* mutating any state,
  so a corrupt file can never half-restore a strategy;
* **v1/v2 compatibility** — per-user v2 archives still verify and
  load, and archives written before the manifest existed (v1) still
  load too (zip CRCs are their only integrity check).

Example
-------
>>> save_checkpoint(strategy, "span3")              # lands at span3.npz
>>> fresh = make_strategy("IMSR", "ComiRec-DR", split, config)
>>> load_checkpoint(fresh, "span3")                 # ready for span 4
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from . import faults
from .incremental.strategy import IncrementalStrategy
from .models.base import UserState
from .nn import Parameter
from .obs import trace as obs
from .sanitize import capture as _capture
from .obs.log import get_logger

PathLike = Union[str, Path]

logger = get_logger(__name__)

_FORMAT_VERSION = 3

#: whole-file integrity trailer: b"\n" + marker + 64 hex chars + b"\n",
#: appended after the zip end-of-central-directory record
_TRAILER_MARKER = b"repro-checkpoint-sha256:"
_TRAILER_LEN = 1 + len(_TRAILER_MARKER) + 64 + 1

__all__ = [
    "CheckpointError",
    "CheckpointIOError",
    "save_checkpoint",
    "load_checkpoint",
    "verify_checkpoint",
    "checkpoint_info",
    "run_fingerprint",
    "atomic_write_bytes",
    "normalize_checkpoint_path",
]


class CheckpointError(ValueError):
    """A checkpoint is corrupt, truncated, or incompatible."""


class CheckpointIOError(CheckpointError, OSError):
    """A checkpoint could not be *read* due to an IO failure.

    Distinct from plain :class:`CheckpointError` (corruption — retrying
    cannot help) so retry logic such as the streaming pipeline's
    seeded backoff (:mod:`repro.stream`) can tell a transient fault
    (``except CheckpointIOError`` / ``except OSError``) from a poisoned
    file it must fall back from.
    """


def normalize_checkpoint_path(path: PathLike) -> Path:
    """Canonical on-disk location for a checkpoint path.

    Checkpoints are ``.npz`` archives, and ``np.savez``/``np.load``
    append ``.npz`` to a suffix-less name; normalizing once in both
    directions keeps ``save``/``load`` symmetric for paths like
    ``"span3"``.
    """
    p = Path(path)
    if p.suffix != ".npz":
        p = p.with_name(p.name + ".npz")
    return p


def atomic_write_bytes(data: bytes, path: PathLike, kind: str = "file") -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + replace).

    The staging file gets a unique name (``tempfile.mkstemp`` in the
    target directory), so concurrent writers to the same path never
    clobber each other's in-flight temp file, and cleanup only ever
    unlinks the file this call created.

    Fires the ``io-write`` fault probe before staging and ``io-replace``
    after the temp file is durable but before the commit — the two
    instants a crash-safety test needs to hit.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    faults.fire("io-write", path=str(path), kind=kind)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        faults.fire("io-replace", path=str(path), kind=kind)
        os.replace(tmp, path)
        _fsync_directory(path.parent)
    finally:
        if tmp.exists():
            tmp.unlink()


def _fsync_directory(directory: Path) -> None:
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # platform without directory fds — replace is still atomic
    try:
        os.fsync(dir_fd)
    except OSError:
        pass  # some filesystems reject directory fsync; not fatal
    finally:
        os.close(dir_fd)


def _array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def run_fingerprint(strategy: IncrementalStrategy) -> str:
    """Stable hash of everything that must match for a resume to be
    valid: strategy, model architecture, and the training config."""
    payload = {
        "strategy": strategy.name,
        "model_class": type(strategy.model).__name__,
        "model_family": strategy.model.family,
        "num_items": strategy.model.num_items,
        "dim": strategy.model.dim,
        "K0": strategy.model.K0,
        "config": {k: v for k, v in sorted(vars(strategy.config).items())},
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _packed(parts, empty: np.ndarray, axis: int = 0) -> np.ndarray:
    """Concatenate per-user arrays into one archive member.

    Zero-length parts are left out of the concatenation so they cannot
    promote its dtype (``create_missing`` builds float64 ``(0, d)``
    placeholders, which would otherwise widen a float32 run's state).
    """
    parts = [p for p in parts if p.shape[axis]]
    if not parts:
        return empty
    return np.concatenate(parts, axis=axis)


def _collect_arrays(strategy: IncrementalStrategy) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for name, param in strategy.model.named_parameters():
        arrays[f"param/{name}"] = param.data
    # one member per field, users packed row-wise in manifest ``users``
    # order (sorted: same state -> byte-identical archive).  The live
    # snapshot-style arrays are frozen at this capture boundary; live
    # trainables (param/, sa_weights) stay writable for the optimizer.
    states = [strategy.states[user] for user in sorted(strategy.states)]
    dim = strategy.model.dim
    interests = [_capture(s.interests) for s in states]
    prev_interests = [_capture(s.prev_interests) for s in states]
    created_span = [_capture(s.created_span) for s in states]
    arrays["users/rows"] = np.array([len(a) for a in interests],
                                    dtype=np.int64)
    arrays["users/prev_rows"] = np.array([len(a) for a in prev_interests],
                                         dtype=np.int64)
    arrays["users/interests"] = _packed(interests, np.zeros((0, dim)))
    arrays["users/prev_interests"] = _packed(prev_interests,
                                             np.zeros((0, dim)))
    arrays["users/created_span"] = _packed(created_span,
                                           np.zeros(0, dtype=np.int64))
    arrays["users/n_existing"] = np.array([s.n_existing for s in states],
                                          dtype=np.int64)
    # NID's once-per-span guard: replayed-but-inactive users carry it
    # across span boundaries, so a resume must restore it too
    arrays["users/expanded"] = np.array(
        [s.expanded_this_span for s in states], dtype=bool)
    # SA attention weights are (d_a, K) per user: packed column-wise, so
    # ``users/rows`` splits them too
    sa_weights = [s.sa_weights.data for s in states if s.sa_weights is not None]
    if sa_weights:
        arrays["users/sa_weights"] = _packed(
            sa_weights, np.zeros((len(sa_weights[0]), 0)), axis=1)
    # strategy-specific state beyond the base contract: replay pools,
    # Fisher estimates, diagnostic logs (see IncrementalStrategy.extra_state)
    for name, arr in sorted(strategy.extra_state().items()):
        arrays[f"extra/{name}"] = _capture(np.asarray(arr))
    return arrays


def save_checkpoint(strategy: IncrementalStrategy, path: PathLike,
                    span: Optional[int] = None) -> Path:
    """Atomically serialize model parameters, user states, strategy
    extra state, and RNG streams; returns the normalized path the
    archive landed at."""
    path = normalize_checkpoint_path(path)
    with obs.span("checkpoint.save", file=path.name, span_id=span):
        arrays = _collect_arrays(strategy)
        manifest = {
            "version": _FORMAT_VERSION,
            "strategy": strategy.name,
            "model_family": strategy.model.family,
            "users": sorted(strategy.states),
            "span": span,
            "fingerprint": run_fingerprint(strategy),
            "rng": {
                name: gen.bit_generator.state
                for name, gen in strategy.random_generators().items()
            },
            "arrays": {
                name: {
                    "sha256": _array_digest(arr),
                    "shape": list(arr.shape),
                    "dtype": str(arr.dtype),
                }
                for name, arr in arrays.items()
            },
        }
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        blob = buffer.getvalue()
        trailer = (b"\n" + _TRAILER_MARKER
                   + hashlib.sha256(blob).hexdigest().encode("ascii") + b"\n")
        atomic_write_bytes(blob + trailer, path, kind="checkpoint")
        obs.counter("checkpoint.saves")
        obs.gauge("checkpoint.bytes", len(blob) + len(trailer))
    return path


def _split_trailer(data: bytes):
    """(zip bytes, declared whole-file digest or None) for raw file bytes."""
    tail = data[-_TRAILER_LEN:]
    if (len(data) > _TRAILER_LEN and tail.startswith(b"\n" + _TRAILER_MARKER)
            and tail.endswith(b"\n")):
        digest = tail[1 + len(_TRAILER_MARKER):-1]
        try:
            digest_text = digest.decode("ascii")
            int(digest_text, 16)
        except (UnicodeDecodeError, ValueError):
            return data, None
        return data[:-_TRAILER_LEN], digest_text
    return data, None


# ---------------------------------------------------------------------- #
# reading / verification
# ---------------------------------------------------------------------- #
def _read_archive(path: Path, verify: bool = True):
    """Load (manifest, arrays) fully into memory, validating integrity.

    Returns the parsed manifest/meta dict and a ``{name: ndarray}`` map
    of archive members.  Every array is read eagerly so zip CRC checks
    run here, and (for v2 and v3) every SHA-256 is compared against the
    manifest — all *before* any caller mutates strategy state.  Raises
    :class:`CheckpointError` on any corruption, truncation, or malformed
    metadata.
    """
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        data = path.read_bytes()
    except OSError as err:
        raise CheckpointIOError(
            f"checkpoint {path} cannot be read: {err}") from err
    blob, declared_digest = _split_trailer(data)
    if verify and declared_digest is not None:
        actual = hashlib.sha256(blob).hexdigest()
        if actual != declared_digest:
            raise CheckpointError(
                f"checkpoint {path} fails its whole-file SHA-256 check — "
                f"the file is corrupt or truncated")
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
            names = list(archive.files)
            if "manifest" in names:
                meta = json.loads(bytes(archive["manifest"].tobytes()).decode("utf-8"))
            elif "meta" in names:  # format v1
                meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
            else:
                raise CheckpointError(
                    f"checkpoint {path} has no manifest/meta entry")
            arrays = {
                name: archive[name]
                for name in names
                if name not in ("manifest", "meta")
            }
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, EOFError, NotImplementedError,
            zipfile.BadZipFile, zlib.error) as exc:
        # the open-ended exception set zipfile/np.load raise on mangled
        # input; v2+ files never get here corrupt (whole-file hash above)
        raise CheckpointError(
            f"checkpoint {path} is corrupt or truncated: {exc}") from exc

    version = meta.get("version")
    if version not in (1, 2, _FORMAT_VERSION):
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in {path}")
    if version >= 2 and declared_digest is None:
        raise CheckpointError(
            f"checkpoint {path} declares format v{version} but its "
            f"whole-file integrity trailer is missing or mangled")
    if verify and version >= 2:
        declared = meta.get("arrays", {})
        if set(declared) != set(arrays):
            missing = sorted(set(declared) - set(arrays))
            extra = sorted(set(arrays) - set(declared))
            raise CheckpointError(
                f"checkpoint {path} array set disagrees with its manifest "
                f"(missing={missing[:5]}, undeclared={extra[:5]})")
        for name, entry in declared.items():
            arr = arrays[name]
            if list(arr.shape) != entry["shape"] or str(arr.dtype) != entry["dtype"]:
                raise CheckpointError(
                    f"checkpoint {path} array {name!r} has shape/dtype "
                    f"{arr.shape}/{arr.dtype}, manifest says "
                    f"{tuple(entry['shape'])}/{entry['dtype']}")
            if _array_digest(arr) != entry["sha256"]:
                raise CheckpointError(
                    f"checkpoint {path} array {name!r} fails its SHA-256 "
                    f"check — the file was corrupted after writing")
    return meta, arrays


def _user_view(meta: Dict[str, object], arrays: Dict[str, np.ndarray],
               path: Path) -> Dict[str, np.ndarray]:
    """The per-user ``user/<id>/<field>`` view of a checkpoint's arrays.

    v1/v2 archives already store one member per user per field.  A v3
    archive packs each field across users; it is split here by the
    cumulative ``users/rows`` / ``users/prev_rows`` counts (views, no
    copies), after checking every count against the packed lengths.
    Raises :class:`CheckpointError` on any disagreement, before the
    caller mutates anything.
    """
    if meta.get("version") != _FORMAT_VERSION:
        return arrays
    users = meta["users"]
    try:
        rows = arrays["users/rows"]
        prev_rows = arrays["users/prev_rows"]
        interests = arrays["users/interests"]
        prev_interests = arrays["users/prev_interests"]
        created_span = arrays["users/created_span"]
        n_existing = arrays["users/n_existing"]
        expanded = arrays["users/expanded"]
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint {path} lacks packed user member {exc}") from exc
    sa_weights = arrays.get("users/sa_weights")
    per_user = (rows, prev_rows, n_existing, expanded)
    if (any(a.shape != (len(users),) for a in per_user)
            or rows.dtype.kind != "i" or prev_rows.dtype.kind != "i"
            or (rows < 0).any() or (prev_rows < 0).any()):
        raise CheckpointError(
            f"checkpoint {path} per-user counts do not match its "
            f"{len(users)} user(s)")
    total, prev_total = int(rows.sum()), int(prev_rows.sum())
    lengths = [len(interests), len(created_span)]
    if sa_weights is not None:
        lengths.append(sa_weights.shape[1] if sa_weights.ndim == 2 else -1)
    if (any(n != total for n in lengths)
            or len(prev_interests) != prev_total):
        raise CheckpointError(
            f"checkpoint {path} row counts disagree with its packed user "
            f"members (rows sum {total}, prev_rows sum {prev_total})")

    view = {name: arr for name, arr in arrays.items()
            if not name.startswith("users/")}
    ends = np.cumsum(rows).tolist()
    prev_ends = np.cumsum(prev_rows).tolist()
    start = prev_start = 0
    for i, user in enumerate(users):
        end, prev_end = ends[i], prev_ends[i]
        view[f"user/{user}/interests"] = interests[start:end]
        view[f"user/{user}/prev_interests"] = prev_interests[prev_start:prev_end]
        view[f"user/{user}/created_span"] = created_span[start:end]
        view[f"user/{user}/n_existing"] = n_existing[i:i + 1]
        view[f"user/{user}/expanded"] = expanded[i:i + 1]
        if sa_weights is not None:
            view[f"user/{user}/sa_weights"] = sa_weights[:, start:end]
        start, prev_start = end, prev_end
    return view


def verify_checkpoint(path: PathLike) -> Dict[str, object]:
    """Fully validate a checkpoint's integrity; returns its manifest.

    For formats v2 and v3 every array is re-hashed against the
    manifest; any single flipped byte or truncation raises
    :class:`CheckpointError`, and a v3 archive's per-user row counts must
    match its packed members.  Format v1 archives only get the zip-level
    CRC check (every array is still read in full, so torn files are
    rejected).
    """
    path = normalize_checkpoint_path(path)
    meta, arrays = _read_archive(path, verify=True)
    _user_view(meta, arrays, path)
    return meta


def load_checkpoint(strategy: IncrementalStrategy, path: PathLike,
                    strict: bool = True,
                    create_missing: bool = False) -> Dict[str, object]:
    """Restore a checkpoint into ``strategy`` in place.

    The strategy must be built on the same model architecture and data
    split (same parameter shapes); user interest matrices may have any
    row count — they are restored verbatim.  Integrity and compatibility
    are fully validated *before* the first mutation, so a failed load
    leaves the strategy exactly as it was.

    ``strict`` (default) raises when the checkpoint contains users the
    strategy does not know; pass ``strict=False`` to skip them with a
    logged warning instead (e.g. loading into a truncated split), or
    ``create_missing=True`` to build their :class:`UserState` directly
    from the checkpoint arrays — the streaming resume path, where users
    were created mid-stream and exist in no split.

    Row-sparse model parameters (embedding tables) may hold *more* rows
    than the checkpoint: the checkpointed rows restore as a prefix and
    the extra rows are left untouched.  That is the mid-stream cold-start
    rollback case — rows grown after the checkpoint was written keep
    their current values (they are cold items; nothing older references
    them).  Any other shape mismatch still raises.

    Returns the checkpoint manifest.
    """
    path = normalize_checkpoint_path(path)
    with obs.span("checkpoint.load", file=path.name):
        meta, arrays = _read_archive(path, verify=True)
        arrays = _user_view(meta, arrays, path)
        obs.counter("checkpoint.loads")

    if meta.get("model_family") != strategy.model.family:
        raise CheckpointError(
            f"checkpoint is for a {meta.get('model_family')!r}-family "
            f"model, strategy has {strategy.model.family!r}")

    params = dict(strategy.model.named_parameters())
    ckpt_params = {k[len("param/"):]: v for k, v in arrays.items()
                   if k.startswith("param/")}
    missing = sorted(set(params) - set(ckpt_params))
    if missing:
        raise CheckpointError(
            f"checkpoint lacks model parameter(s) {missing[:5]}")
    for name, arr in ckpt_params.items():
        if name not in params:
            raise KeyError(f"checkpoint parameter {name!r} not in model")
        target = params[name].data
        if target.shape != arr.shape:
            row_grown = (getattr(params[name], "row_sparse", False)
                         and arr.ndim == target.ndim and target.ndim >= 1
                         and arr.shape[1:] == target.shape[1:]
                         and arr.shape[0] <= target.shape[0])
            if not row_grown:
                raise CheckpointError(
                    f"shape mismatch for parameter {name!r}: "
                    f"{params[name].data.shape} vs {arr.shape}")

    users = [int(u) for u in meta["users"]]
    unknown = [u for u in users if u not in strategy.states]
    if unknown and not create_missing:
        if strict:
            raise CheckpointError(
                f"checkpoint contains {len(unknown)} user(s) absent from "
                f"the strategy (first few: {unknown[:5]}); pass "
                f"strict=False to skip them")
        logger.warning(
            "load_checkpoint: skipping %d checkpoint user(s) absent from "
            "the strategy: %s%s", len(unknown), unknown[:10],
            "..." if len(unknown) > 10 else "")

    # -------- all validation passed: apply ---------------------------- #
    # extra strategy state first: a strategy that rejects it (unknown
    # keys, or a v1 archive missing a replay pool) must fail before any
    # base state is mutated
    extra = {k[len("extra/"):]: arrays[k]
             for k in arrays if k.startswith("extra/")}
    try:
        strategy.load_extra_state(extra)
    except CheckpointError:
        raise
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path} extra strategy state cannot be restored "
            f"into {type(strategy).__name__}: {exc}") from exc

    for name, arr in ckpt_params.items():
        target = params[name].data
        if target.shape != arr.shape:
            target[:arr.shape[0]] = arr  # repro: noqa[RA601] restore-in-place is the point; row-grown prefix validated above
        else:
            target[...] = arr  # repro: noqa[RA601] restore-in-place is the point; no tape is live during load

    for user in users:
        state = strategy.states.get(user)
        if state is None:
            if not create_missing:
                continue  # counted above; strict mode already raised
            state = UserState(
                user=user,
                interests=np.zeros((0, strategy.model.dim)),
                prev_interests=np.zeros((0, strategy.model.dim)),
                created_span=np.zeros(0, dtype=np.int64),
                n_existing=0,
            )
            strategy.states[user] = state
        state.interests = _capture(arrays[f"user/{user}/interests"].copy())
        state.prev_interests = _capture(
            arrays[f"user/{user}/prev_interests"].copy())
        state.created_span = _capture(arrays[f"user/{user}/created_span"].copy())
        state.n_existing = int(arrays[f"user/{user}/n_existing"][0])
        expanded_key = f"user/{user}/expanded"
        if expanded_key in arrays:  # absent from older archives
            state.expanded_this_span = bool(arrays[expanded_key][0])
        sa_key = f"user/{user}/sa_weights"
        if sa_key in arrays:
            state.sa_weights = Parameter(arrays[sa_key].copy())

    for name, rng_state in meta.get("rng", {}).items():
        gen = strategy.random_generators().get(name)
        if gen is not None:
            gen.bit_generator.state = rng_state

    return meta


def checkpoint_info(path: PathLike, verify: bool = False) -> Dict[str, object]:
    """Read a checkpoint's metadata; with ``verify``, re-hash every
    array against the manifest first.

    ``num_arrays`` counts archive members (manifest included), so a v3
    checkpoint reports one per field, not one per user per field.
    """
    path = normalize_checkpoint_path(path)
    meta, arrays = _read_archive(path, verify=verify)
    meta["num_arrays"] = len(arrays) + 1  # + the manifest entry itself
    return meta
