"""Checkpointing: named parameter state plus a crash-safe container format.

Two layers live here. The *state* layer maps a model to named arrays:
:func:`named_parameters` recovers a stable dotted module path for every
parameter (``conv0.linear.weight``, ``classifier.bias``, GIN's ``eps``)
by scanning each module's attributes in construction order — the same
order :meth:`Module.parameters` iterates — and :func:`state_dict` keys
each array by ``path:shape`` (e.g. ``conv0.linear.weight:8x16``), so a
checkpoint can never silently load into a different architecture that
happens to flatten to the same positional list.

The *container* layer (:func:`write_checkpoint` / :func:`read_checkpoint`)
wraps an ``.npz`` body with a CRC32 integrity footer and writes it
atomically (tmp file + ``fsync`` + ``os.replace``), so a crash mid-write
can never leave a truncated file that later half-loads: a torn or
bit-flipped checkpoint fails fast with :class:`CheckpointError`. A JSON
``meta`` dictionary rides inside the body (config fingerprint, optimizer
step count, RNG state, epoch cursor — whatever the caller needs to resume
bit-for-bit; :meth:`Engine.save_checkpoint` is the full-state writer).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import asdict, fields, is_dataclass
from io import BytesIO
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..models import Module
from ..sparse import ops

__all__ = [
    "CheckpointError",
    "named_parameters",
    "config_fingerprint",
    "check_fingerprint",
    "check_width",
    "state_dict",
    "load_state_dict",
    "write_checkpoint",
    "read_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
]


class CheckpointError(RuntimeError):
    """A checkpoint is corrupt, truncated, or from a different model."""


#: Container footer: magic + little-endian (body length, CRC32 of body).
_MAGIC = b"RPCK"
_FOOTER = struct.Struct("<4sQI")

#: Key reserved for the JSON metadata entry inside the npz body.
_META_KEY = "__meta__"


# ----------------------------------------------------------------------
# Named parameter state.
# ----------------------------------------------------------------------

def named_parameters(model: Module) -> List[Tuple[str, object]]:
    """``(dotted path, parameter)`` pairs in :meth:`Module.parameters` order.

    Attribute names are recovered by identity: each module's ``vars()``
    (insertion order = construction order) maps parameter and child-module
    objects back to the attribute they were assigned to. Parameters or
    children never bound to a public attribute fall back to positional
    names (``param<i>`` / ``module<i>``), keeping the scheme total.
    """
    pairs: List[Tuple[str, object]] = []
    seen: Dict[str, int] = {}

    def unique(name: str) -> str:
        count = seen.get(name, 0)
        seen[name] = count + 1
        return name if count == 0 else f"{name}~{count}"

    def walk(module: Module, prefix: str) -> None:
        names = {}
        for attr, value in vars(module).items():
            if not attr.startswith("_"):
                names[id(value)] = attr
        for index, param in enumerate(module._parameters):
            name = names.get(id(param), f"param{index}")
            pairs.append((unique(f"{prefix}{name}"), param))
        for index, child in enumerate(module._modules):
            name = names.get(id(child), f"module{index}")
            walk(child, f"{prefix}{name}.")

    walk(model, "")
    return pairs


def _shape_tag(shape: Tuple[int, ...]) -> str:
    return "x".join(str(dim) for dim in shape) if shape else "scalar"


def _split_key(key: str) -> Tuple[str, str]:
    """``path:shape`` → ``(path, shape_tag)`` (no-suffix keys pass through)."""
    path, _, tag = key.rpartition(":")
    if not path:
        return key, ""
    return path, tag


def config_fingerprint(config: object) -> str:
    """Stable digest of a model's architecture hyperparameters.

    Dataclass configs (``GNNConfig``) hash their sorted field dict; other
    objects hash their ``repr`` — good enough to reject a checkpoint
    written for a different architecture with a clear message instead of
    a silent mis-load. Fields marked ``execution_route`` (``GNNConfig``'s
    ``use_cbsr_kernels`` / ``use_workspace``: the same function computed
    another way) hash at their defaults, so either route loads the other's.
    """
    if is_dataclass(config) and not isinstance(config, type):
        values = asdict(config)
        for spec in fields(config):
            if spec.metadata.get("execution_route"):
                values[spec.name] = spec.default
        payload = {"class": type(config).__name__, "fields": values}
        text = json.dumps(payload, sort_keys=True, default=repr)
    else:
        text = f"{type(config).__name__}:{config!r}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_fingerprint(path, meta: dict, model: object, action: str) -> None:
    """Refuse to ``action`` a checkpoint written for another architecture.

    Raises :class:`CheckpointError` when ``meta`` carries a config
    fingerprint that differs from ``model.config``'s; files or models
    without one pass.
    """
    config = getattr(model, "config", None)
    expected = meta.get("fingerprint")
    if expected is None or config is None:
        return
    actual = config_fingerprint(config)
    if actual != expected:
        raise CheckpointError(
            f"{path} was written for a different model configuration "
            f"(fingerprint {expected}, this model is {actual}); "
            f"refusing to {action}"
        )


def check_width(path, meta: dict, action: str) -> None:
    """Refuse to ``action`` a checkpoint written at another float width.

    :func:`write_checkpoint` records the width under ``"float"``; files
    from before it did are float64. Serving never calls this — weights
    cross in through :func:`load_state_dict`'s cast — but a resume promises
    bit-equal continuation, which no cast of the Adam moments can keep.
    """
    written = meta.get("float", "float64")
    current = np.dtype(ops.FLOAT_DTYPE).name
    if written != current:
        raise CheckpointError(
            f"{path} was written at {written}, this program computes in "
            f"{current}; refusing to {action}"
        )


def state_dict(model: Module) -> dict:
    """Parameter arrays keyed by ``module.path:shape``.

    The dotted path pins the architecture position and the shape tag pins
    the geometry, so loading a same-size checkpoint from a *different*
    architecture fails loudly instead of silently scrambling weights.
    """
    return {
        f"{name}:{_shape_tag(param.data.shape)}": param.data.copy()
        for name, param in named_parameters(model)
    }


def load_state_dict(model: Module, state: dict) -> None:
    """Load arrays produced by :func:`state_dict` into ``model`` in place.

    Mismatched architectures and shapes are rejected with messages naming
    the offending parameter. A float crossing in from outside: arrays
    written at another width are cast to the model's, once, here.
    """
    named = named_parameters(model)
    expected = {
        f"{name}:{_shape_tag(param.data.shape)}": param
        for name, param in named
    }
    if set(state) != set(expected):
        state_paths = dict(_split_key(key) for key in state)
        model_paths = dict(_split_key(key) for key in expected)
        for path in sorted(set(state_paths) & set(model_paths)):
            if state_paths[path] != model_paths[path]:
                raise ValueError(
                    f"shape mismatch for {path}: checkpoint has "
                    f"{state_paths[path]}, model needs {model_paths[path]}"
                )
        missing = sorted(set(model_paths) - set(state_paths))
        extra = sorted(set(state_paths) - set(model_paths))
        raise ValueError(
            "state dict does not match the model architecture: "
            f"missing {missing or 'nothing'}, unexpected {extra or 'nothing'}"
        )
    for key, param in expected.items():
        value = np.asarray(state[key])
        if value.shape != param.data.shape:
            raise ValueError(
                f"{key}: shape {value.shape} does not match "
                f"{param.data.shape}"
            )
        param.data[...] = value


# ----------------------------------------------------------------------
# Crash-safe container: npz body + CRC32 footer, written atomically.
# ----------------------------------------------------------------------

def write_checkpoint(path: Union[str, Path], arrays: Dict[str, np.ndarray],
                     meta: Optional[dict] = None) -> None:
    """Write ``arrays`` (+ JSON ``meta``) as one atomic, CRC-guarded file.

    The body is a standard ``.npz`` archive; the 16-byte footer carries a
    magic tag, the body length and the body's CRC32. The bytes land in a
    temporary sibling first and are ``fsync``ed before an ``os.replace``
    publishes them, so readers only ever observe the old file or the
    complete new one — never a torn write.
    """
    path = Path(path)
    if _META_KEY in arrays:
        raise ValueError(f"{_META_KEY!r} is reserved for checkpoint metadata")
    body_io = BytesIO()
    payload = dict(arrays)
    meta = {"float": np.dtype(ops.FLOAT_DTYPE).name, **(meta or {})}
    payload[_META_KEY] = np.array(json.dumps(meta))
    np.savez(body_io, **payload)
    body = body_io.getvalue()
    footer = _FOOTER.pack(_MAGIC, len(body), zlib.crc32(body))
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(body)
            handle.write(footer)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_checkpoint(path: Union[str, Path]
                    ) -> Tuple[Dict[str, np.ndarray], dict]:
    """Read a :func:`write_checkpoint` file; verify length and CRC first.

    Raises :class:`CheckpointError` on truncation, bit rot, or a file
    that was never a checkpoint — always *before* any array is handed to
    the caller.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _FOOTER.size:
        raise CheckpointError(
            f"{path} is too short to be a checkpoint ({len(data)} bytes); "
            "the write was interrupted or the file is not a checkpoint"
        )
    magic, length, crc = _FOOTER.unpack(data[-_FOOTER.size:])
    if magic != _MAGIC:
        raise CheckpointError(
            f"{path} has no checkpoint footer; the file is truncated, "
            "partially written, or not a repro checkpoint"
        )
    body = data[:-_FOOTER.size]
    if len(body) != length:
        raise CheckpointError(
            f"{path} is truncated: footer records {length} body bytes "
            f"but {len(body)} are present"
        )
    if zlib.crc32(body) != crc:
        raise CheckpointError(
            f"{path} failed its CRC32 integrity check; the file is corrupt"
        )
    with np.load(BytesIO(body), allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files
                  if key != _META_KEY}
        if _META_KEY not in archive.files:
            raise CheckpointError(f"{path} carries no checkpoint metadata")
        meta = json.loads(str(archive[_META_KEY]))
    return arrays, meta


def latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """The newest ``checkpoint-<epoch>.ckpt`` in ``directory``, or ``None``.

    "Newest" is by the epoch number encoded in the filename (the writer's
    atomic rename makes mtimes unreliable across filesystems), which is
    exactly the resume point ``--resume latest`` wants.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best: Optional[Tuple[int, Path]] = None
    for path in directory.glob("checkpoint-*.ckpt"):
        stem = path.stem[len("checkpoint-"):]
        try:
            epoch = int(stem)
        except ValueError:
            continue
        if best is None or epoch > best[0]:
            best = (epoch, path)
    return None if best is None else best[1]


# ----------------------------------------------------------------------
# Params-only convenience API (kept; now atomic + integrity-checked).
# ----------------------------------------------------------------------

def save_checkpoint(model: Module, path: Union[str, Path]) -> None:
    """Write the model's parameters (named keys, CRC-guarded, atomic)."""
    meta = {"kind": "params"}
    config = getattr(model, "config", None)
    if config is not None:
        meta["fingerprint"] = config_fingerprint(config)
    write_checkpoint(path, state_dict(model), meta)


def load_checkpoint(model: Module, path: Union[str, Path]) -> None:
    """Restore parameters written by :func:`save_checkpoint`.

    A file without the container footer is rejected
    (:class:`CheckpointError`); for checkpoints carrying a config
    fingerprint, a model with a different architecture fingerprint is
    rejected before any array is touched.
    """
    path = Path(path)
    arrays, meta = read_checkpoint(path)
    check_fingerprint(path, meta, model, "load mismatched weights")
    load_state_dict(model, arrays)
