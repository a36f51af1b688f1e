"""Exception types shared across the package, the one scalar check and
the one JSON-object reader.

Every scalar from outside (a constructor argument, a JSON field, a flag)
passes through :func:`checked`, and every JSON file through
:func:`read_json_object`. Both raise the caller's own error class naming
the field or file, so a malformed file or flag ends in one ``error:``
line from the command line instead of a traceback.
"""

import json
import math
from pathlib import Path


class MicrotrafficError(Exception):
    """Base class for errors raised by this package."""


class InputDomainError(MicrotrafficError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class SingularGapError(InputDomainError):
    """A following gap is zero or negative where a positive gap is required."""


class DegenerateSeriesError(MicrotrafficError, ValueError):
    """A series has no variance, so the requested statistic is undefined."""


class ConfigurationError(MicrotrafficError):
    """Required configuration is missing or internally inconsistent."""


class SchemaError(MicrotrafficError, ValueError):
    """A file does not conform to its declared schema."""


class NetworkError(SchemaError):
    """A road-network definition is invalid (dangling refs, degenerate geometry)."""


class GenerationError(MicrotrafficError, RuntimeError):
    """Random generation could not satisfy its constraints."""


class EnvUsageError(MicrotrafficError, RuntimeError):
    """The environment API was called out of order."""


class PolicyProtocolError(MicrotrafficError, RuntimeError):
    """An external policy process broke the line protocol."""


def checked(kind, value, name: str, error=InputDomainError, low=None,
            strict: bool = False, finite: bool = True):
    """``value`` converted by ``kind``, else ``error`` naming ``name``.

    ``kind`` is ``float`` or ``int``. ``int`` accepts a float only when it
    is whole, so ``1.5`` is not silently cut to ``1``. A float must be
    finite unless ``finite`` is false. With ``low`` given the value must
    be ``>= low``, or ``> low`` when ``strict``. The message is built
    only on failure.
    """
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None or (kind is int and isinstance(value, float) and x != value):
        what = "an integer" if kind is int else "a number"
        raise error(f"{name} must be {what}, got {value!r}")
    finite = finite and kind is float
    if ((finite and not math.isfinite(x))
            or (low is not None and not (x > low if strict else x >= low))):
        need = ["finite"] if finite else []
        if low is not None:
            need.append(f"{'>' if strict else '>='} {low:g}")
        raise error(f"{name} must be {' and '.join(need)}, got {x!r}")
    return x


def read_json_object(path, error, expected: str) -> dict:
    """The JSON object in the file at ``path``, else ``error``.

    A file that does not decode, as UTF-8 or as JSON, raises "<path>: not
    valid JSON: ..." and one holding anything but an object "<path>:
    <expected>", with ``path`` shown as given. An unreadable file raises
    its ``OSError``.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise error(f"{path}: {expected}")
    return payload
