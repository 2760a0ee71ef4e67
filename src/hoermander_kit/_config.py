"""The one reader of values from outside the program: CLI flags, --config keys,
function-parameter objects and the JSON headers of field files.

An object's keys are checked against a schema per kind (UnknownConfigKey for
a key outside it, InvalidConfig for a missing one).  A value is read by a
converter that raises ValueError or TypeError when it does not read, which
:func:`read_value` turns into an InvalidConfig naming the key or flag.
"""

from __future__ import annotations

import json
import math
from functools import partial

from .errors import InvalidConfig, UnknownConfigKey


def check_keys(cfg: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    """UnknownConfigKey for a key outside ``required`` and ``optional``, InvalidConfig for a
    missing required one or a ``cfg`` that is not an object."""
    if not isinstance(cfg, dict):
        raise InvalidConfig(f"{where}: not an object")
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        raise UnknownConfigKey(f"{where}: unknown keys {unknown}; it reads "
                               f"{list(required + optional)}")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise InvalidConfig(f"{where}: missing keys {missing}")


def read_kind(cfg, where: str, kinds: dict) -> str:
    """The kind of a config object, once its keys match that kind's in ``kinds``: per kind,
    the keys beside "kind" that it must hold and those it may hold."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise InvalidConfig(f"{where} kind {kind!r} is not one of {list(kinds)}")
    required, optional = kinds[kind]
    check_keys(cfg, f"{kind} {where}", ("kind",) + required, optional)
    return kind


def read_value(where: str, convert, value):
    """``convert(value)``, or InvalidConfig naming ``where`` when the value does not convert."""
    try:
        return convert(value)
    except UnknownConfigKey as err:
        raise UnknownConfigKey(f"{where}: {err}") from err
    except (TypeError, ValueError, SyntaxError, OverflowError) as err:
        raise InvalidConfig(f"{where}: bad value {value!r} ({err})") from err


def json_object(text: str) -> dict:
    """``text`` read as a JSON object; JSONDecodeError is a ValueError."""
    value = json.loads(text)
    if not isinstance(value, dict):
        raise ValueError("not a JSON object")
    return value


def integer(value, least: float = -math.inf) -> int:
    """``value`` as an integer >= ``least``; neither 1.7 nor true reads as 1."""
    if isinstance(value, bool) or int(value) != float(value):
        raise ValueError("not an integer")
    if int(value) < least:
        raise ValueError(f"below {least}")
    return int(value)


def pow2(value, least: int = 2) -> int:
    """``value`` as an integer power of two >= ``least`` >= 2; 16.5 does not read as 16."""
    n = integer(value, max(least, 2))
    if n & (n - 1):
        raise ValueError("not a power of two")
    return n


def real(value, above: float = -math.inf) -> float:
    """``value`` as a finite float > ``above``; nan and inf are not."""
    if not above < float(value) < math.inf:
        raise ValueError(f"not a finite number above {above}")
    return float(value)


positive = partial(real, above=0.0)


def one_of(*choices):
    """A converter of a value to itself when it is one of ``choices``."""
    def read(value):
        if value not in choices:
            raise ValueError(f"not one of {list(choices)}")
        return value
    return read


def list_of(convert, least: int = 0):
    """A converter of a list (not a string) of at least ``least`` items to the tuple of
    ``convert`` of its items."""
    def read(values) -> tuple:
        if not isinstance(values, list):
            raise ValueError("not a list")
        out = tuple(convert(v) for v in values)
        if len(out) < least:
            raise ValueError(f"fewer than {least} items")
        return out
    return read
