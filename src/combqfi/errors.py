"""Exception types shared across the package, and the typed reader of JSON
config values that raises ConfigError."""

import math
import numbers


class LabelNotFoundError(KeyError):
    """A subsystem label is not present in the layout."""


class DimensionMismatchError(ValueError):
    """Operand shapes are inconsistent with the declared layout."""


class InvalidChannelError(ValueError):
    """Kraus operators do not describe a trace-preserving channel."""


class RankInstabilityError(RuntimeError):
    """The operator family changes rank at the working point."""


class CombValidationError(ValueError):
    """An operator fails the multi-step process constraints."""


class SynthesisFailureError(RuntimeError):
    """Strategy recovery did not reach the certified optimum."""


class SolverFailureError(RuntimeError):
    """The SDP solver did not return an optimal certificate."""


class OracleFailureError(ValueError):
    """The state-QFI oracle cannot score its input: the state is not a
    normalized PSD family, or the outcome probabilities are not."""


class DivergentFisherError(OracleFailureError):
    """An outcome probability vanishes while its derivative does not."""


class ConfigError(ValueError):
    """A run configuration is malformed or out of supported range."""


_JSON_TYPES = {
    "integer": numbers.Integral,
    "number": numbers.Real,
    "boolean": bool,
    "string": str,
    "array": list,
    "object": dict,
}
_REQUIRED = object()


def checked(value, kind: str, name: str):
    """``value`` itself if it has the JSON type ``kind``, else ConfigError.
    Nothing is converted, and true/false is never a number."""
    ok = isinstance(value, _JSON_TYPES[kind]) and isinstance(value, bool) == (kind == "boolean")
    if not ok or (kind == "number" and not math.isfinite(value)):
        raise ConfigError(f"{name} must be a JSON {kind}, not {value!r}")
    return value


def config_value(doc: dict, key: str, kind: str, default=_REQUIRED, what: str = "config"):
    """``doc[key]`` checked to have the JSON type ``kind``. An absent key reads
    as ``default``, and so does null where the default is None (an optional
    section); a key without a default is required."""
    value = doc.get(key)
    if value is None and (key not in doc or default is None):
        if default is _REQUIRED:
            raise ConfigError(f"missing {what} key {key!r}")
        return default
    return checked(value, kind, f"{what} key {key!r}")
