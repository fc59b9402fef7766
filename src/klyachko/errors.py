"""Exception types shared across the package, and strict JSON readers."""


class KlyachkoError(Exception):
    """Base class for all package errors."""


class InputError(KlyachkoError):
    """Invalid fan, ideal, degree or file input."""


class SearchBoxError(KlyachkoError):
    """A reconstruction search box was too small to be trusted."""


class InfiniteRegionError(KlyachkoError):
    """Point enumeration was asked for an infinite lattice region."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def json_int(value, what):
    """An integer read from JSON; bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def json_object(pairs):
    """``object_pairs_hook`` for ``json.load``: a dict, refusing repeated keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj
