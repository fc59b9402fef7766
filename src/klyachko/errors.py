"""Exception types shared across the package, and strict JSON readers."""

import json


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


def read_json(path):
    """The JSON value in a UTF-8 file, with objects read by ``json_object``.

    A file that cannot be opened, is not UTF-8, is not JSON or nests too
    deeply for the decoder is an InputError naming the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=json_object)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers both undecodable bytes and malformed JSON
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
