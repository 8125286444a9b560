"""The corrupt-input boundary shared by the from-scratch decoders."""

from __future__ import annotations

import functools
import struct
import zlib

# what a truncated or bit-flipped stream raises from deep in a parse
_PARSE_ERRORS = (IndexError, KeyError, OverflowError, struct.error, zlib.error)


def corrupt_boundary(what: str = "stream"):
    """Decorator for a decode entry point (fuzz-verified): a raw
    IndexError/KeyError/OverflowError/struct.error/zlib.error from the
    parse surfaces as the codec's named ValueError, "corrupt <what>: ...".
    """

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(data, *a, **kw):
            try:
                return fn(data, *a, **kw)
            except _PARSE_ERRORS as e:
                raise ValueError(f"corrupt {what}: {type(e).__name__} during parse") from e

        return wrapper

    return wrap
