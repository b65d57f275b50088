"""The ASCII bytes of an amplitude list, ``[re, im], [re, im], ...``, from its floats.

This module imports the standard library only, so that ``core._write_pairs``
can run it as a script in a helper interpreter started with ``-I -S``::

    python -I -S _pairtext.py CHUNK < float64-bytes > text

The helper reads the native float64 re, im, re, im, ... of one part of a
register from stdin, formats them ``CHUNK`` amplitudes at a time and writes
one line with the length of the text in bytes, then the text.  It formats
the whole part before it writes: the parent reads a helper only once its own
part is formatted, so writing as it went would stall on a full pipe.  A
helper that fails has written a prefix of the text at most, and the length
line tells the parent how much is missing.
"""

from __future__ import annotations

import sys


def pair_text(floats, chunk: int):
    """Yield the text of the pairs of ``floats``, a flat re, im sequence, as bytes, piece by piece.

    ``floats`` is a one-dimensional float64 ``memoryview``.  Each piece is
    ``chunk`` amplitudes formatted by one bytes ``%`` over their floats, or
    the ``b", "`` between two pieces.  ``%a`` is ``ascii()``, which for a
    float is ``float.__repr__``, the text ``json`` writes for a finite
    float, so the joined pieces are the ``json.dumps`` text of the list
    without its outer brackets.
    """
    step = 2 * chunk
    for start in range(0, len(floats), step):
        if start:
            yield b", "
        values = floats[start:start + step].tolist()
        yield b", ".join([b"[%a, %a]"] * (len(values) // 2)) % tuple(values)


def _main(chunk: str) -> None:
    floats = memoryview(sys.stdin.buffer.read()).cast("d")
    pieces = list(pair_text(floats, int(chunk)))
    out = sys.stdout.buffer
    out.write(b"%d\n" % sum(map(len, pieces)))
    out.writelines(pieces)
    out.flush()


if __name__ == "__main__":
    _main(*sys.argv[1:])
