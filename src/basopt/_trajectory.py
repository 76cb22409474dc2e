"""Trajectory CSV text, and the helper process that writes a campaign's
CSVs beside it.

This module imports only ``os``, ``struct`` and ``sys``, so that
``python -I -S <this file> DIR NAME`` runs it without numpy or
site-packages, as a campaign's helper. It reads its standard input, which
the campaign writes, and acts on nothing else. First comes ``names``'s
message, a count of ranges and their bounds: it creates ``DIR/NAME.format(i)``
for each ``i`` in every range, in order, empty. ``O_CREAT`` alone neither
truncates nor fails on a name that exists, and nothing is written, so a
file the campaign has written stays as it is. Then come frames until the
end of its input: a ``FRAME`` header ``(trial, rows, width)`` and
``rows * width`` native float64 values, a trial's history rows. It writes
each frame's CSV, ``DIR/NAME.format(trial)``, with ``write_csv``, which
also writes the campaign's own CSVs. An input that ends before the message
ends the helper at once, with nothing done.
"""

import os
import struct
import sys

CSV_VALUES = 1 << 16  # floats formatted per write, and read per pipe read
FRAME = struct.Struct("3q")  # trial, rows, width
_COUNT = struct.Struct("q")


def names(ranges) -> bytes:
    """The message that has the helper create the names of ``ranges``."""
    bounds = [bound for span in ranges for bound in (span.start, span.stop)]
    return struct.pack(f"q{len(bounds)}q", len(ranges), *bounds)


def chunk_rows(width: int) -> int:
    """Rows of ``width`` floats in one formatted chunk: at least one."""
    return max(1, CSV_VALUES // width)


def write_csv(path, width: int, chunks) -> None:
    """Write one CSV row per iteration: t, objective at x, best so far, the
    antenna length and step size used, then the coordinates of x. Floats
    are rendered with repr, which round-trips to the identical double.

    ``chunks`` gives the rows of ``width`` floats, as lists, in order, a
    chunk at a time; each chunk is formatted and written before the next is
    asked for, so the writer's memory does not grow with the row count.
    """
    with open(path, "w", buffering=1 << 16) as f:  # one write call for a file up to 64 KiB
        f.write("t,f_x,f_bst,d,delta," + ",".join(f"x_{j}" for j in range(width - 4)))
        first = 1
        for rows in chunks:
            f.write("".join([f"\n{t},{','.join(map(repr, row))}"
                             for t, row in enumerate(rows, first)]))
            first += len(rows)
        f.write("\n")


def _frame_chunks(stream, rows: int, width: int):
    """A frame's ``rows`` of ``width`` floats from ``stream``, as lists of
    ``chunk_rows(width)`` rows at most."""
    step = chunk_rows(width)
    for start in range(0, rows, step):
        count = min(step, rows - start)
        yield memoryview(stream.read(8 * count * width)).cast("d", (count, width)).tolist()


def main(folder: str, name: str) -> None:
    stream = sys.stdin.buffer
    head = stream.read(_COUNT.size)
    if not head:  # the campaign closed the pipe before it started the helper's work
        return
    bounds = memoryview(stream.read(16 * _COUNT.unpack(head)[0])).cast("q").tolist()
    for first, stop in zip(bounds[::2], bounds[1::2]):
        for i in range(first, stop):
            os.close(os.open(os.path.join(folder, name.format(i)), os.O_WRONLY | os.O_CREAT,
                             0o666))
    while header := stream.read(FRAME.size):
        trial, rows, width = FRAME.unpack(header)
        write_csv(os.path.join(folder, name.format(trial)), width,
                  _frame_chunks(stream, rows, width))


if __name__ == "__main__":
    main(*sys.argv[1:])
