"""CSV/JSON serialization for wavefunctions, spectra, and reports.

Files are written atomically (temp file in the target directory, then
rename), so a crashed run never leaves a half-written artifact behind.

Wavefunction files are formatted a chunk of CHUNK samples at a time with
whole-chunk string operations and streamed to the writer, so no whole-file
string is held. A CSV chunk is one %-format of its psi values into a row
format that already holds the chunk's x text; the row formats of a grid are
built once and kept in a bounded per-process cache (6.8 MB at most), so a
file written on a grid seen before formats only its psi values. A JSON
chunk is one join of float reprs. The bytes are those of the per-row CSV
loop and of json.dumps(record, indent=2) + "\\n".
"""

from __future__ import annotations

import errno
import os
import stat
import tempfile
import threading
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .grids import Grid, SampledFunction

__all__ = [
    "CHUNK",
    "TextChunks",
    "atomic_write_text",
    "wavefunction_record",
    "wavefunction_csv_chunks",
    "json_chunks",
    "format_energies",
]

# Samples (CSV rows, JSON list items) formatted per chunk of streamed text.
CHUNK = 4096


class TextChunks:
    """An iterable of str chunks, drawn once. len() is the number of
    characters drawn so far, so after a write it is the length of the text
    written, as len() of a str would be: callers that measure what a writer
    was given (perfbench's tracer counts export.bytes so) work for both."""

    def __init__(self, chunks: Iterable[str]) -> None:
        self._chunks = chunks
        self._drawn = 0

    def __iter__(self) -> Iterator[str]:
        for chunk in self._chunks:
            self._drawn += len(chunk)
            yield chunk

    def __len__(self) -> int:
        return self._drawn


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, a str or an iterable of str chunks, to path atomically: an
    error part-way (in the chunks too) leaves path as it was and no temp file.
    A new file gets the mode open() would give it (0o666 less the umask), a
    replaced one keeps its mode. A path that exists but is no regular file
    after following symlinks (a FIFO, /dev/stdout) is opened and written to
    directly, since renaming over it would replace the FIFO or device. A
    symlink is written through: its target is replaced and the link stays a
    link, and a dangling link creates its target, as open() would."""
    chunks = (text,) if isinstance(text, str) else text
    try:
        st = os.stat(path)
    except FileNotFoundError:
        mode = 0o666 & ~_umask()
    else:
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not stat.S_ISREG(st.st_mode):
            with open(path, "w") as handle:
                handle.writelines(chunks)
            return
        mode = stat.S_IMODE(st.st_mode)
    # Resolved only for a regular or missing target: /dev/stdout on a pipe
    # resolves to a name that does not exist ('pipe:[N]').
    path = os.path.realpath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.fchmod(fd, mode)  # mkstemp creates the file 0o600
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _umask() -> int:
    # the process umask can only be read by setting it
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def wavefunction_record(
    model: str,
    params: dict,
    n: int,
    energy: float,
    psi: SampledFunction,
    **metadata,
) -> dict:
    """JSON-ready record {model, params, n, energy, grid, values, ...}."""
    return {
        "model": model,
        "params": params,
        "n": n,
        "energy": energy,
        "grid": {
            "x_min": psi.grid.x_min,
            "x_max": psi.grid.x_max,
            "n_points": psi.grid.n_points,
        },
        "values": psi.values.tolist(),
        **metadata,
    }


def wavefunction_csv_chunks(psi: SampledFunction, metadata: dict | None = None) -> Iterator[str]:
    """Two-column CSV (x, psi) with '#'-prefixed metadata header lines: the
    bytes of the per-row loop f"{x:.12g},{psi:.12g}\\n", signed zeros
    included. Each chunk of CHUNK rows is its row format (``_row_formats``,
    the x text written in and a %.12g slot per row) %-formatted with the
    chunk's psi values, so a file on a grid seen before formats only psi."""
    header = [f"# {key}: {value}" for key, value in (metadata or {}).items()]
    yield "\n".join([*header, "x,psi"]) + "\n"
    values = psi.values
    for start, row_format in zip(range(0, len(values), CHUNK), _row_formats(psi.grid)):
        # %-formatting a Python float gives the digits of f"{psi:.12g}"
        yield row_format % tuple(values[start:start + CHUNK].tolist())


# Row formats of recent grid chunks, least recently used first, keyed by
# (x_min bits, x_max bits, n_points, first row); see _row_formats.
_ROW_FORMATS: dict[tuple[str, str, int, int], str] = {}
_ROW_FORMATS_MAX = 64
_ROW_FORMATS_LOCK = threading.Lock()


def _row_formats(grid: Grid) -> Iterator[str]:
    """The %-formats of the grid's CSV rows, one per chunk of CHUNK rows:
    "x,%.12g\\n" per row, with x written in as f"{x:.12g}".

    Each is built once and kept in a per-process cache of at most 64 formats
    (least recently used first out). A format holds at most 26 bytes per row
    (19 for the longest %.12g text of a float, "-1.23456789012e-308", and 7
    for ",%.12g\\n"), so the cache holds at most 64 × 26 × 4096 = 6,815,744
    bytes of text, plus one str header (49 bytes) per format. A grid of up
    to 64·CHUNK rows keeps all its formats; the 16 of a 64001-point grid on
    [-20, 20] hold 0.96 MB."""
    # the grid's exact bits, not Grid equality: Grid(-1, 0.0, 3) equals
    # Grid(-1, -0.0, 3), but their last x prints as 0 and as -0
    bits = (float(grid.x_min).hex(), float(grid.x_max).hex(), grid.n_points)
    x = None
    for start in range(0, grid.n_points, CHUNK):
        key = (*bits, start)
        with _ROW_FORMATS_LOCK:
            row_format = _ROW_FORMATS.pop(key, None)
            if row_format is not None:
                _ROW_FORMATS[key] = row_format  # now the most recently used
        if row_format is None:
            x = grid.x if x is None else x
            chunk = x[start:start + CHUNK].tolist()
            # %% leaves the psi slot of each row; x text holds no %
            row_format = ("%.12g,%%.12g\n" * len(chunk)) % tuple(chunk)
            with _ROW_FORMATS_LOCK:
                _ROW_FORMATS[key] = row_format
                while len(_ROW_FORMATS) > _ROW_FORMATS_MAX:
                    del _ROW_FORMATS[next(iter(_ROW_FORMATS))]
        yield row_format


_ITEM = ",\n    "  # between the items of a top-level list in indent-2 JSON


def json_chunks(payload: dict | list) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\\n" in chunks. A top-level "values"
    list of floats is written CHUNK items at a time with float.__repr__, the
    text the indent-2 encoder gives each of them, at C speed. ``json`` is
    imported here, so the commands that write no JSON never load it."""
    import json

    values = payload.get("values") if isinstance(payload, dict) else None
    if not (isinstance(values, list) and values and set(map(type, values)) == {float}):
        yield json.dumps(payload, indent=2) + "\n"
        return
    # Top-level members are the only lines indented by exactly two spaces,
    # and a JSON string holds no raw newline, so the marker occurs once.
    head, tail = json.dumps({**payload, "values": []}, indent=2).split('\n  "values": []')
    yield head + '\n  "values": [\n    '
    for start in range(0, len(values), CHUNK):
        text = _ITEM.join(map(float.__repr__, values[start:start + CHUNK]))
        if "n" in text:  # nan, inf or -inf: the encoder writes NaN, Infinity, -Infinity
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield text if start == 0 else _ITEM + text
    yield "\n  ]" + tail + "\n"


def format_energies(energies) -> str:
    return "  ".join(f"{float(e):.12g}" for e in energies)
