"""CSV/JSON serialization for wavefunctions, spectra, and reports.

Files are written atomically (temp file in the target directory, then
rename), so a crashed run never leaves a half-written artifact behind.

Wavefunction files are formatted a chunk of CHUNK samples at a time with
whole-chunk string operations (one %-format per CSV chunk, one join of
float reprs per JSON chunk) and streamed to the writer, so no whole-file
string is held. The bytes are those of the per-row CSV loop and of
json.dumps(record, indent=2) + "\\n".
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .grids import SampledFunction

__all__ = [
    "CHUNK",
    "TextChunks",
    "atomic_write_text",
    "wavefunction_record",
    "wavefunction_csv_chunks",
    "wavefunction_csv_text",
    "json_chunks",
    "write_json",
    "read_json",
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
    error part-way (in the chunks too) leaves path as it was and no temp file."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def wavefunction_record(
    model_id: str,
    params: dict,
    n: int,
    energy: float,
    psi: SampledFunction,
    **metadata,
) -> dict:
    """JSON-ready record {model, params, n, energy, grid, values, ...}."""
    return {
        "model": model_id,
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
    """Two-column CSV (x, psi) with '#'-prefixed metadata header lines."""
    header = [f"# {key}: {value}" for key, value in (metadata or {}).items()]
    yield "\n".join([*header, "x,psi"]) + "\n"
    x, values = psi.grid.x, psi.values
    for start in range(0, len(values), CHUNK):
        # x0, x0, x1, x1, ... with psi written over every second copy: the
        # rows interleaved by array methods, so this module needs no numpy import
        rows = x[start:start + CHUNK].repeat(2)
        rows[1::2] = values[start:start + CHUNK]
        # %-formatting a Python float gives the digits of f"{xi:.12g}"
        yield ("%.12g,%.12g\n" * (len(rows) // 2)) % tuple(rows.tolist())


def wavefunction_csv_text(psi: SampledFunction, metadata: dict | None = None) -> str:
    """The text of wavefunction_csv_chunks as one str."""
    return "".join(wavefunction_csv_chunks(psi, metadata))


_ITEM = ",\n    "  # between the items of a top-level list in indent-2 JSON


def json_chunks(payload: dict) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\\n" in chunks. A top-level "values"
    list of floats is written CHUNK items at a time with float.__repr__, the
    text the indent-2 encoder gives each of them, at C speed."""
    values = payload.get("values")
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


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, TextChunks(json_chunks(payload)))


def read_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def format_energies(energies) -> str:
    return "  ".join(f"{float(e):.12g}" for e in energies)
