"""Integer tables from comma-separated text files.

Every file input of the package is read here: one integer per line for the
interior-point command, coordinate rows with a trailing label for the
learners, and (y, score) rows for the optimizer. The format, in one place:

- cells are separated by commas and may be wrapped in double quotes;
- an integer is an optional sign and ASCII digits, with blanks around them;
- lines that are empty or hold only blanks carry no row;
- line 1 is a header, and is skipped, when one of its cells is not an
  integer (only when the caller allows a header).

numpy's C reader parses the table. When it rejects the file, a line-by-line
pass names the first bad line, so only a failing load pays for Python loops.
"""

import csv
import re
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np


_INTEGER = r"\s*[+-]?[0-9]+\s*"  # re compiles it on first use, not at import


class IntTable:
    """The rows of an integer file, one per non-blank data line."""

    def __init__(self, path, values: np.ndarray, skip: int):
        self.path = path
        self.values = values  # 2-D, one column per cell read
        self.skip = skip  # lines before the data: 1 when line 1 was a header

    def line(self, row: int) -> int:
        """1-based file line of data row `row`."""
        with open(self.path, newline="") as fh:
            return next(islice(_data_lines(fh, self.skip), row, None))[0]

    def error(self, row: int, message: str) -> ValueError:
        """The error for data row `row`, naming the file and the line."""
        return ValueError(f"{self.path}: line {self.line(row)}: {message}")

    def reject(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Raise the error of the first row where `bad` holds."""
        if bad.any():
            row = int(np.argmax(bad))
            raise self.error(row, message(row))


def _data_lines(fh, skip: int):
    """(line number, text) of each non-blank line after the first `skip`."""
    return ((n, text) for n, text in enumerate(fh, start=1) if n > skip and text.strip())


def _cells(text: str) -> list:
    return next(csv.reader([text]), [])


def _is_header(line: str, usecols: Optional[Sequence[int]]) -> bool:
    cells = _cells(line)
    if usecols is not None:
        if len(cells) <= max(usecols):
            return False
        cells = [cells[i] for i in usecols]
    return not all(re.fullmatch(_INTEGER, cell) for cell in cells)


def read_int_table(path, dtype, usecols: Optional[Sequence[int]] = None,
                   header: bool = True) -> IntTable:
    """Parse `path` into a 2-D array of `dtype`.

    With `usecols`, only those cells are read and later cells are ignored;
    otherwise every row must have as many cells as the first one. A file with
    no data lines gives a table of no rows.
    """
    with open(path, newline="") as fh:
        skip = int(header and _is_header(fh.readline(), usecols))
        fh.seek(0)
        empty = next(_data_lines(fh, skip), None) is None
    if empty:
        return IntTable(path, np.empty((0, len(usecols) if usecols else 1), dtype=dtype), skip)
    options = dict(dtype=dtype, delimiter=",", quotechar='"', comments=None,
                   usecols=usecols, ndmin=2)
    try:
        values = np.loadtxt(path, skiprows=skip, **options)
    except ValueError:
        _name_bad_line(path, dtype, usecols, skip)
        # every line is well formed: the reader tripped on a blank-only line
        with open(path, newline="") as fh:
            values = np.loadtxt((text for _, text in _data_lines(fh, skip)), **options)
    return IntTable(path, values, skip)


def _name_bad_line(path, dtype, usecols, skip) -> None:
    """Raise ValueError at the first line that breaks the format."""
    info = np.iinfo(dtype)
    width = None
    with open(path, newline="") as fh:
        for lineno, text in _data_lines(fh, skip):
            row = _cells(text)
            width = width or len(row)
            problem = _row_problem(row, width, usecols, info)
            if problem:
                raise ValueError(f"{path}: line {lineno}: {problem}")


def _row_problem(row, width, usecols, info) -> Optional[str]:
    if usecols is None and len(row) != width:
        return f"expected {width} columns, got {len(row)}"
    if usecols is not None and len(row) <= max(usecols):
        return f"expected at least {max(usecols) + 1} columns, got {len(row)}"
    for cell in row if usecols is None else [row[i] for i in usecols]:
        if not re.fullmatch(_INTEGER, cell):
            return f"non-integer entry {cell!r}"
        value = int(cell)
        if value < 0 and info.min == 0:
            return f"negative value {value}"
        if not info.min <= value <= info.max:
            return f"value {value} does not fit {info.dtype}"
    return None
