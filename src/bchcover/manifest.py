"""Reference rows for the covering radius / binary Johnson comparison table.

Each row pins the designed distance delta that realizes the listed (n, k):
the table reports true minimum distances, which may exceed delta (the
length-17 code is designed for 3 but has distance 5). Rows flagged
``long_running`` have syndrome spaces of 2^24 and 2^27 and are skipped by
the table command unless explicitly requested.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TableRow:
    n: int
    delta: int
    k: int
    d: int
    covering_radius: int
    tau_binary: int
    comment: str
    long_running: bool = False


TABLE1: tuple[TableRow, ...] = (
    TableRow(7, 3, 4, 3, 1, 2, "Hamming"),
    TableRow(15, 3, 11, 3, 1, 1, "Hamming"),
    TableRow(15, 5, 7, 5, 3, 3, "Wu-covered code"),
    TableRow(15, 7, 5, 7, 5, 5, "RM(1,4)*"),
    TableRow(17, 3, 9, 5, 3, 3, "Wu-covered code"),
    TableRow(23, 5, 12, 7, 3, 4, "Wu-covered code"),
    TableRow(31, 3, 26, 3, 1, 1, "Hamming"),
    TableRow(31, 5, 21, 5, 3, 2, ""),
    TableRow(31, 7, 16, 7, 5, 4, ""),
    TableRow(31, 11, 11, 11, 7, 7, "Wu-covered code"),
    TableRow(31, 15, 6, 15, 11, 12, "RM(1,5)*"),
    TableRow(63, 3, 57, 3, 1, 1, "Hamming"),
    TableRow(63, 5, 51, 5, 3, 2, ""),
    TableRow(63, 7, 45, 7, 5, 3, ""),
    TableRow(63, 9, 39, 9, 7, 4, "", long_running=True),
    TableRow(63, 11, 36, 11, 9, 6, "", long_running=True),
)


def find_row(n: int, delta: int) -> TableRow | None:
    for row in TABLE1:
        if row.n == n and row.delta == delta:
            return row
    return None
