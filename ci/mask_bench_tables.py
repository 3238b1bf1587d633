#!/usr/bin/env python3
"""Blank the wall-clock columns of every table in a bench's stdout.

Benches print util::Table tables: a header line, a rule of dashes, then
one line per row, each column padded to its widest cell plus two
spaces. Simulated results are deterministic, but the `wall_s`, `Mev/s`
and `speedup` columns are host time and differ on every run. This
filter finds those columns from each table's header line and blanks
them: the header keeps the column name, the rule and the rows keep
only a column of that name's width, so a cell's width cannot shift the
columns after it. Every other byte passes through unchanged, so two
runs of a deterministic bench compare equal with a plain diff.

Header cells are split on runs of two or more spaces, so cells with
single spaces inside them (`idle host`, `60 s`) stay whole.

Usage: ./build/bench_x | python3 ci/mask_bench_tables.py > masked.txt
       python3 ci/mask_bench_tables.py out.txt > masked.txt
"""

import re
import sys

MASKED = {"wall_s", "Mev/s", "speedup"}
RULE = re.compile(r"-+")


def columns(header):
    """(start, name) of each header cell, split on 2+ spaces."""
    return [(m.start(), m.group()) for m in re.finditer(r"\S+(?: \S+)*",
                                                        header)]


def is_row(line, starts):
    """A table row pads every cell before a column start by 2+ spaces."""
    if not line.strip():
        return False
    return all(line[s - 2:s] == "  " for s in starts[1:] if s < len(line))


def mask_line(line, cols, fill):
    """Replace each masked column's span, padding included, with fill
    repeated over the column name's width plus the padding (the name
    itself when fill is None)."""
    out = []
    for i, (start, name) in enumerate(cols):
        end = cols[i + 1][0] if i + 1 < len(cols) else len(line)
        if name not in MASKED:
            out.append(line[start:end])
            continue
        width = len(name) + (2 if i + 1 < len(cols) else 0)
        out.append(name.ljust(width) if fill is None else fill * width)
    return "".join(out) + "\n"


def mask(lines):
    out = []
    i = 0
    while i < len(lines):
        line = lines[i].rstrip("\n")
        rule = lines[i + 1].rstrip("\n") if i + 1 < len(lines) else ""
        cols = columns(line)
        if (not RULE.fullmatch(rule) or len(cols) < 2 or
                not MASKED.intersection(name for _, name in cols)):
            out.append(lines[i])
            i += 1
            continue
        starts = [s for s, _ in cols]
        out.append(mask_line(line, cols, None))
        out.append(mask_line(rule, cols, "-"))
        i += 2
        while i < len(lines) and is_row(lines[i].rstrip("\n"), starts):
            out.append(mask_line(lines[i].rstrip("\n"), cols, " "))
            i += 1
    return out


def main():
    src = open(sys.argv[1]) if len(sys.argv) > 1 else sys.stdin
    sys.stdout.writelines(mask(src.readlines()))


if __name__ == "__main__":
    main()
