#!/usr/bin/env python3
"""Symbol profile from a hostprof run (see hostprof.c).

    python3 tools/hostprof/report.py hostprof.<pid>[.pcs|.maps] [--top N]

Takes the files' common prefix, or either file's path.  Reads
hostprof.<pid>.pcs (the sampled program counters) and
hostprof.<pid>.maps (the process's memory map at exit), maps each PC to
the file mapped there and to the symbol that contains it, and prints the
symbols by sample count, then the files.  A position-independent file
(an ELF of type ET_DYN: a PIE executable or a shared library) is
symbolised relative to its load base, the start of its lowest mapping;
a fixed-address executable by the absolute PC.  Symbols come from
`nm -n --defined-only`, or from its dynamic table (`-D`) when the file
is stripped.  A file modified after the .maps file was written (a
binary rebuilt since the profile) no longer holds the profiled code: its
samples are still attributed, with a warning on stderr that names it.
Needs only the Python standard library and binutils' nm.
"""

import argparse
import array
import bisect
import collections
import os
import subprocess
import sys

UNKNOWN = "[unknown]"


def read_maps(path):
    """Executable mappings as (start, end, file) and each file's base."""
    spans, bases = [], {}
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or not parts[5].strip().startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip()
            bases[name] = min(lo, bases.get(name, lo))
            if "x" in parts[1]:
                spans.append((lo, hi, name))
    spans.sort()
    return spans, bases


def is_pie(path):
    """Whether the ELF file is ET_DYN, i.e. loaded at a chosen base."""
    with open(path, "rb") as f:
        head = f.read(18)
    little = head[5] == 1
    return int.from_bytes(head[16:18], "little" if little else "big") == 3


def symbols(path):
    """Sorted (address, name) pairs of the file's defined symbols."""
    for extra in ([], ["-D"]):
        out = subprocess.run(
            ["nm", "-n", "--defined-only", *extra, path],
            capture_output=True, text=True, check=False,
        ).stdout
        syms = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwWiI":
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            return syms
    return []


class Symboliser:
    def __init__(self, maps_path):
        self.spans, self.bases = read_maps(maps_path)
        self.maps_mtime = os.path.getmtime(maps_path)
        self.starts = [s[0] for s in self.spans]
        self.tables = {}

    def table(self, name):
        if name not in self.tables:
            try:
                if os.path.getmtime(name) > self.maps_mtime:
                    print(f"hostprof: warning: {name} changed after the "
                          "profile was taken; its symbols may be wrong",
                          file=sys.stderr)
                bias = self.bases[name] if is_pie(name) else 0
                syms = symbols(name)
            except OSError:
                bias, syms = 0, []
            addrs = [a for a, _ in syms]
            self.tables[name] = (bias, addrs, [n for _, n in syms])
        return self.tables[name]

    def lookup(self, pc):
        """(file, symbol) for a sampled PC."""
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.spans[i][1]:
            return (UNKNOWN, UNKNOWN)
        name = self.spans[i][2]
        bias, addrs, names = self.table(name)
        j = bisect.bisect_right(addrs, pc - bias) - 1
        return (name, names[j] if j >= 0 else UNKNOWN)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "prefix",
        help="hostprof.<pid>, the files' common prefix, or the path of "
        "either file",
    )
    ap.add_argument("--top", type=int, default=30, help="symbols to list")
    args = ap.parse_args()

    prefix = args.prefix
    for suffix in (".pcs", ".maps"):
        if prefix.endswith(suffix):
            prefix = prefix[: -len(suffix)]
    pcs_path, maps_path = prefix + ".pcs", prefix + ".maps"
    for path in (pcs_path, maps_path):
        if not os.path.isfile(path):
            sys.exit("hostprof: no such file: " + path)

    pcs = array.array("Q")
    with open(pcs_path, "rb") as f:
        pcs.frombytes(f.read())
    if not pcs:
        sys.exit("hostprof: no samples in " + pcs_path)
    sym = Symboliser(maps_path)
    by_symbol, by_file = collections.Counter(), collections.Counter()
    for pc, n in collections.Counter(pcs).items():
        name, fn = sym.lookup(pc)
        by_symbol[fn] += n
        by_file[name] += n

    total = len(pcs)
    print(f"{total} samples")
    print(f"{'share':>7}  {'samples':>8}  symbol")
    for fn, n in by_symbol.most_common(args.top):
        print(f"{100.0 * n / total:6.2f}%  {n:8d}  {fn}")
    print(f"\n{'share':>7}  {'samples':>8}  file")
    for name, n in by_file.most_common():
        print(f"{100.0 * n / total:6.2f}%  {n:8d}  {name}")


if __name__ == "__main__":
    main()
