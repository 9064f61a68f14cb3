#!/usr/bin/env python3
"""Fold a sigprof.so dump into a flat self-time table.

    fold.py prof.txt target/release/simctl [frames]

Each sample is symbolized with `addr2line -f -i -C -a`; a row is the
function the sample fell in plus up to `frames - 1` of the callers it was
inlined into (default 3 frames); the 40 heaviest rows print. Samples outside the executable
(libc, the vdso) are grouped by mapping.
"""
import collections
import os
import subprocess
import sys

dump, exe = sys.argv[1], os.path.realpath(sys.argv[2])
frames = int(sys.argv[3]) if len(sys.argv) > 3 else 3

pcs, maps = [], []
for line in open(dump):
    kind, rest = line.split(None, 1)
    if kind == "pc":
        pcs.append(int(rest, 16))
    else:  # "map lo-hi perms offset dev inode path"
        span, _, _, _, _, path = rest.split(None, 5)
        lo, hi = (int(x, 16) for x in span.split("-"))
        maps.append((lo, hi, os.path.realpath(path.strip())))
# A PIE is linked at address 0: its lowest mapping is the load base.
base = min(lo for lo, _, path in maps if path == exe)

table = collections.Counter()
offsets = collections.Counter()  # link-time address in `exe` -> samples
for pc in pcs:
    path = next((path for lo, hi, path in maps if lo <= pc < hi), "[anon]")
    if path == exe:
        offsets[pc - base] += 1
    else:
        table[os.path.basename(path)] += 1

if offsets:
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", exe] + [hex(o) for o in offsets],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    stack, weight, is_name = [], 0, True
    for line in out + ["0x0"]:
        if line.startswith("0x"):  # -a: an address line starts a new stack
            if stack:
                table[" <- ".join(stack[:frames])] += weight
            stack, weight, is_name = [], offsets.get(int(line, 16), 0), True
        else:  # then function name and file:line alternate, innermost first
            if is_name:
                stack.append(line)
            is_name = not is_name

total = sum(table.values())
print(f"{total} samples")
for name, n in table.most_common(40):
    print(f"{100 * n / total:5.1f}%  {n:6d}  {name}")
