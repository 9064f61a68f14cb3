#!/usr/bin/env python3
"""Fold a sigprof.so dump into a flat self-time table.

    fold.py [--addrs N] prof.txt target/release/simctl [frames]

Each sample is symbolized with `addr2line -f -i -C -a`; a row is the
function the sample fell in plus up to `frames - 1` of the callers it was
inlined into (default 3 frames); the 40 heaviest rows print. Samples outside the executable
(libc, the vdso) are grouped by mapping.

`--addrs N` also prints the N hottest link-time addresses with their sample
counts and innermost function: the instruction a row's samples sit on, ready
for `objdump -d -C --start-address=ADDR --stop-address=$((ADDR + 64))`.
"""
import collections
import os
import subprocess
import sys

args, addrs = sys.argv[1:], 0
if "--addrs" in args:
    at = args.index("--addrs")
    addrs = int(args[at + 1])
    del args[at:at + 2]
dump, exe = args[0], os.path.realpath(args[1])
frames = int(args[2]) if len(args) > 2 else 3

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
innermost = {}  # link-time address -> the function it was compiled from
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
    stack, addr, is_name = [], 0, True
    for line in out + ["0x0"]:
        if line.startswith("0x"):  # -a: an address line starts a new stack
            if stack:
                table[" <- ".join(stack[:frames])] += offsets[addr]
                innermost[addr] = stack[0]
            stack, addr, is_name = [], int(line, 16), True
        else:  # then function name and file:line alternate, innermost first
            if is_name:
                stack.append(line)
            is_name = not is_name

total = sum(table.values())
print(f"{total} samples")
for name, n in table.most_common(40):
    print(f"{100 * n / total:5.1f}%  {n:6d}  {name}")
if addrs:
    print(f"\n{addrs} hottest addresses in {os.path.basename(exe)}")
    for addr, n in offsets.most_common(addrs):
        print(f"{100 * n / total:5.1f}%  {n:6d}  {addr:#x}  {innermost.get(addr, '??')}")
