#!/usr/bin/env python3
"""Fold a sigprof.so dump into a flat self-time table.

    fold.py [--addrs N] prof.txt target/release/simctl [frames]

Each sample is symbolized with `addr2line -f -i -C -a`; a row is the
function the sample fell in plus up to `frames - 1` of the callers it was
inlined into (default 3 frames); the 40 heaviest rows print. A sample
outside the executable (libc, the vdso) is attributed to its mapping and,
when the word sigprof recorded at the stack pointer is an address in the
executable, to that return address: `libc.so.6 <- Row::enqueue`. That
holds only for a leaf function that has not pushed a frame (memmove,
memcpy, malloc's fast path); where the word is anything else the row reads
`libc.so.6 <- ??`. Dumps from before the stack word was recorded fold into
one row per mapping.

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

samples, maps = [], []
for line in open(dump):
    kind, rest = line.split(None, 1)
    if kind == "pc":
        words = [int(w, 16) for w in rest.split()]
        samples.append((words[0], words[1] if len(words) > 1 else None))
    else:  # "map lo-hi perms offset dev inode path"
        span, _, _, _, _, path = rest.split(None, 5)
        lo, hi = (int(x, 16) for x in span.split("-"))
        maps.append((lo, hi, os.path.realpath(path.strip())))
# A PIE is linked at address 0: its lowest mapping is the load base.
base = min(lo for lo, _, path in maps if path == exe)


def mapping(addr):
    return next((path for lo, hi, path in maps if lo <= addr < hi), "[anon]")


offsets = collections.Counter()  # link-time address in `exe` -> samples
outside = collections.Counter()  # (mapping, caller link-time address) -> samples
for pc, top in samples:
    path = mapping(pc)
    if path == exe:
        offsets[pc - base] += 1
    else:
        # A return address points after its call: step back into the call
        # so addr2line names the line of the call, not the next one.
        caller = top - base - 1 if top is not None and mapping(top) == exe else None
        outside[(os.path.basename(path), caller, top is not None)] += 1

# addr2line's inlined-frame stacks, innermost first, for every address.
stacks = {}
wanted = set(offsets) | {caller for _, caller, _ in outside if caller is not None}
if wanted:
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", exe] + [hex(o) for o in wanted],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    stack, addr, is_name = [], 0, True
    for line in out + ["0x0"]:
        if line.startswith("0x"):  # -a: an address line starts a new stack
            if stack:
                stacks[addr] = stack
            stack, addr, is_name = [], int(line, 16), True
        else:  # then function name and file:line alternate, innermost first
            if is_name:
                stack.append(line)
            is_name = not is_name

table = collections.Counter()
for addr, n in offsets.items():
    table[" <- ".join(stacks.get(addr, ["??"])[:frames])] += n
for (lib, caller, has_top), n in outside.items():
    if not has_top:
        table[lib] += n
    else:
        names = stacks.get(caller, ["??"]) if caller is not None else ["??"]
        table[" <- ".join([lib] + names[:frames - 1])] += n

total = sum(table.values())
print(f"{total} samples")
for name, n in table.most_common(40):
    print(f"{100 * n / total:5.1f}%  {n:6d}  {name}")
if addrs:
    print(f"\n{addrs} hottest addresses in {os.path.basename(exe)}")
    for addr, n in offsets.most_common(addrs):
        print(f"{100 * n / total:5.1f}%  {n:6d}  {addr:#x}  {stacks.get(addr, ['??'])[0]}")
