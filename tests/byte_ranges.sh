#!/bin/sh
# cache-vectors of a text just over two MIN_RANGE_BYTES (about 34 MB), at
# --processes 1 and 2, where the child process imports the package afresh. The
# valid text must be cached from merged byte ranges, with the cache and
# manifest of one process. The same text with one bad record in its second half
# must exit 2 with one process's single `error:` line at both counts, leave the
# valid cache already at its --out as it was, and leave no other file. After
# each step the directory must hold exactly the files named, hidden ones
# included. A run killed by SIGKILL while its child parses must leave no file
# either, and its child must end within 2 s.
# It runs the installed `cadict` script, or the command in $CADICT, such as
#   CADICT="python -m cadict.cli" PYTHONPATH="$PWD/src" sh tests/byte_ranges.sh
# in a temporary directory that it removes on exit.
set -eu
cadict=${CADICT:-cadict}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
only() {  # the directory holds these files and no other, hidden ones included
    test "$(LC_ALL=C ls -A)" = "$(printf '%s\n' "$@" | LC_ALL=C sort)" || {
        echo "files left: $(ls -A | tr '\n' ' ')" >&2; exit 1; }
}
python -c 'import numpy as np
from cadict.embeddings import MIN_RANGE_BYTES
rows = np.random.default_rng(2).normal(size=(1000, 50))
rests = [" ".join(f"{x:.6f}" for x in row) for row in rows] + [" ".join(["0"] * 50)]
lines, size = [], 0
while size <= 2 * MIN_RANGE_BYTES:  # duplicates and zero rows on each side of the cut
    lines.append(f"w{len(lines) % 40000} {rests[len(lines) % len(rests)]}\n")
    size += len(lines[-1])
open("big.vec", "w").writelines(lines)
lines.insert(3 * len(lines) // 4, "bad 1 2 3\n")
open("bad.vec", "w").writelines(lines)'
$cadict -v cache-vectors --vectors big.vec --out big1.cavs --processes 1
$cadict -v cache-vectors --vectors big.vec --out big2.cavs --processes 2 2> err.txt
cat err.txt
grep -q ': 2 byte ranges, 1 of them in child processes$' err.txt
test "$(grep -c 'byte ranges not merged' err.txt)" -eq 0
cmp big1.cavs big2.cavs
cmp big1.cavs.manifest.json big2.cavs.manifest.json
only big.vec bad.vec err.txt big1.cavs big1.cavs.manifest.json big2.cavs \
    big2.cavs.manifest.json
cp big1.cavs bad.cavs
for processes in 1 2; do
    code=0
    $cadict cache-vectors --vectors bad.vec --out bad.cavs --processes "$processes" \
        2> "bad$processes.txt" || code=$?
    cat "bad$processes.txt"
    test "$code" -eq 2
    test "$(wc -l < "bad$processes.txt")" -eq 1
    grep -q '^error: bad\.vec: line [0-9]*: expected 50 components, found 3$' "bad$processes.txt"
done
cmp bad1.txt bad2.txt
cmp big1.cavs bad.cavs
# no manifest of bad.cavs, and no writer's hidden .<name>.<random>.tmp
only big.vec bad.vec err.txt big1.cavs big1.cavs.manifest.json big2.cavs \
    big2.cavs.manifest.json bad.cavs bad1.txt bad2.txt
# the child is started with the path, so `pgrep -f` finds it once orphaned
$cadict -v cache-vectors --vectors "$dir/big.vec" --out killed.cavs --processes 2 \
    2> killed.txt &
pid=$!
tries=0
until grep -q ': 2 byte ranges, 1 of them in child processes$' killed.txt; do
    tries=$((tries + 1))
    test "$tries" -le 300 || { kill -9 "$pid"; exit 1; }  # 30 s
    sleep 0.1
done
kill -9 "$pid"
code=0
wait "$pid" || code=$?
test "$code" -eq 137
tries=0
while pgrep -f "$dir/big.vec" > /dev/null; do  # the kernel kills it with its parent
    tries=$((tries + 1))
    test "$tries" -le 20 || { pkill -9 -f "$dir/big.vec"; exit 1; }  # 2 s
    sleep 0.1
done
only big.vec bad.vec err.txt big1.cavs big1.cavs.manifest.json big2.cavs \
    big2.cavs.manifest.json bad.cavs bad1.txt bad2.txt killed.txt
echo "byte ranges: ok"
