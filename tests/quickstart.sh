#!/bin/sh
# README's quick start on a 60-word corpus: cache-vectors, search, rate and
# evaluate must each exit 0. Then search given the word-vectors text must exit
# 2 with one `error:` line naming `cadict cache-vectors`, and write no report.
# It runs the installed `cadict` script, or the command in $CADICT, such as
#   CADICT="python -m cadict.cli" PYTHONPATH="$PWD/src" sh tests/quickstart.sh
# in a temporary directory that it removes on exit.
set -eu
cadict=${CADICT:-cadict}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
python -c 'import numpy as np
rng, n = np.random.default_rng(1), 60
c = np.linspace(-1.0, 1.0, n)
v = rng.normal(0.0, 0.05, (n, 8))
v[:, 0] += c
words = [f"w{i:03d}" for i in range(n)]
open("vectors.vec", "w").write(f"{n} 8\n" + "".join(
    w + " " + " ".join(map(repr, row)) + "\n" for w, row in zip(words, v.tolist())))
open("ratings.tsv", "w").write("".join(
    f"{w}\t{3 + 2 * x:.3f}\n" for w, x in zip(words, c)))
open("freq.tsv", "w").write("".join(f"{w}\t{1000 - i}\n" for i, w in enumerate(words)))'
$cadict cache-vectors --vectors vectors.vec --out vectors.cavs
$cadict search --ratings ratings.tsv --freq freq.tsv --vectors vectors.cavs \
    --x 60 --y-start 10 --y-step 10 --z-min 2 --z-step 4 --samples 20 --seed 42 \
    --out-report report.json --out-core core.json --out-landscape landscape.tsv
$cadict rate --core core.json --vectors vectors.cavs --out dictionary.tsv
$cadict evaluate --pred dictionary.tsv --gold ratings.tsv --out eval.json
code=0
$cadict search --ratings ratings.tsv --freq freq.tsv --vectors vectors.vec \
    --out-report text.json --out-core text-core.json 2> err.txt || code=$?
cat err.txt
test "$code" -eq 2
test "$(wc -l < err.txt)" -eq 1
grep -q '^error: .*cadict cache-vectors' err.txt
test ! -e text.json && test ! -e text-core.json
echo "quick start: ok"
