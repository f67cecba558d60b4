"""cadict benchmark: one measured run of one workload, from the repository root.

    python3 perfbench/run.py --workload {ingest,search,rate} --seed N \\
        --seconds S --trace {0,1}

This process only orchestrates. It makes the seeded corpus in its own process
(``corpus.py``; cached under ``.perfbench_data/`` by seed and shape, so its
time and memory never reach a result), reads the corpus files once so the
page cache is warm as it is for a user who re-runs right after
``cache-vectors``, then starts one fresh process (``work.py``) that measures,
checks the correctness anchors and prints the result as its last line. It sets
no thread environment variables: BLAS's default is part of the program under
test.

With ``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics from spans around cadict's public functions.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DATA = ROOT / ".perfbench_data"
PARTS = {"ingest": "ingest", "search": "store", "rate": "store"}
GENERATE_TIMEOUT_S = 600
WORK_TIMEOUT_S = 165


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _warm(directory: Path) -> None:
    for path in sorted(directory.iterdir()):
        with open(path, "rb") as fh:
            while fh.read(1 << 24):
                pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cadict benchmark run")
    ap.add_argument("--workload", choices=sorted(PARTS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cadict" / "__init__.py").is_file():
        print(f"error: no cadict sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    env = _env()
    part = PARTS[args.workload]
    gen = subprocess.run(
        [sys.executable, str(HERE / "corpus.py"), "--seed", str(args.seed),
         "--out", str(DATA), "--parts", part],
        env=env, stdout=subprocess.PIPE, text=True, timeout=GENERATE_TIMEOUT_S)
    if gen.returncode != 0:
        print(f"error: corpus generation exited {gen.returncode}", file=sys.stderr)
        return 2
    corpus_dir = Path(gen.stdout.strip().splitlines()[-1])
    _warm(corpus_dir / part)

    cmd = [sys.executable, str(HERE / "work.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--corpus", str(corpus_dir), "--work", str(DATA / "work")]
    try:
        work = subprocess.run(cmd, env=env, timeout=WORK_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the measured run took over {WORK_TIMEOUT_S} s", file=sys.stderr)
        return 2
    return work.returncode


if __name__ == "__main__":
    sys.exit(main())
