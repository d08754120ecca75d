"""Peak memory and wall time of `phondist cognates` on a large word list.

    python scripts/cognates_rss.py --matrix matrix.tsv --features features.tsv

Writes a seeded list of WORDS distinct words (lengths 4-8, graphemes from the
feature table's segment column, the null segment excluded), runs
`python -m phondist cognates` on it in a child process and prints one JSON
line: words, wall seconds, the child's peak RSS and the table's size. Exits 1
if the child fails or its peak RSS is over LIMIT_MIB.

Only the standard library is imported, so the figure is the child's own.
"""

import argparse
import json
import random
import resource
import subprocess
import sys
import tempfile
import time
import unicodedata
from pathlib import Path

WORDS = 2000
LENGTHS = range(4, 9)
SEED = 0
LIMIT_MIB = 80
NULL_GRAPHEME = "∅"


def graphemes(features: Path) -> list[str]:
    """The feature table's segment column, in file order, without the null segment."""
    lines = [line for line in features.read_text(encoding="utf-8").removeprefix("\ufeff").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    cells = (unicodedata.normalize("NFC", line.split("\t", 1)[0].strip()) for line in lines[1:])
    return [g for g in cells if g != NULL_GRAPHEME]


def word_list(alphabet: list[str], count: int, seed: int) -> list[str]:
    """`count` distinct words, lengths cycling over LENGTHS in a shuffled order."""
    rng = random.Random(seed)
    lengths = [LENGTHS[k % len(LENGTHS)] for k in range(count)]
    rng.shuffle(lengths)
    words: list[str] = []
    seen: set[str] = set()
    for n in lengths:
        while (word := "".join(rng.choice(alphabet) for _ in range(n))) in seen:
            pass
        seen.add(word)
        words.append(word)
    return words


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--matrix", required=True, help="matrix TSV, as `phondist matrix` writes it")
    parser.add_argument("--features", required=True, help="feature table TSV the words are drawn from")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        words, table = Path(tmp) / "words.txt", Path(tmp) / "cognates.tsv"
        words.write_text("\n".join(word_list(graphemes(Path(args.features)), WORDS, SEED)) + "\n",
                         encoding="utf-8")
        start = time.perf_counter()
        with open(table, "wb") as out:
            done = subprocess.run(
                [sys.executable, "-m", "phondist", "cognates", "--matrix", args.matrix, "--words", str(words)],
                stdout=out, stderr=subprocess.PIPE, text=True,
            )
        wall = time.perf_counter() - start
        size = table.stat().st_size
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"words": WORDS, "exit": done.returncode, "wall_s": round(wall, 2),
                      "peak_rss_mib": round(peak_mib, 1), "limit_mib": LIMIT_MIB, "tsv_bytes": size}))
    if done.returncode != 0:
        print(done.stderr, end="", file=sys.stderr)
        return 1
    return 0 if peak_mib <= LIMIT_MIB else 1


if __name__ == "__main__":
    sys.exit(main())
