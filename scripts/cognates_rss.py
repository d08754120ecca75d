"""Peak memory and wall time of `phondist cognates` on two large word lists.

    python scripts/cognates_rss.py --matrix matrix.tsv --features features.tsv

Writes two seeded lists (graphemes from the feature table's segment column, the
null segment excluded): WORDS distinct words of 4-8 segments, and MIXED_WORDS
such words with LONG_WORDS words of LONG_LENGTH segments among them. Runs
`python -m phondist cognates` on each in a child process and prints one JSON
line per list: words, long words, wall seconds, the child's peak RSS and the
table's size. Exits 1 if a child fails or its peak RSS is over LIMIT_MIB.

Only the standard library is imported, so the figures are the children's own.
"""

import argparse
import json
import os
import random
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
# The second list: short words beside a few long ones, whose pairs set the batch's memory.
MIXED_WORDS, LONG_WORDS, LONG_LENGTH = 400, 3, 1000


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


def mixed_list(alphabet: list[str], seed: int) -> list[str]:
    """MIXED_WORDS words as word_list draws them, with LONG_WORDS words of
    LONG_LENGTH segments inserted at seeded places."""
    rng = random.Random(seed)
    words = word_list(alphabet, MIXED_WORDS, seed)
    for _ in range(LONG_WORDS):
        words.insert(rng.randrange(len(words) + 1), "".join(rng.choice(alphabet) for _ in range(LONG_LENGTH)))
    return words


def run(matrix: str, words: list[str], long_words: int, tmp: Path) -> int:
    """Run `cognates` on the list, print its JSON line and return the child's exit code, or 1 if over LIMIT_MIB."""
    path, table, err = tmp / "words.txt", tmp / "cognates.tsv", tmp / "stderr.txt"
    path.write_text("\n".join(words) + "\n", encoding="utf-8")
    start = time.perf_counter()
    with open(table, "wb") as out, open(err, "wb") as errors:
        child = subprocess.Popen([sys.executable, "-m", "phondist", "cognates", "--matrix", matrix, "--words", str(path)],
                                 stdout=out, stderr=errors)
        _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage, not the maximum over all children
        child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    peak_mib = usage.ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"words": len(words), "long_words": long_words, "exit": child.returncode,
                      "wall_s": round(wall, 2), "peak_rss_mib": round(peak_mib, 1), "limit_mib": LIMIT_MIB,
                      "tsv_bytes": table.stat().st_size}), flush=True)
    if child.returncode != 0:
        print(err.read_text(encoding="utf-8", errors="replace"), end="", file=sys.stderr)
        return 1
    return 0 if peak_mib <= LIMIT_MIB else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--matrix", required=True, help="matrix TSV, as `phondist matrix` writes it")
    parser.add_argument("--features", required=True, help="feature table TSV the words are drawn from")
    args = parser.parse_args()
    alphabet = graphemes(Path(args.features))
    with tempfile.TemporaryDirectory() as tmp:
        codes = [run(args.matrix, word_list(alphabet, WORDS, SEED), 0, Path(tmp)),
                 run(args.matrix, mixed_list(alphabet, SEED), LONG_WORDS, Path(tmp))]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
