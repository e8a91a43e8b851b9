"""Regenerate ``corpus.json``, the fixed engine corpus of the benchmark.

    python3 benchmarks/make_corpus.py

Braids are drawn from a fixed generator seed and admitted by sizes read
from the diagram before any timing: the number of degree -1 generators
``cm1`` (the boundary columns ``qgr`` eliminates) and the total
dimension ``dim``.  Expected s_2 values of non-positive braids come from
the engine of the commit that generated the file, and each is checked
against the positivization interval and the mirror window.  Positive
entries need no engine value: the benchmark applies the positive
formula.  Running this again on a changed engine is a deliberate act;
the benchmark itself only reads the file.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import generator_count, random_word  # noqa: E402
from linksn import diagram as dg  # noqa: E402
from linksn import lee  # noqa: E402

GENERATOR_SEED = 1608
ROADMAP_BRAID = [1, -2, 1, -2, 1, 2, -1, 2, 1, -2, 1, 2]
# (strands, crossings, C^-1 band, least C^-1 / dim) of the random braids
# beside the ROADMAP braid: a small one and an elimination-heavy one.
# Their costs lie far apart, so the median of the three operations is
# the second braid's, not a point between two of them.
NONPOSITIVE_SLOTS = [(4, 10, (700, 1000), 0.05), (3, 10, (1800, 2452), 0.15)]
SMALL_COUNT = 40
POSITIVE_TORUS = [(2, 9), (2, 10), (2, 11), (3, 5), (4, 3)]
POSITIVE_BRAIDS = 4


def sizes(word, strands):
    """(dim, cm1): generators of the whole complex and of degree -1."""
    return (generator_count(dg, word, strands),
            generator_count(dg, word, strands, -1))


def engine_entry(name, word, strands, provenance):
    dim, cm1 = sizes(word, strands)
    s2 = lee.s2(dg.parse_braid(word, strands))
    oracle.check_braid_value(word, strands, s2)
    return {"name": name, "braid": word, "strands": strands,
            "crossings": len(word),
            "components": oracle.braid_components(word, strands),
            "dim": dim, "cm1": cm1, "s2": s2, "provenance": provenance}


def main():
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, cwd=HERE,
                            check=False).stdout.strip() or "unknown"
    engine = f"engine of linksn at commit {commit}"

    roadmap = engine_entry("roadmap-12", ROADMAP_BRAID, 3, engine)
    cap = roadmap["cm1"]
    nonpositive = [roadmap]
    for i, (strands, crossings, (lo, hi), share) in enumerate(
            NONPOSITIVE_SLOTS, 1):
        rng = random.Random(f"{GENERATOR_SEED}:nonpositive:{i}")
        while True:
            word = random_word(rng, strands, crossings, positive=False,
                                   every_generator=True)
            dim, cm1 = sizes(word, strands)
            if lo <= cm1 <= min(hi, cap) and cm1 >= share * dim:
                break
        nonpositive.append(engine_entry(f"np-{strands}s{crossings}c-{i}",
                                        word, strands, engine))

    t211 = sizes(list(range(1, 2)) * 11, 2)[0]
    rng = random.Random(f"{GENERATOR_SEED}:positive")
    positive = []
    for p, q in POSITIVE_TORUS:
        positive.append({"name": f"T({p},{q})", "torus": [p, q],
                         "dim": sizes(list(range(1, p)) * q, p)[0]})
    while len(positive) < len(POSITIVE_TORUS) + POSITIVE_BRAIDS:
        strands = rng.choice([3, 4])
        word = random_word(rng, strands, rng.randint(10, 11),
                           every_generator=True)
        dim = sizes(word, strands)[0]
        if dim > t211:
            continue
        positive.append({"name": f"pos-{strands}s{len(word)}c-{len(positive)}",
                         "braid": word, "strands": strands, "dim": dim})

    small = [engine_entry("figure-eight", [1, -2, 1, -2], 3,
                          "verify.corpus known value")]
    if small[0]["s2"] != 0:
        raise SystemExit("the engine disagrees with verify.corpus on 4_1")
    rng = random.Random(f"{GENERATOR_SEED}:small")
    seen = set()
    while len(small) < SMALL_COUNT:
        strands = rng.choice([2, 3, 4])
        word = random_word(rng, strands, rng.randint(3, 8), positive=False,
                           every_generator=True)
        if tuple(word) in seen:
            continue
        seen.add(tuple(word))
        small.append(engine_entry(f"small-{len(small)}", word, strands,
                                  engine))

    out = {
        "about": "Fixed engine corpus of the linksn benchmark; regenerate "
                 "with benchmarks/make_corpus.py.",
        "generator_seed": GENERATOR_SEED,
        "cm1_cap": cap,
        "dim_cap": t211,
        "nonpositive": nonpositive,
        "positive": positive,
        "small": small,
    }
    lines = []
    for key, value in out.items():
        if isinstance(value, list):   # one corpus entry per line
            value = "[\n  " + ",\n  ".join(map(json.dumps, value)) + "\n ]"
        else:
            value = json.dumps(value)
        lines.append(f" {json.dumps(key)}: {value}")
    (HERE / "corpus.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
