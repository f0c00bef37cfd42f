"""Seeded synthetic corpus generator for the benchmark.

A corpus has ``n`` functions over ``max(1, n // 10)`` subject types, so the
pattern matrix has three columns per subject.  Each function has a home
subject: it usually returns or takes its home struct, and it touches the
home struct's fields plus, sometimes, a second struct's.  Rows that are not
planted copies are distinct pattern rows.  A ``dup_rate`` share of the
functions (rounded to a whole count, never the first) are planted copies
of an earlier function's signature under a new name.

The same (n, dup_rate, seed) always gives the same corpus, in either of
the two formats objident reads: a components JSON document or a ``.decls``
declaration file.

    python3 bench/corpus.py --n 300 --seed 1 --format components --out c.json
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Function:
    name: str
    returns: str | None          # struct name, "int", or None for void
    args: tuple[str, ...]        # struct names or "int", in parameter order
    uses: tuple[str, ...]        # struct names, sorted


@dataclass(frozen=True)
class Corpus:
    subjects: tuple[str, ...]
    functions: tuple[Function, ...]


def _signature(subjects: set[str], returns, args, uses) -> tuple:
    """What the pattern row of a function depends on."""
    return (returns if returns in subjects else None,
            frozenset(a for a in args if a in subjects),
            frozenset(uses))


def _random_function(rng: random.Random, subjects: tuple[str, ...]):
    home = rng.choice(subjects)
    other = rng.choice(subjects)
    roll = rng.random()
    returns = home if roll < 0.3 else other if roll < 0.45 else rng.choice(("int", None))
    args = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        args.append(home if roll < 0.5 else "int" if roll < 0.75 else rng.choice(subjects))
    uses = {home}
    if rng.random() < 0.3:
        uses.add(rng.choice(subjects))
    return returns, tuple(args), tuple(sorted(uses))


def generate(n: int, dup_rate: float, seed: int) -> Corpus:
    """Build the corpus for one (size, duplicate rate, seed)."""
    if n < 2:
        raise ValueError("a corpus needs at least 2 functions")
    if not 0 <= dup_rate < 1:
        raise ValueError("dup_rate must be in [0, 1)")
    rng = random.Random(f"objident-bench:{n}:{dup_rate}:{seed}")
    subjects = tuple(f"s{i:03d}" for i in range(max(1, n // 10)))
    subject_set = set(subjects)
    copies = set(rng.sample(range(1, n), round(dup_rate * n)))
    seen: set[tuple] = set()
    functions: list[Function] = []
    for i in range(n):
        name = f"fn{i:04d}"
        if i in copies:
            source = rng.choice(functions)
            functions.append(Function(name, source.returns, source.args, source.uses))
            continue
        for _ in range(1000):
            returns, args, uses = _random_function(rng, subjects)
            signature = _signature(subject_set, returns, args, uses)
            if signature not in seen:
                break
        else:
            raise ValueError(f"cannot draw {n} distinct rows; use a larger n")
        seen.add(signature)
        functions.append(Function(name, returns, args, uses))
    return Corpus(subjects, tuple(functions))


def to_components(corpus: Corpus) -> str:
    """The corpus as a components document, in objident's canonical layout."""
    doc = {
        "subject_types": list(corpus.subjects),
        "components": [
            {"name": f.name, "returns": f.returns, "args": list(f.args),
             "uses_fields": list(f.uses)}
            for f in corpus.functions
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _c_type(name: str | None) -> str:
    if name is None:
        return "void"
    if name == "int":
        return "int"
    return f"struct {name} *"


def to_decls(corpus: Corpus) -> str:
    """The corpus as a declaration file with a ``%types`` directive."""
    lines = ["# generated corpus", "%types " + " ".join(corpus.subjects)]
    for f in corpus.functions:
        params = ", ".join(f"{_c_type(a)} p{k}" for k, a in enumerate(f.args))
        line = f"{_c_type(f.returns)} {f.name} ({params})"
        if f.uses:
            line += " ! uses: " + ", ".join(f.uses)
        lines.append(line)
    return "\n".join(lines) + "\n"


RENDER = {"components": to_components, "decls": to_decls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="number of functions")
    parser.add_argument("--dup-rate", type=float, default=0.0,
                        help="share of functions that copy an earlier one")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--format", choices=sorted(RENDER), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    corpus = generate(args.n, args.dup_rate, args.seed)
    args.out.write_text(RENDER[args.format](corpus), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
