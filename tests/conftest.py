from dataclasses import dataclass
from pathlib import Path

import pytest

from objident import (
    ComponentRecord,
    build_pattern_matrix,
    derive_relations,
    parse_components,
)
from objident.features import PatternMatrix, RelationSchema

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# Golden pattern rows for the two bundled corpora, in corpus order.
# Columns: R0 returns <first>, R1 returns <second>, R2 has-arg <first>,
# R3 has-arg <second>, R4 uses-field <first>, R5 uses-field <second>.
STACKS_GOLD_ROWS = {
    "initRef": (0, 1, 0, 0, 0, 1),
    "initExec": (1, 0, 0, 0, 1, 0),
    "isEmptyRef": (0, 0, 0, 1, 0, 1),
    "isEmptyExec": (0, 0, 1, 0, 1, 0),
    "ePush": (0, 0, 1, 0, 1, 0),
    "rPush": (0, 0, 0, 1, 0, 1),
    "ePop": (0, 0, 1, 0, 1, 0),
    "rPop": (0, 0, 0, 1, 0, 1),
    "traRef": (0, 1, 0, 1, 0, 1),
    "traExec": (1, 0, 1, 0, 1, 0),
}

STACK_QUEUE_GOLD_ROWS = {
    "initStack": (1, 0, 0, 0, 1, 0),
    "initQ": (0, 1, 0, 0, 0, 1),
    "isEmptyStack": (0, 0, 1, 0, 1, 0),
    "isEmptyQ": (0, 0, 0, 1, 0, 1),
    "push": (0, 0, 1, 0, 1, 0),
    "enQ": (0, 0, 0, 1, 0, 1),
    "pop": (0, 0, 1, 0, 1, 0),
    "deQ": (0, 0, 0, 1, 0, 1),
}


def bit_rows(pattern: PatternMatrix) -> tuple[tuple[int, ...], ...]:
    """The pattern's rows as tuples of 0/1 cells, column 0 first: the form
    the gold rows and the brute-force oracle use."""
    return tuple(tuple(row >> c & 1 for c in range(pattern.n_cols)) for row in pattern.rows)


@dataclass(frozen=True)
class Corpus:
    subjects: tuple[str, ...]
    records: tuple[ComponentRecord, ...]
    schema: RelationSchema
    pattern: PatternMatrix


def load_corpus(name: str) -> Corpus:
    subjects, records = parse_components((FIXTURE_DIR / f"{name}.json").read_text())
    schema = derive_relations(subjects)
    return Corpus(subjects, records, schema, build_pattern_matrix(records, schema))


@pytest.fixture(scope="session")
def stacks() -> Corpus:
    return load_corpus("stacks")


@pytest.fixture(scope="session")
def stack_queue() -> Corpus:
    return load_corpus("stack_queue")
