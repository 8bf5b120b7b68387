"""The expected state of the collection, kept apart from the storage stack.

The model starts from the corpus factory's entries and applies the
writes the workload itself makes, as plain Python lists.  Every output
the benchmark reads back is compared with it; nothing in here calls
into a backend, a service or the wire.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from repro.repository.entry import ExampleEntry
from repro.repository.query import Q, Query
from repro.repository.template import EntryType


def canonical_bytes(entry: ExampleEntry) -> int:
    """Size of the entry as canonical JSON: the user's bytes."""
    return len(json.dumps(entry.to_dict(), sort_keys=True,
                          separators=(",", ":"),
                          ensure_ascii=False).encode("utf-8"))


class Model:
    """Every version of every entry the collection should hold."""

    def __init__(self, entries: Iterable[ExampleEntry]) -> None:
        self.versions: dict[str, list[ExampleEntry]] = {
            entry.identifier: [entry] for entry in entries}
        #: Identifiers this run wrote, in first-write order.
        self.written: dict[str, None] = {}

    def latest(self, identifier: str) -> ExampleEntry:
        return self.versions[identifier][-1]

    def add(self, entry: ExampleEntry) -> None:
        if entry.identifier in self.versions:
            raise ValueError(f"model already holds {entry.identifier!r}")
        self.versions[entry.identifier] = [entry]
        self.written[entry.identifier] = None

    def add_version(self, entry: ExampleEntry) -> None:
        history = self.versions[entry.identifier]
        if not entry.version > history[-1].version:
            raise ValueError(f"version of {entry.identifier!r} must grow")
        history.append(entry)
        self.written[entry.identifier] = None

    def replace_latest(self, entry: ExampleEntry) -> None:
        history = self.versions[entry.identifier]
        if entry.version != history[-1].version:
            raise ValueError(f"version of {entry.identifier!r} must stay")
        history[-1] = entry
        self.written[entry.identifier] = None

    def user_bytes(self) -> int:
        return sum(canonical_bytes(entry)
                   for history in self.versions.values()
                   for entry in history)


@dataclass(frozen=True)
class QuerySpec:
    """One query page as the benchmark generates it.

    ``query()`` spells it in the program's Q-AST; ``admits()`` is the
    benchmark's own reading of the structured atoms over a model entry.
    The text atom is left to the reference evaluator, which ranks as
    well as filters.
    """

    text: str
    entry_type: EntryType | None = None
    claim: tuple[str, bool] | None = None
    author: str | None = None
    reviewed: bool | None = None
    offset: int = 0
    limit: int = 20

    def query(self) -> Query:
        query = Q.text(self.text)
        if self.entry_type is not None:
            query = query & Q.type(self.entry_type)
        if self.claim is not None:
            query = query & Q.property(*self.claim)
        if self.author is not None:
            query = query & Q.author(self.author)
        if self.reviewed is not None:
            query = query & (Q.reviewed() if self.reviewed
                             else Q.provisional())
        return query

    def admits(self, entry: ExampleEntry) -> bool:
        if self.entry_type is not None and self.entry_type not in entry.types:
            return False
        if self.claim is not None and self.claim not in {
                (claim.name, claim.holds) for claim in entry.properties}:
            return False
        if self.author is not None and self.author not in entry.authors:
            return False
        if self.reviewed is not None and (
                (entry.version.major >= 1) != self.reviewed):
            return False
        return True


class Checks:
    """Collects every disagreement between the program and the model."""

    #: How many disagreements are kept verbatim for the report.
    KEEP = 20

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.count = 0
        self.compared = 0

    def fail(self, message: str) -> None:
        self.count += 1
        if len(self.failures) < self.KEEP:
            self.failures.append(message)

    def same(self, what: str, got: object, expected: object) -> None:
        self.compared += 1
        if got != expected:
            self.fail(f"{what}: got {_short(got)}, expected {_short(expected)}")

    @property
    def ok(self) -> bool:
        return self.count == 0 and self.compared > 0


def _short(value: object) -> str:
    if isinstance(value, ExampleEntry):
        return f"<{value.identifier} {value.version}>"
    if isinstance(value, list) and value and isinstance(
            value[0], ExampleEntry):
        return "[" + ", ".join(_short(item) for item in value[:4]) + ", ...]"
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def edit_discussion(page: str, old: str, new: str) -> str:
    """An editor's change to a wikidot page: rewrite the Discussion."""
    marker = f"++ Discussion\n{old}\n"
    if marker not in page:
        raise ValueError("page has no Discussion section to edit")
    return page.replace(marker, f"++ Discussion\n{new}\n", 1)
