"""The three workloads: their stacks, seeded operation rounds and checks.

Each workload drives one stack from a single client in a closed loop:
the next operation starts only when the previous one has returned
(``curate_ingest`` keeps its eight burst writes in flight together and
is otherwise sequential).  Every input comes from the seed: the corpus
is the corpus factory's, and round ``r`` draws its operations from a
``random.Random`` seeded with the workload name, the seed and ``r``.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import random
import shutil
import socket
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import quote

from repro.harness.workloads import (
    CORPUS_PROPERTY_RANKS,
    CORPUS_TYPE_RANKS,
    CorpusSpec,
    ZipfPool,
    corpus_entries,
    corpus_entry,
)
from repro.repository import (
    AsyncRepositoryService,
    FileBackend,
    HTTPBackend,
    MemoryBackend,
    Q,
    RenderCache,
    ReplicatedBackend,
    RepositoryServer,
    RepositoryService,
    SQLiteBackend,
    plan,
)
from repro.repository.entry import Comment, ExampleEntry
from repro.repository.export import render_wikidot
from repro.repository.template import EntryType
from repro.repository.wiki_sync import WikiSyncLens

from bxbench.model import Checks, Model, QuerySpec, edit_discussion
from bxbench.tracing import Tracer

OP_KINDS = ("read", "wiki", "query", "batch", "write")
#: What a timed operation returns when the call raised.
FAILED = object()
#: One deck of writes: the four write kinds, in equal shares.
WRITE_DECK = ("add", "add_version", "comment", "wiki_edit")

#: Single words of the corpus factory's topics: a text atom on one of
#: them matches roughly one entry in eight.
QUERY_WORDS = (
    "composers", "tree", "database", "spreadsheet", "lens", "schema",
    "graph", "feature", "access", "citation", "ontology", "record",
    "string", "merge", "caches", "alignment",
)

#: Methods wrapped in spans, per layer.
_READS = ("get", "get_many", "execute_query")
_WRITES = ("add", "add_version", "replace_latest", "add_many")
LAYER_METHODS = {
    "client": _READS + _WRITES,
    "service": _READS + _WRITES,
    "aservice": _READS + _WRITES,
    "backends.replicated": _READS + _WRITES,
    "backends.sqlite": _READS + _WRITES,
    "backends.file": ("get", "get_many") + _WRITES,
    "render_cache": ("wiki_page",),
    "wiki_sync": ("get", "put"),
}


@dataclass(frozen=True)
class Size:
    """How big one workload is; ``smoke`` exists for the benchmark's tests."""

    corpus: int
    warmup_rounds: int
    setups: int
    batch: int
    query_offsets: tuple[int, ...]
    #: The query of every n-th round is also checked against the
    #: reference evaluator (which scans the whole model in Python).
    reference_every: int = 1


# ----------------------------------------------------------------------
# One timed operation.
# ----------------------------------------------------------------------


class Recorder:
    """Latency samples per operation type, plus failures and spans."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {kind: [] for kind in OP_KINDS}
        self.attempted = 0
        self.failed = 0
        self.recording = False
        self._serial = 0

    async def timed(self, kind: str, call, key: str | None = None):
        """Await ``call()``; returns its result, or FAILED when it raised."""
        opened = None
        if self.tracer is not None and self.recording:
            opened = self.tracer.begin(f"op.{kind}", "op", key)
            opened[0].trace = self._serial
            self._serial += 1
        if self.recording:
            self.attempted += 1
        start = time.perf_counter()
        try:
            result = await call()
        except Exception as error:  # noqa: BLE001 - counted, reported, run goes on
            if opened is not None:
                self.tracer.finish(opened)
            self.failed += 1
            print(f"bxbench: {kind} {key} failed: {error!r}", file=sys.stderr)
            return FAILED
        elapsed = time.perf_counter() - start
        if opened is not None:
            self.tracer.finish(opened)
        if self.recording:
            self.samples[kind].append(elapsed * 1000.0)
        return result


# ----------------------------------------------------------------------
# The stacks.  Each exposes the five operations as coroutines.
# ----------------------------------------------------------------------


class Stack:
    """One storage/serving stack under test, built in ``directory``."""

    def __init__(self, directory: Path, tracer: Tracer | None) -> None:
        self.directory = directory
        self.tracer = tracer
        self.lens = WikiSyncLens()
        self.replicated: ReplicatedBackend | None = None
        #: Set-up seconds spent waiting for the replica's bulk copy.
        self.untimed_s = 0.0
        self._wrap(self.lens, "wiki_sync")

    def _wrap(self, obj: object, layer: str) -> None:
        if self.tracer is not None:
            self.tracer.wrap(obj, layer, LAYER_METHODS[layer])

    def _sqlite(self, name: str) -> SQLiteBackend:
        backend = SQLiteBackend(self.directory / name, durability="normal")
        self._wrap(backend, "backends.sqlite")
        return backend

    def _replicated(self, mode: str, replica=None) -> ReplicatedBackend:
        if replica is None:
            replica = FileBackend(self.directory / "replica")
            self._wrap(replica, "backends.file")
        self.replicated = ReplicatedBackend(
            self._sqlite("primary.db"), replica, mode=mode)
        self._wrap(self.replicated, "backends.replicated")
        return self.replicated

    def _service(self, backend) -> RepositoryService:
        service = RepositoryService(backend)
        self._wrap(service, "service")
        return service

    async def wiki_put(self, page: str, source: ExampleEntry) -> ExampleEntry:
        """The §5.4 put: an edited page put back through the lens, stored."""
        merged = replace(self.lens.put(page, source), version=source.version)
        await self.write("replace_latest", merged)
        return merged

    def counters(self) -> dict[str, float]:
        """Cumulative counters of every layer this stack has."""
        found: dict[str, float] = {}
        cache = self.service.cache_stats()
        for group, name in (("entry_cache", "service.lru"),
                            ("decode_memo", "codec.memo")):
            found[f"{name}.hits"] = cache[group]["hits"]
            found[f"{name}.misses"] = cache[group]["misses"]
        render = self.render_cache.cache_stats()
        found["render_cache.hits"] = render["hits"]
        found["render_cache.misses"] = render["misses"]
        if self.replicated is not None:
            found["replicated.backpressure_syncs"] = (
                self.replicated.backpressure_syncs)
        return found

    def replication_lag(self) -> int:
        if self.replicated is None:
            return 0
        return max(self.replicated.replication_lag())

    def wait_for_replication(self) -> None:
        if (self.replicated is not None
                and not self.replicated.wait_for_replication(timeout=60)):
            raise RuntimeError("replica did not catch up within 60 s")

    def catch_up(self) -> None:
        """Wait for the replica's copy of the bulk load, off the set-up clock.

        The copy runs on the applier thread and, for a FileBackend,
        follows the filesystem's moment-to-moment speed (see README.md).
        """
        start = time.perf_counter()
        self.wait_for_replication()
        self.untimed_s += time.perf_counter() - start


class BrowseHTTP(Stack):
    """HTTPBackend -> RepositoryServer -> service -> async replication.

    The FileBackend copy is mirrored asynchronously, and its applier
    runs only between operations, as if it had a CPU of its own: on the
    one CPU a run is pinned to, its file writes would otherwise take
    turns with the write's own response (see README.md).
    """

    def __init__(self, directory: Path, tracer: Tracer | None) -> None:
        super().__init__(directory, tracer)
        self.service = self._service(self._replicated("async"))
        self.server: RepositoryServer | None = None
        self.client: HTTPBackend | None = None
        self._http: http.client.HTTPConnection | None = None
        #: The wiki reader's own validator cache, as a browser keeps one.
        self._pages: dict[str, tuple[str, str]] = {}

    async def load(self, corpus: list[ExampleEntry]) -> None:
        self.service.add_many(corpus)
        self.catch_up()
        self.server = RepositoryServer(self.service).start()
        if self.tracer is not None:
            # The one non-public hook: the handler class of the
            # listening socket, so server spans start after the request
            # line is read rather than while a kept-alive socket idles.
            httpd = self.server._httpd
            httpd.RequestHandlerClass = self.tracer.wrap_handler(
                httpd.RequestHandlerClass)
            self._wrap(self.server.render_cache, "render_cache")
        self.client = HTTPBackend(self.server.url)
        self._wrap(self.client, "client")
        self._http = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=30)
        self._http.connect()
        self._http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.client.execute_query(plan(Q.text("model"), limit=1))

    def wait_for_replication(self) -> None:
        self.replicated.start_appliers()
        super().wait_for_replication()
        self.replicated.kill_applier(0)

    @property
    def render_cache(self) -> RenderCache:
        return self.server.render_cache

    async def read(self, identifier):
        return self.client.get(identifier)

    async def wiki(self, identifier: str) -> str:
        cached = self._pages.get(identifier)
        headers = {"If-None-Match": cached[0]} if cached else {}
        self._http.request("GET", f"/wiki/{quote(identifier, safe='')}",
                           headers=headers)
        response = self._http.getresponse()
        body = response.read()
        if response.status == 304 and cached is not None:
            return cached[1]
        if response.status != 200:
            raise RuntimeError(f"GET /wiki/{identifier}: {response.status}")
        page = body.decode("utf-8")
        self._pages[identifier] = (response.getheader("ETag"), page)
        return page

    async def query(self, query_plan):
        return self.client.execute_query(query_plan)

    async def batch(self, identifiers):
        return self.client.get_many(identifiers)

    async def write(self, kind: str, entry: ExampleEntry) -> None:
        getattr(self.client, kind)(entry)

    async def versions_many(self, identifiers):
        return self.client.versions_many(identifiers)

    def counters(self) -> dict[str, float]:
        found = super().counters()
        wire = self.client.wire_cache_stats()
        for group in ("validation", "line_memo"):
            found[f"client.{group}.hits"] = wire[group]["hits"]
            found[f"client.{group}.misses"] = wire[group]["misses"]
        server = self.server.metrics.snapshot()
        found["server.conditional"] = server["conditional"]["requests"]
        found["server.not_modified"] = server["conditional"]["not_modified"]
        found["server.gzip_raw"] = server["gzip"]["bytes_raw"]
        found["server.gzip_sent"] = server["gzip"]["bytes_sent"]
        found["server.stream_responses"] = server["stream"]["responses"]
        found["server.stream_lines"] = server["stream"]["lines"]
        return found

    async def close(self) -> None:
        if self._http is not None:
            self._http.close()
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
        self.service.close()


class ScanCold(Stack):
    """RepositoryService over SQLite with a RenderCache, no wire."""

    def __init__(self, directory: Path, tracer: Tracer | None) -> None:
        super().__init__(directory, tracer)
        self.service = self._service(self._sqlite("scan.db"))
        self.render_cache = RenderCache(self.service)
        self._wrap(self.render_cache, "render_cache")

    async def load(self, corpus: list[ExampleEntry]) -> None:
        self.service.add_many(corpus)
        self.service.execute_query(plan(Q.text("model"), limit=1))

    async def read(self, identifier):
        return self.service.get(identifier)

    async def wiki(self, identifier: str) -> str:
        return self.render_cache.wiki_page(identifier)

    async def query(self, query_plan):
        return self.service.execute_query(query_plan)

    async def batch(self, identifiers):
        return self.service.get_many(identifiers)

    async def write(self, kind: str, entry: ExampleEntry) -> None:
        getattr(self.service, kind)(entry)

    async def versions_many(self, identifiers):
        return self.service.versions_many(identifiers)

    async def close(self) -> None:
        self.render_cache.close()
        self.service.close()


class CurateIngest(Stack):
    """AsyncRepositoryService over async replication, with a RenderCache."""

    def __init__(self, directory: Path, tracer: Tracer | None) -> None:
        super().__init__(directory, tracer)
        # An SQLite copy, not a FileBackend one: see README.md.  Its
        # writes run on the applier thread, outside every operation, and
        # are not traced.
        replica = SQLiteBackend(self.directory / "replica.db",
                                durability="normal")
        self.service = self._service(self._replicated("async", replica))
        self.render_cache = RenderCache(self.service)
        self._wrap(self.render_cache, "render_cache")
        self.aservice: AsyncRepositoryService | None = None

    async def load(self, corpus: list[ExampleEntry]) -> None:
        # Built here, not in __init__: its idle event binds to the
        # running loop.
        self.aservice = AsyncRepositoryService(self.service)
        self._wrap(self.aservice, "aservice")
        await self.aservice.add_many(corpus)
        self.catch_up()
        await self.aservice.execute_query(plan(Q.text("model"), limit=1))

    async def read(self, identifier):
        return await self.aservice.get(identifier)

    async def wiki(self, identifier: str) -> str:
        return self.render_cache.wiki_page(identifier)

    async def query(self, query_plan):
        return await self.aservice.execute_query(query_plan)

    async def batch(self, identifiers):
        return await self.aservice.get_many(identifiers)

    async def write(self, kind: str, entry: ExampleEntry) -> None:
        await getattr(self.aservice, kind)(entry)

    async def versions_many(self, identifiers):
        return await self.aservice.versions_many(identifiers)

    def counters(self) -> dict[str, float]:
        found = super().counters()
        admission = self.aservice.admission_stats()
        found["aservice.groups"] = admission["coalesced_groups"]
        found["aservice.grouped_writes"] = admission["coalesced_writes"]
        return found

    async def close(self) -> None:
        self.render_cache.close()
        if self.aservice is not None:
            await self.aservice.close()
        else:
            self.service.close()


# ----------------------------------------------------------------------
# The workloads: what each round does.
# ----------------------------------------------------------------------


class Workload:
    """A stack plus its seeded rounds; subclasses fix the mix."""

    name = ""
    stack_class: type[Stack] = Stack
    sizes: dict[str, Size] = {}

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = self.sizes[size]
        self.spec = CorpusSpec(count=self.size.corpus, seed=seed)
        self.corpus = list(corpus_entries(self.spec))
        self.author_pool = self.spec.pools()[2]
        # Hotness order of the initial corpus, shuffled by the seed.
        order = [entry.identifier for entry in self.corpus]
        random.Random(f"{self.name}:{seed}:order").shuffle(order)
        self.hot = ZipfPool(order, skew=1.1)
        # Query words and shapes, and write kinds, are dealt round by
        # round from a seed-shuffled deck rather than drawn freely, so
        # every run sees the same mix: the seed changes which entries
        # are touched, not how much work the mix is.
        deck = random.Random(f"{self.name}:{seed}:deck")
        self.query_deck = [(word, shape) for word in QUERY_WORDS
                           for shape in range(4)]
        deck.shuffle(self.query_deck)
        self.write_deck = list(WRITE_DECK)
        deck.shuffle(self.write_deck)

    def rng(self, round_no: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_no}")

    def write_kind(self, serial: int) -> str:
        return self.write_deck[serial % len(self.write_deck)]

    def query_spec(self, rng: random.Random, round_no: int) -> QuerySpec:
        word, shape = self.query_deck[round_no % len(self.query_deck)]
        return QuerySpec(
            text=word,
            entry_type=(rng.choice(CORPUS_TYPE_RANKS[:2])
                        if shape in (0, 3) else None),
            claim=((rng.choice(CORPUS_PROPERTY_RANKS[:4]), rng.random() < 0.8)
                   if shape == 1 else None),
            author=self.author_pool.pick(rng) if shape == 2 else None,
            reviewed=(rng.random() < 0.5) if shape == 3 else None,
            offset=rng.choice(self.size.query_offsets),
        )

    def plan_round(self, rng: random.Random, round_no: int,
                   phase: "Phase") -> list:
        """The round's operations: a list of steps, in order.

        A step is ``(kind, argument)``, or a list of write steps that
        run concurrently as one burst.
        """
        raise NotImplementedError


class BrowseWorkload(Workload):
    name = "browse_http"
    stack_class = BrowseHTTP
    sizes = {
        "full": Size(corpus=500, warmup_rounds=40, setups=5, batch=32,
                     query_offsets=(0, 20, 40)),
        "smoke": Size(corpus=60, warmup_rounds=2, setups=1, batch=8,
                      query_offsets=(0, 5)),
    }

    def plan_round(self, rng, round_no, phase):
        kinds = ["read"] * 12 + ["wiki"] * 2 + ["query", "batch"] + ["write"] * 2
        rng.shuffle(kinds)
        steps = []
        serial = 2 * round_no
        for kind in kinds:
            if kind in ("read", "wiki"):
                steps.append((kind, self.hot.pick(rng)))
            elif kind == "query":
                steps.append((kind, self.query_spec(rng, round_no)))
            elif kind == "batch":
                steps.append((kind, self.hot.sample(rng, self.size.batch)))
            else:
                steps.append(("write", (self.write_kind(serial),
                                        self.hot.pick(rng), rng.random())))
                serial += 1
        return steps


class ScanWorkload(Workload):
    name = "scan_cold"
    stack_class = ScanCold
    sizes = {
        "full": Size(corpus=16384, warmup_rounds=3, setups=3, batch=256,
                     query_offsets=(0, 100, 300, 600), reference_every=8),
        "smoke": Size(corpus=120, warmup_rounds=1, setups=1, batch=16,
                      query_offsets=(0, 5, 10)),
    }

    def plan_round(self, rng, round_no, phase):
        kinds = ["read"] * 8 + ["wiki", "query", "batch", "write"]
        rng.shuffle(kinds)
        ids = phase.identifiers
        steps = []
        for kind in kinds:
            if kind in ("read", "wiki"):
                steps.append((kind, rng.choice(ids)))
            elif kind == "query":
                steps.append((kind, self.query_spec(rng, round_no)))
            elif kind == "batch":
                steps.append((kind, rng.sample(ids, self.size.batch)))
            else:
                steps.append(("write", (self.write_kind(round_no),
                                        rng.choice(ids), rng.random())))
        return steps


class CurateWorkload(Workload):
    name = "curate_ingest"
    stack_class = CurateIngest
    #: Concurrent writes per burst, each to a distinct entry.
    burst = 8
    sizes = {
        "full": Size(corpus=1000, warmup_rounds=10, setups=5, batch=64,
                     query_offsets=(0, 20)),
        "smoke": Size(corpus=60, warmup_rounds=2, setups=1, batch=8,
                      query_offsets=(0, 5)),
    }

    def plan_round(self, rng, round_no, phase):
        kinds = [self.write_kind(round_no * self.burst + slot)
                 for slot in range(self.burst)]
        targets = rng.sample(phase.identifiers, self.burst)
        burst = [("write", (kind, target, rng.random()))
                 for kind, target in zip(kinds, targets)]
        # Reads follow the burst's own entries (an added entry is read
        # under its new identifier, resolved when the burst has run).
        steps = [burst]
        steps += [("read", ("burst", slot))
                  for slot in rng.sample(range(self.burst), 4)]
        steps.append(("query", self.query_spec(rng, round_no)))
        steps.append(("batch", rng.sample(phase.identifiers, self.size.batch)))
        steps.append(("wiki", ("burst", rng.randrange(self.burst))))
        return steps


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (BrowseWorkload, ScanWorkload, CurateWorkload)
}


# ----------------------------------------------------------------------
# A phase: one stack, set up, warmed, measured, checked and closed.
# ----------------------------------------------------------------------


class Phase:
    """Drives one stack through the workload's rounds."""

    def __init__(self, workload: Workload, directory: Path,
                 tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.directory = directory
        self.tracer = tracer
        self.model = Model(workload.corpus)
        self.identifiers = [entry.identifier for entry in workload.corpus]
        self.next_index = workload.size.corpus
        self.recorder = Recorder(tracer)
        self.checks = Checks()
        self.stack: Stack | None = None
        #: The reference evaluator over a memory-backed copy of the
        #: model; built before the warm-up by start_reference().
        self.reference: RepositoryService | None = None
        self.setup_s = 0.0
        #: Seconds spent between operations on the benchmark's own
        #: business (checking outputs, waiting for the replica), left
        #: out of ops_s.
        self.paused_s = 0.0
        self.rounds = 0
        self.measured_rounds = 0
        self.measured_s = 0.0
        self.lag_peak = 0
        self.query_totals = [0, 0]
        self._burst_ids: list[str] = []

    # -- set-up ----------------------------------------------------------

    async def set_up(self) -> None:
        if self.directory.exists():
            shutil.rmtree(self.directory)
        self.directory.mkdir(parents=True)
        start = time.perf_counter()
        self.stack = self.workload.stack_class(self.directory, self.tracer)
        await self.stack.load(self.workload.corpus)
        self.setup_s = time.perf_counter() - start - self.stack.untimed_s

    def start_reference(self) -> None:
        self.reference = RepositoryService(MemoryBackend())
        self.reference.add_many(self.model.latest(identifier)
                                for identifier in self.model.versions)

    def apply(self, kind: str, entry: ExampleEntry) -> None:
        """A write that landed: into the model and the reference."""
        getattr(self.model, kind)(entry)
        getattr(self.reference, kind)(entry)

    @contextlib.contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start

    async def tear_down(self) -> int:
        """Close the stack; returns the bytes it left on disk."""
        await self.stack.close()
        return sum(path.stat().st_size
                   for path in self.directory.rglob("*") if path.is_file())

    # -- rounds ------------------------------------------------------------

    async def run_rounds(self, *, count: int | None = None,
                         seconds: float | None = None,
                         record: bool = True) -> None:
        """Whole rounds: ``count`` of them, or until ``seconds`` passed."""
        self.recorder.recording = record
        done = 0
        paused_before = self.paused_s
        start = time.perf_counter()
        while True:
            if count is not None and done >= count:
                break
            if (seconds is not None and done > 0
                    and time.perf_counter() - start >= seconds):
                break
            await self.run_round(self.rounds)
            self.rounds += 1
            done += 1
        if record:
            self.measured_s = (time.perf_counter() - start
                               - (self.paused_s - paused_before))
            self.measured_rounds = done

    async def run_round(self, round_no: int) -> None:
        rng = self.workload.rng(round_no)
        for step in self.workload.plan_round(rng, round_no, self):
            if isinstance(step, list):
                await self.burst(step, round_no)
            else:
                await self.step(*step, round_no=round_no)

    async def burst(self, steps: list, round_no: int) -> None:
        writes = [self.prepare_write(*argument, round_no=round_no, slot=slot)
                  for slot, (_, argument) in enumerate(steps)]
        outcomes = await asyncio.gather(*(
            self.recorder.timed("write", call, key)
            for call, key, _ in writes))
        with self.paused():
            for (_, _, after), outcome in zip(writes, outcomes):
                if outcome is not FAILED:
                    after(outcome)
        self._burst_ids = [key for _, key, _ in writes]
        self.lag_peak = max(self.lag_peak, self.stack.replication_lag())

    async def step(self, kind: str, argument, *, round_no: int) -> None:
        """One operation, then its output checked against the model.

        Checking right away, outside the timed call, keeps no results
        alive: a run's memory and collector work stay the program's.
        """
        stack, model, timed = self.stack, self.model, self.recorder.timed
        checks = self.checks
        if isinstance(argument, tuple) and argument[0] == "burst":
            argument = self._burst_ids[argument[1]]
        if kind == "read":
            got = await timed("read", lambda: stack.read(argument), argument)
            if got is not FAILED:
                with self.paused():
                    checks.same("read " + argument, got,
                                model.latest(argument))
        elif kind == "wiki":
            page = await timed("wiki", lambda: stack.wiki(argument), argument)
            if page is not FAILED:
                with self.paused():
                    checks.same(f"wiki page {argument}", page,
                                render_wikidot(model.latest(argument)))
        elif kind == "query":
            query_plan = plan(argument.query(), offset=argument.offset,
                              limit=argument.limit)
            result = await timed("query", lambda: stack.query(query_plan))
            if result is not FAILED:
                with self.paused():
                    self.check_query(argument, query_plan, result, round_no)
        elif kind == "batch":
            got = await timed("batch", lambda: stack.batch(argument))
            if got is not FAILED:
                with self.paused():
                    checks.same(f"batch of {len(argument)}", got,
                                [model.latest(i) for i in argument])
        else:
            call, key, after = self.prepare_write(*argument,
                                                  round_no=round_no, slot=0)
            outcome = await timed("write", call, key)
            if outcome is not FAILED:
                with self.paused():
                    after(outcome)
            self.lag_peak = max(self.lag_peak, self.stack.replication_lag())
            with self.paused():
                self.stack.wait_for_replication()

    def check_query(self, spec: QuerySpec, query_plan, result,
                    round_no: int) -> None:
        checks = self.checks
        checks.same("query page size", len(result.hits),
                    min(spec.limit, max(0, result.total - spec.offset)))
        if round_no % self.workload.size.reference_every == 0:
            expected = self.reference.execute_query(query_plan)
            checks.same(f"query {spec} ids", result.identifiers,
                        expected.identifiers)
            checks.same(f"query {spec} total", result.total, expected.total)
        if self.recorder.recording:
            self.query_totals[0] += result.total
            self.query_totals[1] += len(result.hits)
        for hit in result.hits:
            history = self.model.versions.get(hit.identifier)
            if history is None:
                checks.fail(f"query hit {hit.identifier} is unknown")
                continue
            checks.same(f"query hit {hit.identifier}", hit.entry, history[-1])
            if not spec.admits(history[-1]):
                checks.fail(f"query hit {hit.identifier} fails {spec}")

    def prepare_write(self, kind: str, target: str, draw: float, *,
                      round_no: int, slot: int):
        """(call, key, after): the write, and what it does to the model."""
        stack, model = self.stack, self.model
        if kind == "add":
            entry = corpus_entry(self.workload.spec, self.next_index)
            self.next_index += 1

            def after(outcome, entry=entry) -> None:
                self.apply("add", entry)
                self.identifiers.append(entry.identifier)
            return (lambda: stack.write("add", entry)), entry.identifier, after
        base = model.latest(target)
        if kind == "add_version":
            version = (base.version.next_major() if draw < 0.25
                       else base.version.next_minor())
            overview = base.overview.split(" Revised in round")[0]
            entry = replace(base, version=version, overview=(
                f"{overview} Revised in round {round_no}."))
            return ((lambda: stack.write("add_version", entry)), target,
                    lambda outcome: self.apply("add_version", entry))
        if kind == "comment":
            comment = Comment(self.workload.author_pool.items[slot],
                              "2014-03-28",
                              f"Checked in round {round_no}.")
            entry = replace(base, comments=base.comments[-3:] + (comment,))
            return ((lambda: stack.write("replace_latest", entry)), target,
                    lambda outcome: self.apply("replace_latest", entry))
        # A wiki edit: the curator's page is the lens get of the entry
        # (the page a wiki operation serves); the write is the put.
        text = f"Edited on the wiki in round {round_no}, slot {slot}."
        page = edit_discussion(render_wikidot(base), base.discussion, text)
        expected = replace(base, discussion=text)

        def after_edit(merged) -> None:
            # The lens put must produce exactly the edited entry.
            self.checks.same(f"wiki edit {target}", merged, expected)
            self.apply("replace_latest", expected)
        return (lambda: stack.wiki_put(page, base)), target, after_edit

    # -- checks ------------------------------------------------------------

    async def check_final_state(self) -> None:
        """Histories, replicas, reference plans and the lens laws."""
        checks, model, stack = self.checks, self.model, self.stack
        every = list(model.versions)
        checks.same("latest of every entry", await stack.batch(every),
                    [model.latest(identifier) for identifier in every])
        written = list(model.written)
        if written:
            listing = await stack.versions_many(written)
            for identifier in written:
                checks.same(f"versions of {identifier}",
                            listing.get(identifier),
                            [e.version for e in model.versions[identifier]])
            requests = [(e.identifier, e.version) for identifier in written
                        for e in model.versions[identifier]]
            checks.same("every written version", await stack.batch(requests),
                        [e for identifier in written
                         for e in model.versions[identifier]])
        if stack.replicated is not None:
            replicated = stack.replicated
            if not replicated.wait_for_replication(timeout=60):
                checks.fail("replica did not catch up within 60 s")
            primary, replica = replicated.primary, replicated.replicas[0]
            ids = primary.identifiers()
            checks.same("replica listing", replica.versions_many(ids),
                        primary.versions_many(ids))
            checks.same("replica latest", replica.get_many(ids),
                        primary.get_many(ids))
        await self.check_reference_plans()
        for identifier in written[:40]:
            page = await stack.wiki(identifier)
            stored = await stack.read(identifier)
            checks.same(f"PutGet {identifier}", page,
                        render_wikidot(model.latest(identifier)))
            checks.same(f"GetPut {identifier}",
                        WikiSyncLens().put(page, stored), stored)

    async def check_reference_plans(self) -> None:
        """Fixed plans against the evaluator over a memory-backed model."""
        reference = self.reference
        hot_author = self.workload.author_pool.items[0]
        plans = (
            plan(Q.text("tree model"), limit=50),
            plan(Q.type(EntryType.PRECISE) & Q.property("correct", True),
                 sort="identifier", offset=10, limit=30),
            plan(Q.author(hot_author) | Q.reviewed(), limit=25),
            plan(Q.text("sync") & ~Q.type(EntryType.SKETCH),
                 offset=5, limit=20),
            plan(Q.text("edited wiki"), limit=40),
            plan(Q.provisional() & Q.text("revised"), sort="identifier",
                 limit=40),
            # Deep pages, as scan_cold's queries take them.
            plan(Q.text("tree"), offset=300, limit=20),
            plan(Q.text("database") | Q.text("graph"), offset=600, limit=20),
        )
        for query_plan in plans:
            got = await self.stack.query(query_plan)
            expected = reference.execute_query(query_plan)
            what = f"plan {query_plan.where}"
            self.checks.same(what + " ids", got.identifiers,
                             expected.identifiers)
            self.checks.same(what + " total", got.total, expected.total)
            self.checks.same(what + " facets", got.facets, expected.facets)
            self.checks.same(what + " entries", got.entries, expected.entries)
            if any(abs(a.score - b.score) > 1e-9
                   for a, b in zip(got.hits, expected.hits)):
                self.checks.fail(what + " scores differ")
        reference.close()

    # -- results -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        samples = self.recorder.samples
        completed = sum(len(values) for values in samples.values())
        return {
            "ops_s": completed / self.measured_s,
            "read_p50_ms": statistics.median(samples["read"]),
            "read_p90_ms": p90(samples["read"]),
            "wiki_p50_ms": statistics.median(samples["wiki"]),
            "query_p50_ms": statistics.median(samples["query"]),
            "query_p90_ms": p90(samples["query"]),
            "batch_p50_ms": statistics.median(samples["batch"]),
            "write_p50_ms": statistics.median(samples["write"]),
            "write_p90_ms": p90(samples["write"]),
        }


def p90(values: list[float]) -> float:
    """The 90th percentile (linear interpolation between samples)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]
