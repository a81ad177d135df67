"""The benchmark's workloads: inputs from a seed, set-up, load, checks.

* ``serve_adhoc`` — an ad-hoc stream with statistics drift: every SQL
  text is new, a quarter of them a new query shape, and every few dozen
  requests the statistics are refreshed.  Template rebinds, cold
  compiles, drift patching and store writes sit on the request path.
* ``campaign`` — back-to-back MSO fuzzing campaigns over the worker
  pool: dimensioning, compile and the sweep do the work; no execution.

The databases are fixed (``DATA_SEED``); ``--seed`` varies what is sent
to them: the request lists, the drift statistics and the campaign seeds.
"""

from __future__ import annotations

import math
import random
import resource
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import BouquetConfig, Catalog
from repro.catalog.tpch import tpch_generator_spec, tpch_schema
from repro.datagen.database import Database
from repro.par import WorkerPool, leaked_segments
from repro.serve import BouquetServer, ServeGateway, ServeRequest
from repro.wlgen import GeneratorConfig, QueryGenerator
from repro.wlgen.campaign import BOUND_RTOL, CampaignConfig, build_env, run_campaign

from .oracle import RowCounter

DATA_SEED = 7
STATS_SAMPLE = 1500
STATS_SEED = 3
#: Set-ups per run, as (least, budget in seconds): before the clock the
#: last one is kept for the run; after it, more are made and closed, so
#: the samples span the run, not one moment of a host whose speed drifts.
#: At most ``SETUP_MOST`` each time; ``setup_s`` is the median of all.
SETUP_BEFORE = (3, 1.0)
SETUP_AFTER = (2, 2.0)
SETUP_MOST = 25

ADHOC_SCALE = 0.003
ADHOC_NEW_SHAPE = 0.25
ADHOC_REFRESH_EVERY = 40
#: Queries whose result exceeds this many rows are not sent.  Joins that
#: fan out through a small shared table (supplier, nation) reach 26M rows
#: at scale 0.003, and executing one takes gigabytes of memory.
ADHOC_MAX_ROWS = 50_000
#: Two joins and two range predicates, no grouping: every answer is a join
#: row count, and every shape has the same number of error dimensions, so
#: compile cost varies little from one seed's shapes to another's.
ADHOC_GENERATOR = GeneratorConfig(
    min_joins=2,
    max_joins=2,
    min_predicates=2,
    max_predicates=2,
    equality_weight=0.0,
    range_weight=1.0,
    in_weight=0.0,
    groupby_probability=0.0,
    aggregate_probability=0.0,
)

CAMPAIGN_SCALE = 0.003
#: Queries per campaign.  Below 4 x workers the campaign hands the pool
#: one task per query, so the pool's own task latencies are per-query
#: latencies.
CAMPAIGN_COUNT = 15
CAMPAIGN_WORKERS = 2

#: Items generated per second of run: above the highest rate seen (97),
#: so a run ends on its clock, not on its list.
ADHOC_ITEMS_PER_SECOND = 125
#: The warm-up before the clock: this many items (two refreshes among
#: them) on a throwaway server, from the run's warm-up seed.
ADHOC_WARMUP_ITEMS = 2 * (ADHOC_REFRESH_EVERY + 1)

WARM_STATE = {
    "serve_adhoc": "the process is warmed by a short stream on a throwaway "
    "server, then the run uses a fresh BouquetServer: empty artifact store and "
    "template tier, nothing carried over from the warm-up or an earlier run; "
    "drift statistics are built before the clock",
    "campaign": "the worker pool is started in set-up and warmed by one untimed "
    "campaign; each campaign has its own seed, so each worker builds its "
    "environment (about 45 ms, inside the latency of its first query of the "
    "campaign) and no optimizer cache carries over (the worker memo keys on the "
    "whole CampaignConfig: repeating an identical campaign in one process would "
    "reuse it)",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One operation of a serving run: a query, or a statistics refresh.

    ``rows`` is the query's expected result row count when the input
    generator already counted it."""

    kind: str  # "query" | "refresh"
    sql: str = ""
    stats_seed: int = 0
    rows: Optional[int] = None


def adhoc_requests(generator: QueryGenerator, seed: int, length: int) -> List[Item]:
    """A stream of distinct SQL texts with a refresh every few dozen.

    Each query is a new shape with probability ``ADHOC_NEW_SHAPE`` (the
    generator's query ``index``), else a fresh binding of a shape seen
    before, picked with Zipf(1) popularity over how recently each shape
    was sent: recent shapes stay in the template tier, the long tail
    overflows it.  A query over ``ADHOC_MAX_ROWS`` result rows is
    skipped; a new shape whose first query is skipped is dropped.
    """
    rng = random.Random(f"serve_adhoc:{seed}")
    counter = RowCounter(generator.database)
    items: List[Item] = []
    recent: List[int] = []  # shapes sent, most recent first
    weights: List[float] = []  # cumulative Zipf(1) weights by recency rank
    bindings: Dict[int, int] = {}
    seen = set()
    while len(items) < length:
        if len(items) % (ADHOC_REFRESH_EVERY + 1) == ADHOC_REFRESH_EVERY:
            items.append(Item("refresh", stats_seed=rng.randrange(2**31)))
            continue
        if not recent or rng.random() < ADHOC_NEW_SHAPE:
            index, binding = len(bindings), 0
        else:
            index = rng.choices(recent, cum_weights=weights[: len(recent)])[0]
            binding = bindings[index] + 1
        for binding in range(binding, binding + 20):
            generated = generator.instantiate(seed, index, binding)
            if generated.sql not in seen:
                break
        bindings[index] = binding
        if generated.sql in seen:  # a shape with (almost) no free constants
            continue
        rows = counter.count(generated.query)
        if rows > ADHOC_MAX_ROWS:
            continue
        if index in recent:
            recent.remove(index)
        else:
            weights.append((weights[-1] if weights else 0.0) + 1.0 / (len(weights) + 1))
        recent.insert(0, index)
        seen.add(generated.sql)
        items.append(Item("query", generated.sql, rows=rows))
    return items


def warmup_seed(seed: int) -> int:
    """The seed of a run's warm-up inputs: negative, so it is never a
    run's own seed and the warm-up shares no input with any run."""
    return -1 - seed


def campaign_configs(seed: int, count: int, workers: int = CAMPAIGN_WORKERS):
    """The run's campaigns, in order: one seed each, derived from ``seed``."""
    k = 0
    while True:
        yield CampaignConfig(
            benchmark="tpch",
            scale=CAMPAIGN_SCALE,
            count=count,
            workers=workers,
            seed=seed * 1000 + k,
        )
        k += 1


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set of this process (or its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_setups(
    build: Callable[[], object],
    close: Callable[[object], None],
    repeats: Tuple[int, float],
    keep: bool = False,
):
    """Run ``build`` at least ``least`` times, and more while the set-ups
    took under ``budget`` seconds in all (at most ``SETUP_MOST``).  Every
    result is closed except the last when ``keep``.  Returns (the kept
    result or None, the set-up times)."""
    least, budget = repeats
    times, env = [], None
    while len(times) < least or (len(times) < SETUP_MOST and sum(times) < budget):
        if env is not None:
            close(env)
        started = time.perf_counter()
        env = build()
        times.append(time.perf_counter() - started)
    if not keep:
        close(env)
        env = None
    return env, times


# ---------------------------------------------------------------------------
# Serving: set-up, closed-loop client, checks
# ---------------------------------------------------------------------------


@dataclass
class ServeEnv:
    database: Database
    server: BouquetServer
    gateway: ServeGateway

    def close(self) -> None:
        self.server.close()


def serve_setup(scale: float, tracer=None) -> ServeEnv:
    schema = tpch_schema(scale)
    database = Database.generate(schema, tpch_generator_spec(scale), seed=DATA_SEED)
    statistics = database.build_statistics(sample_size=STATS_SAMPLE, seed=STATS_SEED)
    catalog = Catalog(schema=schema, statistics=statistics, database=database)
    server = BouquetServer(catalog, config=BouquetConfig(), tracer=tracer)
    return ServeEnv(database, server, ServeGateway(server))


@dataclass
class Outcome:
    kind: str
    sql: str
    seconds: float
    status: str = "ok"
    cache: str = ""
    rows: Optional[int] = None
    cost: Optional[float] = None
    error: str = ""


def _send(env: ServeEnv, item: Item, statistics) -> Outcome:
    started = time.perf_counter()
    try:
        if item.kind == "refresh":
            env.server.refresh_statistics(statistics[item.stats_seed])
            return Outcome("refresh", "", time.perf_counter() - started)
        response = env.gateway.handle(ServeRequest(query=item.sql))
        return Outcome(
            "query", item.sql, time.perf_counter() - started,
            status=response.status, cache=response.cache,
            rows=response.rows, cost=response.total_cost,
            error=response.error or "",
        )
    except Exception:
        # The client must keep going: the failure is counted, not raised.
        return Outcome(
            item.kind, item.sql, time.perf_counter() - started,
            status="raised", error=traceback.format_exc(),
        )


def drive(
    env: ServeEnv,
    items: Sequence[Item],
    statistics=None,
    seconds: Optional[float] = None,
) -> Tuple[List[Outcome], float]:
    """One closed-loop client: each item is sent once the last returned.

    The server's compiles and rebinds hold the GIL, so on the benchmark's
    two cores a second client added no throughput, only time spent
    waiting on the first.  Sending stops when ``seconds`` have passed
    (the item in flight finishes) or the list runs out.  Returns the
    outcomes, in list order, and the wall time.
    """
    outcomes: List[Outcome] = []
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else math.inf
    for item in items:
        if time.perf_counter() >= deadline:
            break
        outcomes.append(_send(env, item, statistics))
    return outcomes, time.perf_counter() - started


def check_outcomes(outcomes: Sequence[Outcome], expected: Dict[str, int]) -> int:
    """Failed operations: a status other than ok, or a wrong row count."""
    failed = 0
    for outcome in outcomes:
        if outcome.status != "ok":
            failed += 1
        elif outcome.kind == "query" and outcome.rows != expected[outcome.sql]:
            failed += 1
    return failed


def serve_figures(outcomes: Sequence[Outcome], wall: float) -> Dict[str, float]:
    """End-to-end figures of one untraced serving run."""
    queries = [o for o in outcomes if o.kind == "query"]
    latencies = [o.seconds * 1000.0 for o in queries]
    ok = sum(1 for o in queries if o.status == "ok")
    refreshes = [o.seconds * 1000.0 for o in outcomes if o.kind == "refresh"]
    costs = [o.cost for o in queries if o.status == "ok" and o.cost is not None]
    return {
        "request_p50_ms": percentile(latencies, 50),
        "request_p95_ms": percentile(latencies, 95),
        "queries_per_s": ok / wall,
        "refresh_p50_ms": percentile(refreshes, 50),
        "charged_units_p50": percentile(costs, 50),
        "samples": float(len(latencies)),
        "samples_beyond_p95": float(
            sum(1 for x in latencies if x > percentile(latencies, 95))
        ),
    }


def request_shares(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Shares of query requests answered by exact hit, rebind, cold compile."""
    queries = [o for o in outcomes if o.kind == "query"]
    total = max(len(queries), 1)
    exact = sum(1 for o in queries if o.cache in ("memory", "disk"))
    rebind = sum(1 for o in queries if o.cache == "template")
    cold = sum(1 for o in queries if o.cache in ("compiled", "coalesced"))
    return {
        "share.exact_hit": exact / total,
        "share.template_rebind": rebind / total,
        "share.cold_compile": cold / total,
    }


# ---------------------------------------------------------------------------
# Campaign: set-up, back-to-back campaigns, checks
# ---------------------------------------------------------------------------


def _started(ctx, payload, item):
    return item


def campaign_setup(config: CampaignConfig) -> WorkerPool:
    """The campaign's world (datagen + statistics) and a started pool."""
    build_env(config)
    pool = WorkerPool(config.workers)
    pool.run(_started, None, list(range(config.workers)))
    return pool


@dataclass
class CampaignRun:
    seconds: float
    queries: int
    failed: int
    msos: List[float]
    leaked: List[str]


def run_one_campaign(config: CampaignConfig, pool=None, tracer=None) -> CampaignRun:
    started = time.perf_counter()
    report = run_campaign(config, tracer=tracer, pool=pool)
    seconds = time.perf_counter() - started
    failed = sum(
        1
        for o in report.outcomes
        if not o.ok or o.mso is None or o.mso > o.bound * (1.0 + BOUND_RTOL)
    )
    leaked = leaked_segments()
    return CampaignRun(
        seconds, len(report.outcomes), failed,
        [o.mso for o in report.outcomes if o.mso is not None], leaked,
    )


def run_campaigns(configs, seconds: float, pool=None, tracer=None, limit=None):
    """Campaigns back to back until ``seconds`` pass (or ``limit`` ran)."""
    runs: List[CampaignRun] = []
    started = time.perf_counter()
    for config in configs:
        if limit is not None and len(runs) >= limit:
            break
        if limit is None and runs and time.perf_counter() - started >= seconds:
            break
        runs.append(run_one_campaign(config, pool=pool, tracer=tracer))
    return runs, time.perf_counter() - started
