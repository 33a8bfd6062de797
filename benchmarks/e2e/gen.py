"""Seeded input generators: the only place ``--seed`` is consumed.

The program under test sees the generated rows, statements and
parameters, never the seed.  Every stream is an exact per-block mix
(a seeded permutation of each block), so every seed runs the same
number of every op kind and the program's counters repeat exactly;
the seed moves keys, literals and order.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Any, Callable, Dict, List, Sequence, Tuple

from benchmarks.e2e.spec import MIX

__all__ = [
    "rng_for", "Zipf", "mix_sequence", "sample_flags", "user_bytes",
    "sqlj_oltp_inputs", "remote_inputs", "ingest_inputs",
    "analytic_inputs",
]

ZIPF_S = 1.1


def rng_for(seed: int, *labels: Any) -> random.Random:
    """An independent stream per (seed, labels); string seeding is
    stable across processes and PYTHONHASHSEED."""
    return random.Random(":".join(str(part) for part in (seed,) + labels))


class Zipf:
    """Zipf(s) over ``n`` keys; rank r is drawn with weight 1/(r+1)^s
    and mapped through a seeded permutation so hot keys are spread over
    the key space."""

    def __init__(self, n: int, rng: random.Random, s: float = ZIPF_S):
        self.rng = rng
        self.cdf = list(itertools.accumulate(
            1.0 / (rank + 1) ** s for rank in range(n)
        ))
        self.keys = list(range(n))
        rng.shuffle(self.keys)

    def rank(self) -> int:
        point = self.rng.random() * self.cdf[-1]
        return min(bisect.bisect_left(self.cdf, point), len(self.cdf) - 1)

    def key(self) -> int:
        return self.keys[self.rank()]


def mix_sequence(
    rng: random.Random, n_ops: int, mix: Dict[str, int]
) -> List[str]:
    """``n_ops`` op kinds in blocks of ``sum(mix.values())``, each block
    a permutation of exactly ``mix``."""
    block = [kind for kind, count in mix.items() for _ in range(count)]
    if n_ops % len(block):
        raise ValueError(
            f"{n_ops} ops is not a whole number of {len(block)}-op blocks"
        )
    out: List[str] = []
    for _ in range(n_ops // len(block)):
        rng.shuffle(block)
        out.extend(block)
    return out


def sample_flags(
    rng: random.Random, kinds: Sequence[str], every: Dict[str, int]
) -> List[bool]:
    """A seeded 1-in-N sample stratified by kind: within each run of
    ``every[kind]`` consecutive occurrences of a kind, one is chosen."""
    flags = [False] * len(kinds)
    seen: Dict[str, int] = {}
    chosen: Dict[str, int] = {}
    for index, kind in enumerate(kinds):
        period = every[kind]
        position = seen.get(kind, 0)
        if position % period == 0:
            chosen[kind] = rng.randrange(period)
        if position % period == chosen[kind]:
            flags[index] = True
        seen[kind] = position + 1
    return flags


def user_bytes(row: Sequence[Any]) -> int:
    """Bytes of user data in one parameter row: 8 per number, the UTF-8
    length per string."""
    return sum(
        len(value.encode("utf-8")) if isinstance(value, str) else 8
        for value in row
    )


Op = Tuple[str, Tuple[Any, ...], bool]


def _ops(
    seed: int, label: str, mix_key: str, sizes: Dict[str, Any],
    params_for: Callable[[str, int], Tuple[Any, ...]],
) -> List[Op]:
    kinds = mix_sequence(rng_for(seed, label, "mix"), sizes["ops"],
                         MIX[mix_key])
    flags = sample_flags(rng_for(seed, label, "sample"), kinds,
                         sizes["trace_every"])
    return [
        (kind, params_for(kind, index), flag)
        for index, (kind, flag) in enumerate(zip(kinds, flags))
    ]


# ---------------------------------------------------------------------------
# sqlj_oltp
# ---------------------------------------------------------------------------


def sqlj_oltp_inputs(seed: int, sizes: Dict[str, Any]) -> Dict[str, Any]:
    n = sizes["accounts"]
    rng = rng_for(seed, "sqlj_oltp", "data")
    accounts = [
        (k, f"owner{k:06d}", 1_000 + rng.randrange(9_000), k % 100)
        for k in range(n)
    ]
    keys = Zipf(n, rng_for(seed, "sqlj_oltp", "keys"))
    counters = {"account": n, "transfer": 0}

    def params_for(kind: str, _index: int) -> Tuple[Any, ...]:
        if kind in ("sqlj_read", "dbapi_read"):
            return (keys.key(),)
        if kind == "update":
            return (keys.key(), 1 + rng.randrange(100))
        if kind == "insert":
            k = counters["account"]
            counters["account"] += 1
            return (k, f"owner{k:06d}", rng.randrange(10_000), k % 100)
        src = keys.key()
        dst = keys.key()
        while dst == src:
            dst = keys.key()
        counters["transfer"] += 1
        return (counters["transfer"], src, dst, 1 + rng.randrange(50))

    return {
        "accounts": accounts,
        "ops": _ops(seed, "sqlj_oltp", "sqlj_oltp", sizes, params_for),
    }


# ---------------------------------------------------------------------------
# remote_read_mix
# ---------------------------------------------------------------------------


def remote_inputs(seed: int, sizes: Dict[str, Any]) -> Dict[str, Any]:
    n, groups, span = sizes["items"], sizes["groups"], sizes["range_rows"]
    rng = rng_for(seed, "remote", "data")
    items = [
        (k, k % groups, rng.randrange(1_000), f"item{k:06d}")
        for k in range(n)
    ]
    group_rows = [(g, f"group{g:04d}", g % 10) for g in range(groups)]
    clients = []
    for client in range(sizes["clients"]):
        keys = Zipf(n, rng_for(seed, "remote", "keys", client))
        group_keys = Zipf(groups, rng_for(seed, "remote", "groups", client))

        def params_for(kind: str, _index: int, keys=keys,
                       group_keys=group_keys) -> Tuple[Any, ...]:
            if kind == "point":
                return (keys.key(),)
            if kind == "range":
                low = min(keys.key(), n - span)
                return (low, low + span - 1)
            return (group_keys.key(),)

        clients.append(_ops(seed, f"remote{client}", "remote_read_mix",
                            sizes, params_for))
    return {"items": items, "groups": group_rows, "clients": clients}


# ---------------------------------------------------------------------------
# ingest_snapshot / ingest_lsm (one stream, two engines)
# ---------------------------------------------------------------------------


def ingest_inputs(seed: int, sizes: Dict[str, Any]) -> Dict[str, Any]:
    devices = sizes["devices"]
    rng = rng_for(seed, "ingest", "data")

    def fact(fact_id: int) -> Tuple[Any, ...]:
        return (fact_id, rng.randrange(devices), fact_id,
                rng.randrange(1_000), f"tag{rng.randrange(50):02d}")

    device_rows = [(d, f"device{d:05d}", 0, 0) for d in range(devices)]
    load = sizes["load_rows"]
    batch = sizes["batch"]
    batches = [
        [fact(i) for i in range(start, min(start + batch, load))]
        for start in range(0, load, batch)
    ]
    next_fact = [load]
    doomed = list(range(devices))
    rng.shuffle(doomed)
    hot = Zipf(devices, rng_for(seed, "ingest", "keys"))

    def params_for(kind: str, index: int) -> Tuple[Any, ...]:
        if kind == "insert":
            row = fact(next_fact[0])
            next_fact[0] += 1
            return row
        if kind == "update":
            return (index, hot.key())
        return (doomed.pop(),)

    return {
        "devices": device_rows,
        "batches": batches,
        "ops": _ops(seed, "ingest", "ingest", sizes, params_for),
    }


# ---------------------------------------------------------------------------
# analytic_scan
# ---------------------------------------------------------------------------

#: The four operator shapes; ``{a}``/``{b}`` are the literals the
#: distinct-text half varies.
ANALYTIC_SQL = {
    "filter": "select id, qty, price from fact "
              "where qty < {a} and price > {b}",
    "join": "select f.id, d.region from fact f join dim1 d "
            "on f.d1 = d.d1 where d.weight = {a} and f.qty < {b}",
    "agg": "select d2, count(*), sum(qty), min(price), max(price) "
           "from fact where price >= {a} group by d2",
    "sort": "select id, price from fact where qty >= {a} and id >= {b} "
            "order by price desc, id limit 20",
}

#: (a, b) literals of the 8 repeated texts, two per shape.
_REPEATED = {
    "filter": [(5, 5_000), (8, 2_500)],
    "join": [(3, 50), (11, 70)],
    "agg": [(0, 0), (2_000, 0)],
    "sort": [(0, 0), (10, 0)],
}


def _distinct_literals(kind: str, serial: int) -> Tuple[int, int]:
    # ``serial`` is unique per op (< 510), so every text is new, and the
    # literals keep each shape's selectivity in a narrow band.
    if kind == "filter":
        return (4 + serial % 6, 2_000 + serial)
    if kind == "join":
        return (serial % 17, 60 + (serial // 17) % 30)
    if kind == "agg":
        return (serial, 0)
    return (serial % 10, serial)


def analytic_inputs(seed: int, sizes: Dict[str, Any]) -> Dict[str, Any]:
    rng = rng_for(seed, "analytic", "data")
    n1, n2 = sizes["dim1"], sizes["dim2"]
    fact = [
        (i, rng.randrange(n1), rng.randrange(n2), rng.randrange(100),
         rng.randrange(10_000), f"f{i % 7}")
        for i in range(sizes["fact"])
    ]
    dim1 = [(d, f"region{d % 12:02d}", d % 17) for d in range(n1)]
    dim2 = [(d, f"cat{d % 9}") for d in range(n2)]
    prewarm = [
        f"select cat from dim2 where d2 = {i}"
        for i in range(sizes["prewarm"])
    ]
    base_rows = {
        "filter": len(fact), "join": len(fact) + n1,
        "agg": len(fact), "sort": len(fact),
    }
    order = rng_for(seed, "analytic", "literals")
    serials = list(range(sizes["ops"]))
    order.shuffle(serials)
    halves: Dict[str, int] = {}

    def params_for(kind: str, index: int) -> Tuple[Any, ...]:
        # Each shape alternates a repeated text (cache hit) and a
        # never-seen text (lex, parse, plan): half the stream each.
        turn = halves.get(kind, 0)
        halves[kind] = turn + 1
        if turn % 2 == 0:
            a, b = _REPEATED[kind][(turn // 2) % 2]
            distinct = False
        else:
            a, b = _distinct_literals(kind, serials[index])
            distinct = True
        return (ANALYTIC_SQL[kind].format(a=a, b=b), distinct,
                base_rows[kind])

    return {
        "fact": fact, "dim1": dim1, "dim2": dim2, "prewarm": prewarm,
        "ops": _ops(seed, "analytic", "analytic_scan", sizes, params_for),
    }
