"""Per-item and per-key references for the array paths of Algorithms 3
and 4.

:func:`repro.core.setops.union` and :func:`~repro.core.setops.difference`
merge the frequent parts as arrays and demote the leftovers in batches.
:func:`union` and :func:`difference` here are the plain recipe they must
equal by ``to_state()``: per FP bucket, the entries of both inputs are
summed by key in a dict, zero sums dropped and the rest ranked by
``(-|count|, key)``; the top ``c`` stay, conservatively flagged, and each
leftover is demoted on its own — ``min(count, T)`` through
``TowerSketch.add`` and the rest through ``InfrequentPart.insert`` for a
union, the whole signed count through ``InfrequentPart.insert`` for a
difference.

The tasks gather the tracked keys (FP residents, decoded keys) as
arrays, read them at once through ``DaVinciSketch.estimates`` and reduce
the filter's counters as arrays; :func:`distribution`, :func:`entropy`,
:func:`inner_join`, :func:`known_keys`, :func:`heavy_hitters`,
:func:`heavy_changers` and :func:`cardinality` here gather them in dicts
and sets, read one key at a time through the scalar ``query``,
``lookup`` and filter ``query`` and walk the counters in Python, and the
array tasks must return exactly their answers.

The infrequent part keeps its buckets as int64 tables and encodes,
merges and subtracts them as arrays.  :func:`encode` and
:func:`combine_tables` are Algorithm 2 and the bucket-wise set
operations in exact Python ints, and :func:`fits` says whether such
tables are ones the int64 tables may hold.

:func:`em_estimate` is the distribution EM one counter and one split at
a time, which the array EM must equal.

The infrequent part decodes (Algorithm 5) in waves: one batch inversion,
one array hash and one validator call per wave.  :func:`peel` here is the
sequential recipe it must equal in ``counts`` (as a mapping),
``complete`` and ``residual_buckets``: a FIFO queue of buckets, one
Fermat inversion and one scalar re-hash per visited bucket, peeling each
pure bucket as soon as it is popped.
"""

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.primes import mod_inverse
from repro.common.validation import INT64_MAX, require_int64
from repro.core.davinci import MODE_ADDITIVE, MODE_SIGNED, DaVinciSketch
from repro.core.frequent_part import FrequentPart
from repro.core.infrequent_part import CountingFermat, DecodeResult
from repro.core.tasks.cardinality import linear_counting_over
from repro.core.tasks.distribution import CounterArrayEM
from repro.core.tasks.entropy import entropy_of_distribution


def combined(
    mine: FrequentPart, theirs: FrequentPart, sign: int
) -> Tuple[FrequentPart, List[Tuple[int, int]]]:
    """The bucket-by-bucket merge of ``mine`` and ``sign ×`` ``theirs``."""
    c = mine.entries_per_bucket
    my_keys, my_counts, _flags = mine._entries()
    their_keys, their_counts, _flags = theirs._entries()
    keys: List[int] = []
    counts: List[int] = []
    occupancy: List[int] = []
    flag: List[bool] = []
    leftovers: List[Tuple[int, int]] = []
    my_end = their_end = 0
    for my_used, their_used, my_flag, their_flag in zip(
        mine._occupancy, theirs._occupancy, mine._flag, theirs._flag
    ):
        merged = dict(
            zip(my_keys[my_end : my_end + my_used], my_counts[my_end : my_end + my_used])
        )
        for key, count in zip(
            their_keys[their_end : their_end + their_used],
            their_counts[their_end : their_end + their_used],
        ):
            merged[key] = merged.get(key, 0) + sign * count
        my_end += my_used
        their_end += their_used
        entries = [(key, count) for key, count in merged.items() if count]
        entries.sort(key=lambda kv: (-abs(kv[1]), kv[0]))
        keep, rest = entries[:c], entries[c:]
        keys.extend(key for key, _count in keep)
        counts.extend(count for _key, count in keep)
        occupancy.append(len(keep))
        flag.append(bool(my_flag or their_flag or rest))
        leftovers.extend(rest)
    result = mine.empty_like()
    keys2d, counts2d, flags2d, *per_bucket = result.bucket_arrays()
    resident = np.arange(c) < np.array(occupancy)[:, None]
    keys2d[resident] = keys
    counts2d[resident] = counts
    flags2d[resident] = 1
    ecnt = [a + b for a, b in zip(mine._ecnt, theirs._ecnt)]
    for view, column in zip(per_bucket, (occupancy, ecnt, flag)):
        view[:] = column
    return result, leftovers


def union(a: DaVinciSketch, b: DaVinciSketch) -> DaVinciSketch:
    """Algorithm 3's union with one ``add``/``insert`` per leftover."""
    result = a.empty_like()
    result.mode = MODE_ADDITIVE
    result.total_count = require_int64("total", a.total_count + b.total_count)
    result.ef = a.ef.merged(b.ef)
    result.ifp = a.ifp.merged(b.ifp)
    threshold = result.ef.threshold
    result.fp, leftovers = combined(a.fp, b.fp, sign=1)
    for key, count in leftovers:
        absorbed = min(count, threshold)
        result.ef.add(key, absorbed)
        if count > absorbed:
            result.ifp.insert(key, count - absorbed)
    return result


def difference(a: DaVinciSketch, b: DaVinciSketch) -> DaVinciSketch:
    """The signed difference with one ``insert`` per leftover."""
    result = a.empty_like()
    result.mode = MODE_SIGNED
    result.total_count = require_int64("total", a.total_count - b.total_count)
    result.ef = a.ef.subtracted(b.ef)
    result.ifp = a.ifp.subtracted(b.ifp)
    result.fp, leftovers = combined(a.fp, b.fp, sign=-1)
    for key, count in leftovers:
        result.ifp.insert(key, count)
    return result


def distribution(sketch: DaVinciSketch, em_level: int = 0) -> Dict[int, float]:
    """The flow-size histogram, one ``query`` and one debit per key."""
    histogram: Dict[int, float] = {}
    fp_keys = sketch.fp.as_dict()
    decoded = sketch.decode_counts()
    for key in list(fp_keys) + [key for key in decoded if key not in fp_keys]:
        estimate = sketch.query(key)
        if estimate > 0:
            histogram[estimate] = histogram.get(estimate, 0.0) + 1.0
    ef = sketch.ef
    level = em_level % ef.num_levels
    base = list(ef.levels[level])
    for key in decoded:
        j = ef._hashes.index(level, key)
        base[j] = max(0, base[j] - ef.threshold)
    cap = ef.level_caps[level]
    for key, _count in sketch.fp.flagged_items():
        residue = ef.query(key)
        if key not in decoded and 0 < residue < cap:
            j = ef._hashes.index(level, key)
            base[j] = max(0, base[j] - min(residue, ef.threshold))
    for size, count in em_estimate(CounterArrayEM(max_value=cap - 1), base).items():
        histogram[size] = histogram.get(size, 0.0) + count
    return histogram


def entropy(sketch: DaVinciSketch) -> float:
    """The entropy of :func:`distribution` over the filter's top level."""
    return entropy_of_distribution(
        distribution(sketch, em_level=-1), float(sketch.total_count)
    )


def known_keys(sketch: DaVinciSketch) -> Dict[int, int]:
    """FP residents and decoded keys, each read by the scalar ``query``."""
    keys = set(sketch.fp.as_dict())
    keys.update(sketch.decode_counts())
    return {key: sketch.query(key) for key in keys}


def heavy_hitters(sketch: DaVinciSketch, threshold: int) -> Dict[int, int]:
    """The known keys whose estimate reaches ``threshold`` in magnitude."""
    return {
        key: estimate
        for key, estimate in known_keys(sketch).items()
        if abs(estimate) >= threshold
    }


def heavy_changers(
    a: DaVinciSketch, b: DaVinciSketch, threshold: int
) -> Dict[int, int]:
    """``query`` in ``a`` minus ``query`` in ``b`` of every key tracked
    by ``a − b`` or resident in either window, where it reaches
    ``threshold`` in magnitude."""
    delta = difference(a, b)
    keys = set(delta.fp.as_dict())
    keys.update(delta.decode_counts())
    keys.update(a.fp.as_dict())
    keys.update(b.fp.as_dict())
    changes = {key: a.query(key) - b.query(key) for key in keys}
    return {key: change for key, change in changes.items() if abs(change) >= threshold}


def cardinality(sketch: DaVinciSketch) -> float:
    """Known keys of nonzero estimate for a signed sketch; else linear
    counting over level 0 plus the residents the filter reads as 0."""
    if sketch.mode == MODE_SIGNED:
        return float(sum(1 for value in known_keys(sketch).values() if value != 0))
    lower_parts = linear_counting_over(list(sketch.ef.levels[0]))
    residents = sketch.fp.as_dict()
    return lower_parts + sum(1 for key in residents if sketch.ef.query(key) == 0)


def _keyed_and_filter(sketch: DaVinciSketch, key: int) -> Tuple[int, int]:
    """``(f_F + f_I, f_E)`` of one key, as the inner join splits it."""
    fp_count, _, _ = sketch.fp.lookup(key)
    ifp = sketch.decode_counts().get(key)
    if ifp is None:
        ifp = 0
        if not sketch.decode_result().complete and sketch.ef.is_promoted(key):
            ifp = max(0, sketch.ifp.fast_query(key))
    return fp_count + ifp, min(sketch.ef.query(key), sketch.ef.threshold)


def inner_join(a: DaVinciSketch, b: DaVinciSketch) -> float:
    """The join size, key by key, and J_EE summed counter by counter."""
    keys = set(a.fp.as_dict())
    for sketch in (a, b):
        keys.update(sketch.fp.as_dict())
        keys.update(sketch.decode_counts())
    keyed_cross = 0.0
    for key in keys:
        f_keyed, f_filter = _keyed_and_filter(a, key)
        g_keyed, g_filter = _keyed_and_filter(b, key)
        keyed_cross += f_keyed * g_keyed + f_keyed * g_filter + f_filter * g_keyed
    left, right = a.ef.levels[0], b.ef.levels[0]
    raw = 0.0
    for x, y in zip(left, right):
        raw += x * y
    width = len(left)
    if width <= 1:
        return keyed_cross + raw
    corrected = (width * raw - float(sum(left)) * float(sum(right))) / (width - 1)
    return keyed_cross + max(0.0, corrected)


def _candidates(
    fermat: CountingFermat, row: int, col: int, iid: int, icnt: int
) -> List[Tuple[int, int]]:
    """The ``(key, signed count)`` pairs bucket (row, col) may hold alone."""
    p = fermat.prime
    if icnt % p == 0:
        return []
    quotient = (iid * mod_inverse(icnt, p)) % p
    found: List[Tuple[int, int]] = []
    for candidate in (quotient, (p - quotient) % p):
        if not 1 <= candidate < fermat.max_key:
            continue
        if fermat._hashes.index(row, candidate) != col:
            continue
        count = fermat._sign(row, candidate) * icnt
        if (count * candidate) % p == iid % p:
            found.append((candidate, count))
    return found


def peel(
    fermat: CountingFermat, validator: Optional[Callable[[int], bool]] = None
) -> Tuple[DecodeResult, int]:
    """Algorithm 5 one bucket at a time, on a copy of the arrays.

    ``validator`` is the per-key form of the decode's hook; a vetoed
    candidate moves on to the bucket's other candidate.  Returns the
    result and the number of queue visits, which stop at the visit
    budget (8 visits per bucket, at least 64).
    """
    p = fermat.prime
    ids = fermat.ids.tolist()
    counts = fermat.counts.tolist()
    decoded: Dict[int, int] = {}
    queue = deque(
        (row, col)
        for row in range(fermat.rows)
        for col in range(fermat.width)
        if counts[row][col] != 0 or ids[row][col] != 0
    )
    initial_budget = max(64, 8 * fermat.rows * fermat.width)
    budget = initial_budget
    while queue and budget > 0:
        budget -= 1
        row, col = queue.popleft()
        pure = None
        iid, icnt = ids[row][col], counts[row][col]
        for candidate in _candidates(fermat, row, col, iid, icnt):
            if validator is None or validator(candidate[0]):
                pure = candidate
                break
        if pure is None:
            continue
        key, count = pure
        decoded[key] = decoded.get(key, 0) + count
        if decoded[key] == 0:
            del decoded[key]
        for peel_row in range(fermat.rows):
            j = fermat._hashes.index(peel_row, key)
            ids[peel_row][j] = (ids[peel_row][j] - count * key) % p
            counts[peel_row][j] -= fermat._sign(peel_row, key) * count
            if counts[peel_row][j] != 0 or ids[peel_row][j] != 0:
                queue.append((peel_row, j))
    residual = sum(
        1
        for id_row, count_row in zip(ids, counts)
        for iid, icnt in zip(id_row, count_row)
        if icnt != 0 or iid != 0
    )
    return DecodeResult(decoded, residual == 0, residual), initial_budget - budget


def _added(values: Sequence[float]) -> float:
    """``sum(values)`` added left to right, as Python before 3.12 does
    (3.12 compensates float sums)."""
    total = 0.0
    for value in values:
        total += value
    return total


def em_estimate(em: CounterArrayEM, counters: Sequence[int]) -> Dict[int, float]:
    """:meth:`CounterArrayEM.estimate` one counter and one split at a time."""
    num_counters = len(counters)
    if num_counters == 0:
        return {}
    value_hist: Dict[int, int] = {}
    for value in counters:
        if value <= 0:
            continue
        if em.max_value is not None and value > em.max_value:
            continue
        value_hist[value] = value_hist.get(value, 0) + 1
    if not value_hist:
        return {}
    load = linear_counting_over(list(counters)) / num_counters
    pair_prior = max(1e-12, load / 2.0)
    max_size = max(value_hist)
    phi = [0.0] * (max_size + 1)
    observed = sum(value_hist.values())
    for value, count in value_hist.items():
        phi[value] = count / observed
    phi = [max(p, 1e-6) for p in phi]
    norm = _added(phi[1:])
    phi = [0.0] + [p / norm for p in phi[1:]]
    for _ in range(em.iterations):
        expected = [0.0] * (max_size + 1)
        for value, multiplicity in value_hist.items():
            weights: List[float] = [phi[value]]
            splits: List[Optional[int]] = [None]  # single-flow explanation
            for a in range(1, value // 2 + 1):
                b = value - a
                symmetry = 1.0 if a == b else 2.0
                weights.append(pair_prior * symmetry * phi[a] * phi[b])
                splits.append(a)
            total = _added(weights)
            if total <= 0.0:
                expected[value] += multiplicity
                continue
            scale = multiplicity / total
            for weight, split in zip(weights, splits):
                share = weight * scale
                if split is None:
                    expected[value] += share
                else:
                    expected[split] += share
                    expected[value - split] += share
        total_flows = _added(expected)
        if total_flows <= 0.0:
            break
        phi = [count / total_flows for count in expected]
    return {
        size: count
        for size, count in enumerate(expected)
        if size >= 1 and count > 1e-9
    }


#: an infrequent part's ``(ids, counts)`` as nested lists of Python ints
Tables = Tuple[List[List[int]], List[List[int]]]


def encode(
    fermat: CountingFermat,
    pairs: Sequence[Tuple[int, int]],
    tables: Optional[Tables] = None,
) -> Tables:
    """Algorithm 2, one pair and one row at a time, onto copies of
    ``tables`` (default: ``fermat``'s own)."""
    if tables is None:
        tables = (fermat.ids.tolist(), fermat.counts.tolist())
    ids = [row[:] for row in tables[0]]
    counts = [row[:] for row in tables[1]]
    p = fermat.prime
    for key, count in pairs:
        for row in range(fermat.rows):
            j = fermat._hashes.index(row, key)
            ids[row][j] = (ids[row][j] + count * key) % p
            counts[row][j] += fermat._sign(row, key) * count
    return ids, counts


def combine_tables(mine: Tables, theirs: Tables, sign: int, p: int) -> Tables:
    """``mine + sign · theirs`` bucket by bucket."""
    return (
        [
            [(a + sign * b) % p for a, b in zip(own, their)]
            for own, their in zip(mine[0], theirs[0])
        ],
        [
            [a + sign * b for a, b in zip(own, their)]
            for own, their in zip(mine[1], theirs[1])
        ],
    )


def fits(tables: Tables) -> bool:
    """Whether every ``icnt`` lies in ``±(2^63 − 1)``."""
    return all(-INT64_MAX <= icnt <= INT64_MAX for row in tables[1] for icnt in row)
