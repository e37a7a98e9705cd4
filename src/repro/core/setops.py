"""Set operations between DaVinci sketches (paper Algorithm 3).

Both operations require the two inputs to share an identical
:class:`~repro.core.config.DaVinciConfig` (same shapes, threshold, prime and
hash seeds) — the element filter and infrequent part are combined
counter-wise, which is only meaningful for identically-hashed structures.

**Union.**  Per FP bucket, entries of both inputs are merged by key (counts
summed); the top-``c`` merged entries stay in the result's frequent part and
the leftovers are demoted with a *state-independent* split: ``min(count, T)``
goes to the element filter and the remainder is encoded directly into the
infrequent part.  The element filter is a saturating counter-wise sum and
the infrequent part a field sum.  Because every component of this recipe —
the per-bucket top-``c`` over key-disjoint inputs, the summed ``ecnt``, the
OR-plus-eviction ``flag``, the saturating filter sum and the field-linear
encode — is independent of how inputs are grouped, folding key-disjoint
sketches (e.g. shards produced by
:class:`~repro.runtime.sharded.ShardRouter`) is associative up to
``to_state()`` bytes: a left fold and a balanced merge tree yield the same
sketch.  The result uses the *additive* query mode: after a merge an
element may hold up to ``2T`` in the filter, so Algorithm 4's ``+T``
shortcut no longer applies and summing the three parts is the faithful
query.

**Difference.**  All three parts subtract, producing signed content.  Per
FP bucket the merged signed deltas are ranked by magnitude; the top-``c``
stay and leftovers are encoded directly into the (signed-capable)
infrequent part — the filter's threshold pipeline is meaningless for
negative counts.  Elements with equal counts in both inputs cancel
everywhere, which is exactly the paper's ``A − B = {a, −b, d, −c}``
semantics: positive deltas are "more in A", negative "more in B".
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError
from repro.common.validation import require_int64
from repro.core.davinci import (
    MODE_ADDITIVE,
    MODE_SIGNED,
    DaVinciSketch,
)
from repro.core.kernel import np


def union(a: DaVinciSketch, b: DaVinciSketch) -> DaVinciSketch:
    """Return a DaVinci sketch summarizing the multiset union (Alg. 3).

    Raises :class:`~repro.common.errors.ConfigurationError` when either
    input is a signed (difference) sketch.
    """
    if MODE_SIGNED in (a.mode, b.mode):
        raise ConfigurationError(
            "union of a signed (difference) sketch is undefined: its "
            "negative counts would be read as an additive sketch's"
        )
    a.check_compatible(b)
    result = a.empty_like()
    result.mode = MODE_ADDITIVE
    result.total_count = require_int64(
        "union total_count", a.total_count + b.total_count
    )

    # Lower parts first, so that FP leftovers demoted below land on top of
    # the already-merged filter content (Alg. 3, lines 12-17).
    result.ef = a.ef.merged(b.ef)
    result.ifp = a.ifp.merged(b.ifp)

    threshold = result.ef.threshold
    result.fp, keys, counts = a.fp.combined(b.fp, sign=1)
    # State-independent demotion split.  ``offer`` would absorb
    # ``T - current_estimate``, which depends on the filter's state at
    # merge time and therefore on how a multi-way union is grouped;
    # splitting at the threshold itself keeps the filter read for a
    # demoted key at >= T (it re-promotes on sight), conserves the
    # additive-query mass exactly, and makes the union of key-disjoint
    # sketches byte-associative — the property the sharded merge tree
    # relies on.
    absorbed = np.minimum(counts, threshold)
    result.ef.add_batch(keys, absorbed)
    over = counts > absorbed
    result.ifp.insert_batch(keys[over], counts[over] - absorbed[over])
    result._decode_cache = None
    return result


def difference(a: DaVinciSketch, b: DaVinciSketch) -> DaVinciSketch:
    """Return the signed difference sketch ``a − b``.

    Supports arbitrary overlap (neither input needs to contain the other):
    querying the result for a key yields ``f_a(key) − f_b(key)``, positive
    when the key is heavier in ``a``.
    """
    a.check_compatible(b)
    result = a.empty_like()
    result.mode = MODE_SIGNED
    result.total_count = require_int64(
        "difference total_count", a.total_count - b.total_count
    )

    result.ef = a.ef.subtracted(b.ef)
    result.ifp = a.ifp.subtracted(b.ifp)

    # Signed leftovers bypass the filter's (unsigned) threshold pipeline
    # and are encoded exactly into the infrequent part.
    result.fp, keys, counts = a.fp.combined(b.fp, sign=-1)
    result.ifp.insert_batch(keys, counts)
    result._decode_cache = None
    return result
