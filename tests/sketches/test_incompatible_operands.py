"""Every set operation rejects an incompatible operand and changes nothing.

Union and difference (paper Algorithm 3) combine two structures counter
by counter, which is only meaningful when both were built with the same
shape and hash seeds.  One table covers every ``merge``, ``subtract``,
``merged``, ``subtracted``, ``combined``, ``union`` and ``difference`` in
the package: an operand of another shape and one of another seed must
each raise :class:`~repro.common.errors.IncompatibleSketchError`, and
both operands must be byte-for-byte as they were.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Tuple

import pytest

from repro.common.errors import IncompatibleSketchError
from repro.core import DaVinciConfig, DaVinciSketch, setops
from repro.core.element_filter import ElementFilter
from repro.core.frequent_part import FrequentPart
from repro.core.infrequent_part import InfrequentPart
from repro.sketches.elastic import ElasticSketch
from repro.sketches.fermat import FermatSketch
from repro.sketches.flowradar import FlowRadar
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.lossradar import LossRadar
from repro.sketches.mv_sketch import MVSketch


def _davinci(wide: bool, seed: int) -> DaVinciSketch:
    return DaVinciSketch(
        DaVinciConfig(
            fp_buckets=16 if wide else 8,
            fp_entries=4,
            ef_level_widths=(128, 32),
            ef_level_bits=(4, 8),
            ifp_rows=3,
            ifp_width=32,
            filter_threshold=10,
            seed=seed,
        )
    )


Build = Callable[[bool, int], Any]
#: "Class.method" -> (build(wide, seed), operation(a, b)); ``wide``
#: builds the other shape
CASES: Dict[str, Tuple[Build, Callable[[Any, Any], Any]]] = {}


def _case(cls: type, build: Build, *methods: str, **extra: Callable) -> None:
    for method in methods:
        CASES[f"{cls.__name__}.{method}"] = (build, getattr(cls, method))
    for name, operation in extra.items():
        CASES[name] = (build, operation)


_case(
    LossRadar,
    lambda wide, seed: LossRadar(96 if wide else 64, seed=seed),
    "merge",
    "subtract",
)
_case(
    FlowRadar,
    lambda wide, seed: FlowRadar(96 if wide else 64, 512, seed=seed),
    "merge",
    "subtract",
)
_case(MVSketch, lambda wide, seed: MVSketch(2, 96 if wide else 64, seed=seed), "subtract")
_case(HyperLogLog, lambda wide, seed: HyperLogLog(9 if wide else 8, seed=seed), "merge")
_case(
    ElasticSketch,
    lambda wide, seed: ElasticSketch(24 if wide else 16, 64, seed=seed),
    "merge",
)
_case(
    FermatSketch,
    lambda wide, seed: FermatSketch(3, 48 if wide else 32, seed=seed),
    "merge",
    "subtract",
    "merged",
    "subtracted",
)
_case(
    ElementFilter,
    lambda wide, seed: ElementFilter((96 if wide else 64, 16), (4, 8), 10, seed=seed),
    "merged",
    "subtracted",
)
_case(
    InfrequentPart,
    lambda wide, seed: InfrequentPart(3, 48 if wide else 32, seed=seed),
    "merged",
    "subtracted",
)
_case(
    FrequentPart,
    lambda wide, seed: FrequentPart(6 if wide else 4, 3, 5, seed=seed),
    **{
        "FrequentPart.combined(+1)": lambda a, b: a.combined(b, sign=1),
        "FrequentPart.combined(-1)": lambda a, b: a.combined(b, sign=-1),
    },
)
_case(
    DaVinciSketch,
    _davinci,
    "union",
    "difference",
    **{"setops.union": setops.union, "setops.difference": setops.difference},
)


def _filled(sketch: Any) -> Any:
    for key in range(1, 40):
        sketch.insert(key, key % 7 + 1)
    return sketch


@pytest.mark.parametrize("mismatch", ["shape", "seed"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_incompatible_operand_is_rejected(name: str, mismatch: str) -> None:
    build, operation = CASES[name]
    a = _filled(build(False, 1))
    b = _filled(build(mismatch == "shape", 1 if mismatch == "shape" else 2))
    before = pickle.dumps(a), pickle.dumps(b)
    with pytest.raises(IncompatibleSketchError):
        operation(a, b)
    assert (pickle.dumps(a), pickle.dumps(b)) == before

