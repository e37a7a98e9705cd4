# The local gate — identical commands to .github/workflows/ci.yml and
# .pre-commit-config.yaml, so "make check" reproduces CI exactly.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint typecheck test test-debug faults chaos \
	bench-checkpoint bench-sharded bench-service \
	bench-kernel benchcheck e2e-smoke coverage check

lint:
	ruff check src tools

typecheck:
	mypy

test:
	$(PYTHON) -m pytest -x -q

test-debug:
	REPRO_DEBUG_INVARIANTS=1 $(PYTHON) -m pytest tests/core tests/analysis tests/sketches tests/properties/test_property_array_paths.py tests/properties/test_property_decode_waves.py tests/properties/test_property_ifp_arrays.py tests/properties/test_property_division_screen.py -q

# fault-injection suite: crash recovery, corruption taxonomy and decode
# degradation, all with runtime invariant checks switched on
faults:
	REPRO_DEBUG_INVARIANTS=1 $(PYTHON) -m pytest tests/runtime \
		tests/core/test_degrade.py \
		tests/core/test_serialization_integrity.py \
		tests/properties/test_property_serialization.py -q

# networked fault suite: retries/dedup/breaker/shedding/drain plus the
# chaos-proxy acceptance (convergence under resets, corruption, delays
# and blackholes must be byte-identical with zero duplicate applies),
# all with runtime invariant checks switched on and the hang watchdog
# armed — a wedged socket dumps stacks instead of blocking the gate
chaos:
	REPRO_DEBUG_INVARIANTS=1 REPRO_TEST_WATCHDOG=600 \
		$(PYTHON) -m pytest tests/service tests/runtime/test_stall.py -q

# acceptance benchmark: durable ingestion must stay within 10% of the
# plain batched run at the default cadence, byte-identically
bench-checkpoint:
	$(PYTHON) benchmarks/bench_checkpoint.py --max-overhead 0.10

# acceptance benchmark: 4-shard multiprocess ingestion must be >= 2x the
# single-process run on the 1M-item stream, and the merged sketch must
# be byte-identical to the sequential per-partition fold
bench-sharded:
	$(PYTHON) benchmarks/bench_sharded.py --min-speedup 2.0

# acceptance benchmark: bulk ingest (insert_all) must be >= 3x the
# per-item oracle on the 1M-item stream, byte-identically
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py --min-speedup 3.0

# acceptance benchmark: loopback PUSH/QUERY service throughput and
# latency vs the in-process fold; the remote aggregate must stay
# byte-identical to the sequential reference
bench-service:
	$(PYTHON) benchmarks/bench_service.py --max-overhead 0.5

# regression gate: quick benches compared against the committed
# full-scale baselines on their dimensionless metrics (±20% relative by
# default; the speedup floors are absolute because quick workloads batch
# less, and the 100k-item sharded run is dominated by process startup —
# see tools/benchcheck.py).  Fresh reports go to *_fresh.json so the
# baselines are never overwritten.
benchcheck:
	$(PYTHON) benchmarks/bench_checkpoint.py --quick --repeats 2 \
		--max-overhead 1.0 --output BENCH_checkpoint_fresh.json
	$(PYTHON) benchmarks/bench_sharded.py --quick --repeats 2 \
		--output BENCH_sharded_fresh.json
	$(PYTHON) benchmarks/bench_service.py --quick --repeats 2 \
		--output BENCH_service_fresh.json
	$(PYTHON) benchmarks/bench_kernel.py --quick --repeats 2 \
		--min-speedup 3.0 --output BENCH_kernel_fresh.json
	$(PYTHON) -m tools.benchcheck BENCH_checkpoint_fresh.json \
		--baseline BENCH_checkpoint.json --max overhead_fraction=0.5
	$(PYTHON) -m tools.benchcheck BENCH_sharded_fresh.json \
		--baseline BENCH_sharded.json --min speedup=0.3
	$(PYTHON) -m tools.benchcheck BENCH_service_fresh.json \
		--baseline BENCH_service.json --max overhead_fraction=0.5
	$(PYTHON) -m tools.benchcheck BENCH_kernel_fresh.json \
		--baseline BENCH_kernel.json --min speedup=3.0

# the end-to-end benchmark's tests (~97 s): every workload on a small
# run with its oracles, including the pipeline's byte-identity check of
# string keys through the shard workers
e2e-smoke:
	$(PYTHON) -m pytest e2ebench -q

# branch coverage over src/repro with the ratchet-only floor recorded in
# pyproject.toml ([tool.repro] coverage_floor); needs pytest-cov
coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-branch \
		--cov-report=term-missing:skip-covered --cov-report=html \
		--cov-fail-under=$$($(PYTHON) -c "import tools.covfloor as c; print(c.floor())")

check: lint typecheck test
