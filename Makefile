PYTHON ?= python3
BENCH_SIZES ?= 32,64,128

.PHONY: install test bench bench-planner \
	bench-planner-smoke bench-columnar bench-columnar-smoke \
	bench-service bench-service-smoke \
	examples lint lint-concurrency stress faultcheck \
	faultcheck-restart serve-check clean

# fault-injection matrix: seeds x named schedules, each run asserting
# the crash-consistency invariant battery (see docs/testing.md)
FAULTCHECK_SEEDS ?= --seed 1 --seed 2 --seed 3
FAULTCHECK_OPS ?= 40

install:
	$(PYTHON) -m pip install -e .[test]

test:
	$(PYTHON) -m pytest tests/

bench:
	REPRO_BENCH_SIZES_KIB=$(BENCH_SIZES) \
		$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-sort=mean

# planner ablation (planned vs unplanned full checks) across all
# sizes; emits BENCH_planner.json and gates on the acceptance floors
bench-planner:
	REPRO_BENCH_SIZES_KIB=$(BENCH_SIZES) \
		$(PYTHON) -m pytest benchmarks/test_planner_ablation.py \
		--benchmark-only --benchmark-min-rounds=3 \
		--benchmark-json=BENCH_planner.json
	$(PYTHON) scripts/check_planner_gate.py BENCH_planner.json

# one-round CI smoke at the smallest size, gated against the committed
# BENCH_planner.json baseline ratios (>20% regression fails)
bench-planner-smoke:
	REPRO_BENCH_SIZES_KIB=32 \
		$(PYTHON) -m pytest benchmarks/test_planner_ablation.py \
		--benchmark-only --benchmark-min-rounds=1 \
		--benchmark-json=BENCH_planner_smoke.json
	$(PYTHON) scripts/check_planner_gate.py BENCH_planner_smoke.json \
		--baseline BENCH_planner.json

# columnar backend ablation (vectorized plan steps vs the same plan
# walking the DOM, batched updates with/without column stores) across
# all sizes; emits BENCH_columnar.json and gates on the >=2x
# acceptance floors at the largest size
bench-columnar:
	REPRO_BENCH_SIZES_KIB=$(BENCH_SIZES) \
		$(PYTHON) -m pytest benchmarks/test_columnar_ablation.py \
		--benchmark-only --benchmark-min-rounds=3 \
		--benchmark-json=BENCH_columnar.json
	$(PYTHON) scripts/check_columnar_gate.py BENCH_columnar.json

# one-round CI smoke at the smallest size, gated against the committed
# BENCH_columnar.json baseline ratios (>20% regression fails)
bench-columnar-smoke:
	REPRO_BENCH_SIZES_KIB=32 \
		$(PYTHON) -m pytest benchmarks/test_columnar_ablation.py \
		--benchmark-only --benchmark-min-rounds=1 \
		--benchmark-json=BENCH_columnar_smoke.json
	$(PYTHON) scripts/check_columnar_gate.py BENCH_columnar_smoke.json \
		--baseline BENCH_columnar.json

# service load harness: closed-loop readers + paced writer against
# one CheckingService, snapshot vs locked read modes; emits
# BENCH_service.json and gates on read-throughput scaling (16 vs 1
# readers >= 3x) and tail insulation (snapshot p99 <= 0.5x locked)
bench-service:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) benchmarks/test_service_load.py \
		--out BENCH_service.json
	$(PYTHON) scripts/check_service_gate.py BENCH_service.json

# short-cell CI smoke with relaxed absolute floors, gated against the
# committed BENCH_service.json baseline ratios (>35% drift fails)
bench-service-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) benchmarks/test_service_load.py --smoke \
		--out BENCH_service_smoke.json
	$(PYTHON) scripts/check_service_gate.py BENCH_service_smoke.json \
		--min-scaling 2.5 --max-p99-ratio 0.7 \
		--baseline BENCH_service.json --tolerance 0.35

# static tooling (pip install -e .[lint]); constraint linting of the
# examples corpus runs with no extra dependencies
lint:
	$(PYTHON) -m ruff check src/
	$(PYTHON) -m mypy src/repro
	$(PYTHON) -m repro lint \
		--dtd examples/corpus/pub.dtd --dtd examples/corpus/rev.dtd \
		--constraints-file examples/corpus/constraints.txt \
		--pattern examples/corpus/submission.xml

# XIC5xx lock-discipline pass: the repo must self-lint clean, and the
# fixture corpus pins every code's firing and clean behavior (the
# corpus check proper lives in tests/test_concurrency_lint.py)
lint-concurrency:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m repro lint --concurrency src/repro
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/test_concurrency_lint.py -q

# concurrency stress harness: N writer threads x M mixed legal/illegal
# updates against one shared DocumentStore, checked against a
# sequential oracle replay.  faulthandler dumps all thread stacks on a
# wedge; pytest-timeout (when installed) enforces a hard cap on top.
STRESS_TIMEOUT := $(shell $(PYTHON) -c "import importlib.util as u; \
	print('--timeout=600' if u.find_spec('pytest_timeout') else '')")

stress:
	REPRO_STRESS_THREADS=8 REPRO_STRESS_OPS=200 \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -X faulthandler -m pytest tests/test_concurrency.py \
		-q $(STRESS_TIMEOUT)

faultcheck:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m repro.cli faultcheck $(FAULTCHECK_SEEDS) \
		--ops $(FAULTCHECK_OPS) --repro-file FAULTCHECK_REPRO.txt
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m repro.cli faultcheck $(FAULTCHECK_SEEDS) \
		--schedule mvcc --mix read-heavy --ops $(FAULTCHECK_OPS) \
		--repro-file FAULTCHECK_REPRO.txt

# kill-at-failpoint restart matrix: the durable service dies at each
# instrumented seam, restarts from snapshot + write-ahead log, and the
# recovered state is checked against the sequential oracle
faultcheck-restart:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m repro.cli faultcheck --crash-restart \
		$(FAULTCHECK_SEEDS) --ops $(FAULTCHECK_OPS) \
		--repro-file FAULTCHECK_REPRO.txt

# end-to-end suite for the networked sharded service: hash-ring
# properties plus the conformance/chaos battery (spawned worker
# processes behind the asyncio HTTP edge).  pytest-timeout (when
# installed) puts a hard cap on every test so a wedged worker can
# never hang the job.
SERVE_TIMEOUT := $(shell $(PYTHON) -c "import importlib.util as u; \
	print('--timeout=300' if u.find_spec('pytest_timeout') else '')")

serve-check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
		$(PYTHON) -m pytest tests/test_hash_ring.py \
		tests/test_service_net.py -q $(SERVE_TIMEOUT)

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/publication_registry.py
	$(PYTHON) examples/workload_policies.py
	$(PYTHON) examples/referential_integrity.py
	$(PYTHON) examples/conference_reviews.py 64

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
