# Convenience targets for the futility-scaling reproduction.

.PHONY: install test bench bench-smoke bench-paper bench-throughput \
	bench-regression kernel-oracle figures figures-parallel report \
	examples lint lint-baseline typecheck check clean clean-cache \
	telemetry-smoke chaos-smoke scenario-smoke trace-smoke perfbench-check

# PYTHONPATH=src keeps every target usable from a bare checkout
# (no editable install required), matching the tier-1 test invocation.
PY := PYTHONPATH=src python

install:
	pip install -e . || python setup.py develop

# tests/runner/ exercises the forked queue workers (a --jobs 2
# smoke-scale run byte-compared against --jobs 1) on every invocation.
test:
	pytest tests/

bench: bench-throughput
	pytest benchmarks/ --benchmark-only

# Re-measure per-scheme access throughput into BENCH_throughput.json
# (merges under the "after" label; run with BENCH_LABEL=before on a
# pre-change tree to refresh the baseline side).
bench-throughput:
	$(PY) benchmarks/test_simulator_throughput.py \
		--out BENCH_throughput.json --label $${BENCH_LABEL:-after}

# CI smoke: fail when access throughput regresses >30% below the
# committed BENCH_throughput.json (spin-calibrated across machines).
bench-regression:
	$(PY) -m pytest -q -p no:cacheprovider \
		benchmarks/test_simulator_throughput.py::test_benchmark_covers_every_scheme \
		benchmarks/test_simulator_throughput.py::test_throughput_regression

# Local mirror of the CI perfbench job: a short end-to-end benchmark
# run of every workload.  perfbench/run.py exits 0 even when cells
# fail, so the gate reads the last line of its output, which must be
# JSON with "correct": true and "failed": 0.
PERFBENCH_WORKLOADS := qos32 pf-opt-n32 assoc-jobs2
PERFBENCH_GATE := import json, sys; \
	r = json.loads(sys.stdin.read().splitlines()[-1]); \
	ok = r["correct"] is True and r["failed"] == 0; \
	sys.exit(0 if ok else "perfbench gate failed: correct=%s, failed=%s" \
		% (r["correct"], r["failed"]))

perfbench-check:
	mkdir -p .perfbench
	for w in $(PERFBENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed 0 --seconds 3 \
			--trace 0 > .perfbench/check-$$w.out; \
		cat .perfbench/check-$$w.out; \
		python3 -c '$(PERFBENCH_GATE)' < .perfbench/check-$$w.out \
			|| exit 1; \
	done

# The differential kernel oracle alone: every specialized access kernel
# against the generic (bound-method) build of the same cache, over
# arrays x rankings x schemes x observers x lifecycle events.
kernel-oracle:
	$(PY) -m pytest -q -p no:cacheprovider tests/cache/test_kernel_oracle.py

bench-smoke:
	REPRO_BENCH_SCALE=smoke pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_BENCH_SCALE=paper pytest benchmarks/ --benchmark-only

# Local mirror of the CI telemetry job: record a smoke run, validate
# every JSONL artifact against repro.obs.schema, render the dashboard.
telemetry-smoke:
	rm -rf telemetry-run
	$(PY) -m repro.experiments fig3 --scale smoke --jobs 2 \
		--cache-dir telemetry-run/cache --telemetry=telemetry-run/obs
	$(PY) -m repro.experiments fig6 --scale smoke --jobs 2 \
		--cache-dir telemetry-run/cache --telemetry=telemetry-run/obs
	$(PY) -m repro.obs validate telemetry-run/obs/fig3
	$(PY) -m repro.obs validate telemetry-run/obs/fig6
	$(PY) -m repro.obs report telemetry-run/obs/fig6

# Local mirror of the CI scenario job: the lifecycle scenario suite
# (tenant churn + phase change) under telemetry, byte-compared across
# --jobs, with every artifact — including the new lifecycle/*.jsonl
# control-plane logs — validated against repro.obs.schema.
scenario-smoke:
	rm -rf scenario-run && mkdir -p scenario-run
	$(PY) -m repro.experiments scenarios --scale smoke --jobs 1 \
		--no-cache > scenario-run/baseline.out
	$(PY) -m repro.experiments scenarios --scale smoke --jobs 2 \
		--cache-dir scenario-run/cache \
		--telemetry=scenario-run/obs > scenario-run/telemetry.out
	cmp scenario-run/baseline.out scenario-run/telemetry.out
	$(PY) -m repro.obs validate scenario-run/obs/scenarios
	test -n "$$(ls scenario-run/obs/scenarios/lifecycle/*.jsonl)"

# Local mirror of the CI store-chaos job: a fig3 --jobs 2 queue run
# under one fault plan — injected store faults (lock contention, claim
# latency) plus a cell slower than its lease — must print exactly the
# bytes a fault-free --jobs 1 run prints; the heartbeat keeps steals at
# zero.
chaos-smoke:
	rm -rf chaos-run && mkdir -p chaos-run
	$(PY) -m repro.experiments fig3 --jobs 1 \
		--cache-dir chaos-run/baseline > chaos-run/baseline.out
	REPRO_FAULTS='{"faults": [{"cell": "fig3[0.6]", "kind": "hang", "seconds": 2.0}, {"op": "*", "kind": "busy", "every": 3}, {"op": "claim", "kind": "latency", "seconds": 0.01}]}' \
	$(PY) -m repro.experiments fig3 --store sqlite:chaos-run/results.db \
		--jobs 2 --queue-lease 0.5 > chaos-run/chaos.out
	cmp chaos-run/baseline.out chaos-run/chaos.out
	$(PY) -m repro.store status --store sqlite:chaos-run/results.db

# Local mirror of the CI tracing job: a fig3 sweep drained by 2 queue
# workers with --trace must print exactly the bytes a sequential
# untraced run prints, leave schema-valid trace artifacts that stitch
# into one complete span tree, project to a canonical form that is
# byte-identical whatever the worker count (2 against 4: scaled fig3
# has 4 cells, so both fleets are fully occupied), and pass the live
# aggregator's alert gate (steals/failures/stragglers all zero).  A
# third fleet run loses a worker to a `kill` fault: its output still
# matches and its trace is still complete.
trace-smoke:
	rm -rf trace-run && mkdir -p trace-run
	$(PY) -m repro.experiments fig3 --jobs 1 \
		--cache-dir trace-run/baseline > trace-run/baseline.out
	$(PY) -m repro.experiments fig3 \
		--store sqlite:trace-run/results.db --jobs 2 \
		--trace --telemetry=trace-run/obs > trace-run/fleet.out
	cmp trace-run/baseline.out trace-run/fleet.out
	$(PY) -m repro.obs validate trace-run/obs/fig3
	$(PY) -m repro.obs trace --check trace-run/obs/fig3
	$(PY) -m repro.obs trace trace-run/obs/fig3 > trace-run/tree.txt
	$(PY) -m repro.obs trace --canonical trace-run/obs/fig3 \
		> trace-run/canon-2w.txt
	$(PY) -m repro.experiments fig3 \
		--store sqlite:trace-run/quad.db --jobs 4 \
		--trace --telemetry=trace-run/obs-quad > trace-run/quad.out
	cmp trace-run/baseline.out trace-run/quad.out
	$(PY) -m repro.obs trace --canonical trace-run/obs-quad/fig3 \
		> trace-run/canon-4w.txt
	cmp trace-run/canon-2w.txt trace-run/canon-4w.txt
	$(PY) -m repro.obs top trace-run/obs/fig3 \
		--store sqlite:trace-run/results.db --once \
		--rule "steals > 0" --rule "failed > 0" --rule "unfinished > 0"
	$(PY) -m repro.obs report --json trace-run/obs/fig3 \
		> trace-run/report.json
	$(PY) -m repro.store status --store sqlite:trace-run/results.db --json \
		> trace-run/queue.json
	REPRO_FAULTS='{"faults": [{"cell": "fig3[0.6]", "kind": "kill", "attempts": [1]}]}' \
	$(PY) -m repro.experiments fig3 \
		--store sqlite:trace-run/kill.db --jobs 2 \
		--trace --telemetry=trace-run/obs-kill > trace-run/kill.out
	cmp trace-run/baseline.out trace-run/kill.out
	$(PY) -m repro.obs trace --check trace-run/obs-kill/fig3

figures:
	python -m repro.experiments all

figures-parallel:
	python -m repro.experiments all --scale smoke --jobs 4

report:
	python -m repro.analysis.report benchmarks/results REPORT.md

# Static analysis (hard CI gates; see CONTRIBUTING.md).
# reprolint always runs (in-tree, zero deps).  ruff and mypy run when
# installed (`pip install -e .[dev]`) and are skipped — loudly — when
# not, so offline checkouts aren't blocked; CI always installs both.
lint:
	$(PY) -m repro.devtools.lint --baseline \
		--index-cache .reprolint-cache.json \
		--aux tests --aux benchmarks src
	@if python -c "import ruff" >/dev/null 2>&1; then \
		python -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e .[dev]); skipping"; \
	fi

# Regenerate the committed finding baseline.  The tree is clean today,
# so the baseline is empty; only regenerate it deliberately when
# grandfathering a finding is the explicit decision.
lint-baseline:
	$(PY) -m repro.devtools.lint --write-baseline \
		--aux tests --aux benchmarks src

typecheck:
	@if python -c "import mypy" >/dev/null 2>&1; then \
		PYTHONPATH=src python -m mypy -m repro.api -p repro.runner \
			-m repro.experiments.registry -p repro.devtools.lint; \
	else \
		echo "mypy not installed (pip install -e .[dev]); skipping"; \
	fi

check: test lint typecheck

examples:
	for f in examples/*.py; do echo "== $$f"; \
		PYTHONPATH=src:$$PYTHONPATH python "$$f" || exit 1; done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	rm -f .reprolint-cache.json
	find . -name __pycache__ -type d -exec rm -rf {} +

clean-cache:
	rm -rf "$${REPRO_CACHE_DIR:-$$HOME/.cache/repro-experiments}"
