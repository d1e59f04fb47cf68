# Convenience targets for the Draconis reproduction.

PY ?= python
# Every target runs against the source tree directly — no install step
# needed. (Targets previously assumed `make install` had been run.)
export PYTHONPATH := src

.PHONY: install test lint sans-io loc coverage bench perf determinism obs-report experiments smoke chaos fuzz recovery ha live live-smoke live-chaos examples clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

lint: sans-io
	$(PY) -m ruff check src/repro tests
	-$(PY) -m mypy src/repro

# The role cores stay sans-IO: no event loop, socket, simulator, network
# model or live runtime may be imported where ClientCore/ReplicaCore live.
sans-io:
	! grep -nE '^ *(from|import) +(asyncio|socket|repro\.(sim|net|live))\b' \
		src/repro/cluster/client_core.py src/repro/ctrl/replica_core.py

# Lines of Python per package under src/repro, as a markdown table
# (ROADMAP item 3 tracks live + verify + faults + ctrl shrinking).
loc:
	@echo "| package | lines |"; echo "|---|---:|"
	@for d in src/repro/*/; do \
		echo "| $$(basename $$d) | $$(find $$d -name '*.py' | xargs cat | wc -l) |"; \
	done
	@echo "| (top level) | $$(cat src/repro/*.py | wc -l) |"
	@echo "| **total** | $$(find src/repro -name '*.py' | xargs cat | wc -l) |"

coverage:
	$(PY) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=80

# Every figure of the evaluation table at bench scale: each shape
# predicate's signed margin, exit 1 if one fails (the CI figures job).
bench:
	$(PY) -m repro.experiments.figures --scale bench --check

# The repo benchmark's traced pass for one BENCHMARK.json workload: the
# per-layer cost table, e.g. `make perf W=live_closed_noop`.
perf:
	python3 benchmarks/perf/run.py --workload $(W) --trace 1

# The three sim_* workloads of the repo benchmark, traced, twice at one
# seed: counts and simulated delays must repeat exactly.
determinism:
	python3 benchmarks/ci.py determinism

obs-report:
	$(PY) -m repro.obs.report

experiments:
	$(PY) -m repro.experiments.run_all --scale report

smoke:
	$(PY) -m repro.experiments.run_all --scale smoke

chaos:
	$(PY) -m repro.experiments.fault_tolerance --seeds 5

fuzz:
	$(PY) -m repro.experiments.fuzz --runtime sim --runs 60 --artifact-dir fuzz-artifacts

recovery:
	$(PY) -m repro.experiments.recovery --seeds 3 --out recovery-summary.json

ha:
	$(PY) -m repro.experiments.controller_ha --seeds 3 --replicas 1 3 --out ha-summary.json

live:
	$(PY) -m repro.live.conformance --seed 42 --out live-conformance.json

live-smoke:
	$(PY) -m repro.live.conformance --seed 42 --duration 0.25 --out live-conformance.json

live-chaos:
	$(PY) -m repro.experiments.fuzz --runtime live --seed 42 --runs 10 --max-events 5 --artifact-dir live-chaos-artifacts --out live-chaos-summary.json

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PY) $$f || exit 1; done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
