PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-baseline bench-cold bench-serve cache-stats table1 smoke-obs smoke-serve

test:
	$(PYTHON) -m pytest -q

# Observability smoke test: run table1 --trace on a small fixture and
# assert the manifest validates against the checked-in JSON schema.
# The same file runs as part of `make test` (it lives in tests/).
smoke-obs:
	$(PYTHON) -m pytest -q tests/test_obs_smoke.py

# Serving smoke test: export a bundle, serve it over HTTP, score through
# the client, and exercise the structured-error contract end to end.
# The same files run as part of `make test` (they live in tests/).
smoke-serve:
	$(PYTHON) -m pytest -q tests/test_serve_bundle.py tests/test_serve_engine.py tests/test_serve_server.py

# Regression gate: fail when any component is >20% slower than the
# committed baseline (benchmarks/BENCH_components.json), then check the
# screening service sustains the acceptance throughput.
bench:
	$(PYTHON) benchmarks/bench_report.py --compare benchmarks/BENCH_components.json
	$(PYTHON) benchmarks/bench_serve.py --min-throughput 5000

# Closed-loop HTTP load test of the screening service on its own.
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py --min-throughput 5000

# Regenerate the committed baseline (run on the reference machine only).
bench-baseline:
	$(PYTHON) benchmarks/bench_report.py --output benchmarks/BENCH_components.json

# Same gate with the artifact cache forced off: times the real compute
# paths even when a warm .repro-cache is sitting in the working tree.
bench-cold:
	REPRO_CACHE=0 $(PYTHON) benchmarks/bench_report.py --compare benchmarks/BENCH_components.json

# On-disk inventory of the artifact cache (root, cap, entries per stage).
cache-stats:
	$(PYTHON) -m repro.cli cache stats

table1:
	$(PYTHON) -m repro.cli table1
