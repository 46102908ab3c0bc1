# Development entry points.  Everything runs from the repo root and
# needs only the baked-in toolchain (python + pytest).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test goldens e2e-selftest bench-smoke bench bench-stream bench-storage bench-serve bench-large docs-check check

# Tier-1 gate: the full test suite, fail-fast.
test:
	$(PYTHON) -m pytest -x -q

# Rewrite the golden records in tests/golden/ at the fixed cell (nd
# kernel, memory store, one worker, PYTHONHASHSEED=0).  A golden may
# change only in a change that names the moved record and why
# (tests/golden/README.md); `tools/regen_goldens.py --check` compares
# without writing.
goldens:
	$(PYTHON) tools/regen_goldens.py

# The end-to-end benchmark's self-test: every workload at tiny size,
# traced and untraced, records checked against e2ebench/digests.json.
# The same command as CI's e2ebench-selftest job.
e2e-selftest:
	python3 -m pytest e2ebench/selftest.py -q

# Seconds-long runs of the stream, storage and serve benchmarks; JSON
# records in benchmarks/results/.
bench-smoke:
	$(PYTHON) benchmarks/bench_stream_throughput.py --scale smoke --workers 2
	$(PYTHON) benchmarks/bench_stream_throughput.py --scale smoke --ticks
	$(PYTHON) benchmarks/bench_storage.py --scale smoke
	$(PYTHON) benchmarks/bench_serve.py --scale smoke

# Streaming engine: multi-seed streams sequential vs one per worker,
# records asserted identical, messages/sec reported; appends to
# benchmarks/results/BENCH_stream.json.
bench-stream:
	$(PYTHON) benchmarks/bench_stream_throughput.py --scale small --workers 2

# Storage backends head-to-head: ingest throughput (memory vs disk),
# cold-open latency of an on-disk table, and fold-scoring ratio with
# scores asserted identical; appends to
# benchmarks/results/BENCH_storage.json.
bench-storage:
	$(PYTHON) benchmarks/bench_storage.py --scale small

# The serving layer under concurrent load: batched vs unbatched
# scoring SLOs (p50/p99, msgs/sec), served scores asserted identical
# to the library; enforces the batched >= 2x unbatched floor and
# appends to benchmarks/results/BENCH_serve.json.
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py --scale small

# The headline perf scale: big enough that the pooled engines' fixed
# costs and the storage backends' fold-scoring ratio are measured
# against real work, small enough for a CI job.  Writes
# BENCH_*.large.json records into benchmarks/results/.
bench-large:
	$(PYTHON) benchmarks/bench_stream_throughput.py --scale large --workers 2
	$(PYTHON) benchmarks/bench_stream_throughput.py --scale large --ticks
	$(PYTHON) benchmarks/bench_storage.py --scale large

# The full benchmark suite: renders every figure/table artifact into
# benchmarks/results/.  REPRO_SCALE=paper for Table 1 sizes.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fail if README.md / docs/ reference a file or CLI subcommand that
# does not exist.
docs-check:
	$(PYTHON) tools/check_docs_links.py

check: test docs-check e2e-selftest bench-smoke
