# Development entry points.  Everything runs from the repo root and
# needs only the baked-in toolchain (python + pytest).  Performance is
# measured by e2ebench alone: python3 e2ebench/run.py --workload NAME.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test goldens e2e-selftest docs-check check

# Tier-1 gate: the full test suite, fail-fast.
test:
	$(PYTHON) -m pytest -x -q

# Rewrite the golden records in tests/golden/ at the fixed cell (the
# memory store, one worker, PYTHONHASHSEED=0).  A golden may
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

# Fail if README.md / docs/ reference a file, CLI subcommand or make
# target that does not exist.
docs-check:
	$(PYTHON) tools/check_docs_links.py

check: test docs-check e2e-selftest
