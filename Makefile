# Convenience targets for the THINC reproduction.

PY ?= python

.PHONY: install test lint analyze contracts-doc sanitize chaos fuzz fuzz-smoke cluster-smoke ci loc options bench-e2e-smoke bench-e2e-selftest bench-pairs claims claims-paper figures figures-paper protocol-doc examples clean

install:
	$(PY) setup.py develop

# The tier-1 suite, from a fresh checkout (no install step needed).
test:
	PYTHONPATH=src $(PY) -m pytest -x -q

lint:
	@if command -v ruff >/dev/null 2>&1; then ruff check .; \
	else echo "ruff not installed; skipping lint"; fi

# THINC-specific invariants in one pass, each file parsed once:
# thinclint AST rules, import layering and the protocol-contract rules
# (parser direction sets, dead wire ids, serialization drift, clock
# discipline) over src/repro, the clock sweep of tests/ and
# benchmarks/, and a check that docs/CONTRACTS.md is the conformance
# matrix the pass renders.  Fails on any finding or a stale matrix.
# The CI analyze job runs exactly this target.
analyze:
	PYTHONPATH=src $(PY) -m repro.analysis

# Regenerate the committed conformance matrix after protocol changes.
contracts-doc:
	PYTHONPATH=src $(PY) -m repro.analysis --matrix-out docs/CONTRACTS.md

# Tier-1 suite with every command queue self-checking its replay
# invariants after each mutation (see docs/ANALYSIS.md).
sanitize:
	THINC_SANITIZE=1 PYTHONPATH=src $(PY) -m pytest -x -q

# Deterministic chaos suite: fault-injected transport + resilience
# plane, the lane transport's exactness property against the
# per-event reference, the hand-picked schedule table, and the
# scenario state machine at its deeper ``chaos`` profile, all with the
# queue sanitizer armed, at three fixed seeds (each selects a different
# random fault schedule and a different example stream).  A failing scenario is written out
# as a bundle for ``python -m repro replay``.  See docs/TESTING.md.
chaos:
	@for seed in 11 23 47; do \
	  echo "== chaos seed $$seed =="; \
	  THINC_SANITIZE=1 THINC_CHAOS_SEED=$$seed PYTHONPATH=src \
	  $(PY) -m pytest tests/net/test_faults.py \
	    tests/net/test_transport.py \
	    tests/core/test_resilience.py \
	    tests/cluster/test_migration.py \
	    tests/fanout/test_migration_fanout.py \
	    tests/fanout/test_qos_fanout.py \
	    tests/scenario/test_regressions.py \
	    tests/scenario/test_state_machine.py \
	    --hypothesis-profile=chaos --hypothesis-seed=$$seed \
	    -x -q || exit 1; \
	done

# End-to-end shard-fabric smoke: 2 shards x 8 sessions behind the
# relay, one live migration mid-workload, queue sanitizer armed, and a
# pixel-identity assertion per client.  See docs/CLUSTER.md.
cluster-smoke:
	THINC_SANITIZE=1 PYTHONPATH=src $(PY) -m repro.cluster.smoke \
	  --shards 2 --sessions 8 --migrations 1

# Deterministic protocol fuzzing: seed-driven mutated uplink traffic
# against a live server rig with an honest co-resident session, with
# the queue sanitizer armed.  Exits nonzero on any contract violation
# (crash, stall, pixel divergence, budget bust) and saves the
# offending input under tests/fuzz/corpus/.  See docs/HARDENING.md.
fuzz:
	THINC_SANITIZE=1 PYTHONPATH=src $(PY) -m repro.fuzz \
	  --seeds 1 2 3 --frames 500 --replay tests/fuzz/corpus

# Quick single-seed fuzz pass for local pre-commit checks.
fuzz-smoke:
	PYTHONPATH=src $(PY) -m repro.fuzz --seeds 1 --frames 150 \
	  --replay tests/fuzz/corpus

# What .github/workflows/ci.yml runs: lint gates, the tier-1 suite
# (with its 15 slowest tests, so the suite's wall time stays in view),
# its one-CPU codec, delivery and resilience tests, every example and
# the size.
ci: lint analyze
	PYTHONPATH=src $(PY) -m pytest -x -q --durations=15
	PYTHONPATH=src taskset -c 0 $(PY) -m pytest -x -q \
	  tests/protocol/test_compression.py tests/core/test_delivery.py \
	  tests/core/test_pipeline.py tests/cluster/test_migration.py \
	  tests/core/test_resilience.py \
	  tests/bench/test_wrap_points_on_main_thread.py
	@$(MAKE) --no-print-directory examples
	@$(MAKE) --no-print-directory loc
	@$(MAKE) --no-print-directory options

# The size of src/repro, counted one way: physical lines, and lines
# that are neither blank nor a whole-line comment, per package and in
# total (the total includes the top-level modules).  CHANGES.md entries
# quote these.
loc:
	@for d in src/repro/[a-z]*/ src/repro; do \
	  printf '%-22s %6d lines %6d non-blank non-comment\n' $$d \
	    $$(find $$d -name '*.py' | xargs cat | wc -l) \
	    $$(find $$d -name '*.py' | xargs cat | \
	       grep -cvE '^[[:space:]]*(#|$$)'); \
	done

# The size of the configuration surface, counted by the option-surface
# tripwire's own scan (tests/core/test_option_surface.py): defaulted
# parameters in src/repro and the fields of the config classes.
# CHANGES.md entries quote these.
options:
	@PYTHONPATH=src $(PY) tests/core/test_option_surface.py

# thincbench smoke: the BENCHMARK.json command at --quick sizes, one
# end-to-end run plus the traced run per workload.  Fails when any op
# failed or any run was not correct (a rep's fingerprint or end-of-rep
# pixel identity broke).  See benchmarks/e2e/README.md.
bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --quick --runs 1 --out bench-e2e-smoke.json
	$(PY) -c "import json; \
	report = json.load(open('bench-e2e-smoke.json'))['workloads']; \
	runs = [r for w in report.values() for r in \
	        w['runs'] + [w['layers']] + w['noisy_runs_made_again']]; \
	bad = [r['detail']['workload'] for r in runs \
	       if r['failed'] > 0 or not r['correct']]; \
	assert not bad, 'failed or incorrect runs: %s' % bad"
	rm -f bench-e2e-smoke.json

# thincbench's own tests (harness, tracer, ledger, compare), which the
# tier-1 suite does not collect.
bench-e2e-selftest:
	$(PY) -m pytest benchmarks/e2e/tests -q

# The procedure behind a claimed gain (docs/PERF.md): N alternating
# runs of workload W in a temporary checkout of PARENT and in this
# working tree, then compare.py over the two sides.
#   make bench-pairs PARENT=HEAD~1 W=video_lan N=10
#   make bench-pairs PARENT=HEAD~1 W=typing_dsl N=10
#   make bench-pairs PARENT=HEAD~1 W=web_lan N=10
#   make bench-pairs PARENT=HEAD~1 W=term_scroll N=10
PARENT ?= HEAD
W ?= video_lan
N ?= 10
bench-pairs:
	python3 benchmarks/pairs.py --parent $(PARENT) --workload $(W) -n $(N)

# Every test carrying the `claims` mark, which pytest.ini deselects from
# tier-1 (~2 minutes): the rows of the paper's claims table
# (repro.bench.claims) that cost more than about a second, the six
# seeded mechanism breaks that must each fail a named row, the check
# that EXPERIMENTS.md's claims block is what `python -m repro figures
# --only claims` prints, and the full 54-page i-Bench build.  Tier-1
# runs the remaining rows.
claims:
	PYTHONPATH=src $(PY) -m pytest tests -m claims -q

# The same table at the paper's scale (54 pages, 834 frames; about five
# minutes), written to claims-paper.md and printed; fails when any row
# reads ✗.  A weekly CI job runs it (.github/workflows/claims-paper.yml).
claims-paper:
	PYTHONPATH=src $(PY) -m repro figures --only claims --pages 54 \
	  --frames 834 > claims-paper.md
	@cat claims-paper.md
	! grep -n "✗" claims-paper.md

# Regenerate every evaluation figure at the fast default scale.
figures:
	PYTHONPATH=src $(PY) -m repro figures

# Paper-scale workloads (54 pages, 834 frames); takes a long while.
figures-paper:
	PYTHONPATH=src $(PY) -m repro figures --pages 54 --frames 834

# Re-render docs/PROTOCOL.md from the machine-readable spec.
protocol-doc:
	PYTHONPATH=src $(PY) -c "from repro.protocol.spec import render_protocol_reference as r; \
	open('docs/PROTOCOL.md','w').write(r())"

# Every script in examples/; CI's test job runs this as one step.
examples:
	@for script in quickstart translation_inspector desktop_session \
	    collaboration pda_navigation shard_fanout global_sessions \
	    video_playback web_browsing; do \
	  echo "== examples/$$script.py =="; \
	  PYTHONPATH=src $(PY) examples/$$script.py || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf src/repro.egg-info .pytest_cache .hypothesis
