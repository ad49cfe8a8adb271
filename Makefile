# Convenience targets; everything funnels through dune.

.PHONY: build test test-random test-domains1 \
	fault-smoke soak-smoke bench-smoke bench-par bench bench-check \
	bench-snapshot trace-smoke obs-smoke transport-smoke scale-smoke \
	ci clean

# Baseline report for the bench regression gate (see bench-check).
BASELINE ?= BENCH_baseline.json

build:
	dune build

# Deterministic suite (QCHECK_SEED pinned to 42 in test/dune).
test:
	dune runtest

# Same suite under a fresh QCheck seed each run, to catch properties that
# only hold at the pinned seed. Never picks 42, so it is always distinct
# from the deterministic run.
test-random:
	@seed=$$(( ($$(date +%N | sed 's/^0*//') % 999983) + 43 )); \
	echo "QCHECK_SEED=$$seed"; \
	QCHECK_SEED=$$seed dune exec test/test_main.exe

# Full deterministic suite with the parallel pool pinned to one domain
# (GSSL_DOMAINS=1): every kernel takes its inline path, so a pass here
# plus a pass of `test` witnesses the serial/parallel equivalence on the
# whole suite, not just the dedicated qcheck properties.
test-domains1:
	QCHECK_SEED=42 GSSL_DOMAINS=1 dune exec test/test_main.exe

# Fault-injection smoke: only the robustness suite (Check / Solve /
# Fault / Resilient), under a fresh QCheck seed each run.
fault-smoke:
	dune build @fault-smoke

# $(call expect_digests,FILE,'STRING' ...): fail unless FILE holds every
# fixed STRING — the digests a CLI run at the pinned seed must print.
expect_digests = for want in $(2); do \
		grep -qF -- "$$want" $(1) || \
			{ echo "$@: '$$want' missing from $(1):"; cat $(1); exit 1; }; \
	done; echo "$@: pinned digests hold"

# Chaos soak smoke: replay a seeded fault-injected request trace through
# the serve engine twice (--verify-replay) and fail on any serving
# invariant violation — dropped responses, an uncertified Served answer,
# queue overgrowth, or replay divergence.  Runs once at the pinned seed,
# journaled, where the response and journal digests must be the pinned
# ones, and once at a fresh seed, so the invariants are exercised beyond
# the seed the tests pin.
soak-smoke:
	dune build bin/repro.exe
	./_build/default/bin/repro.exe soak --requests 1500 --verify-replay \
		--journal /tmp/gssl_soak_journal.jsonl > /tmp/gssl_soak_pinned.txt
	@$(call expect_digests,/tmp/gssl_soak_pinned.txt,'digest 92adb463fe93ba49 ' 'digest 788735fd2f874f82')
	@seed=$$(( ($$(date +%N | sed 's/^0*//') % 999983) + 43 )); \
	echo "soak-smoke fresh seed=$$seed"; \
	./_build/default/bin/repro.exe soak --requests 1500 --seed $$seed --verify-replay

# Profile-mode bench run that emits the per-phase JSON report and
# self-validates it (parse + required fields + nonzero solver counters).
bench-smoke:
	dune build @bench-smoke

# Serial-vs-parallel kernel phases (gemm / pairwise / spmv / lambda
# path) on a >= 2-domain pool: asserts the parallel legs took the
# parallel branch and are bit-identical to serial, validates the profile
# JSON, and prints the serial/parallel ratios (above 1x only where the
# pool pays; 0.2-0.6x on a 2-vCPU VM) and the speedup contract entries.
bench-par:
	dune build bench/main.exe
	./_build/default/bench/main.exe --par-smoke > /dev/null

bench:
	dune exec bench/main.exe

# Regression gate: run the smoke-size bench, then compare its per-phase
# wall times against the committed baseline (threshold 3x — the gate is
# for order-of-magnitude slips, not scheduler noise) AND enforce the
# speedup contract: every recorded speedup (lambda path, kd-tree graph
# build against the full scan, multigrid iterations) must stay at or above the 0.95x floor and must
# not collapse versus the baseline.  Override the baseline with
# BASELINE=path.
bench-check:
	dune build bench/main.exe bench/compare.exe
	./_build/default/bench/main.exe --smoke --out /tmp/gssl_bench_current.json > /dev/null
	./_build/default/bench/compare.exe $(BASELINE) /tmp/gssl_bench_current.json --threshold 3

# Refresh the committed baseline (or snapshot the current revision as a
# BENCH_<rev>.json artifact: make bench-snapshot BASELINE=BENCH_$$(git rev-parse --short HEAD).json).
bench-snapshot:
	dune build bench/main.exe
	./_build/default/bench/main.exe --smoke --out $(BASELINE) > /dev/null
	@echo "wrote $(BASELINE)"

# Chrome-trace smoke: capture a --trace-out file from the toy run and
# structurally validate it (>= 1 complete span event).
trace-smoke:
	dune build bin/repro.exe bench/compare.exe
	./_build/default/bin/repro.exe toy --trace-out /tmp/gssl_trace.json > /dev/null
	./_build/default/bench/compare.exe --check-trace /tmp/gssl_trace.json

# Observability smoke: run a journaled soak with replay verification
# (response digest AND journal digest must match across runs), validate
# every journal line against the span-tree schema via the standalone
# checker, and render the one-shot dashboard in all three formats so a
# broken exposition surface fails CI rather than paging someone later.
# Last, `repro health` must print Model 1's pinned hard-solve residual,
# the condition numbers of both showcase systems, and the starved rerun
# its Gauss-Seidel rung, its stagnation flag and the two CG rungs it
# abandoned.  (The pins live in a variable because an unbalanced
# parenthesis cannot be written inside $(call ...).)
HEALTH_PINS = 'true residual      2.607e-14  (relative 6.940e-16)' \
	'cond estimate      7.371e+00' 'cond estimate      1.126e+01' \
	'rung gauss_seidel' 'stagnated          true' \
	'abandoned cg (' 'abandoned cg_restarted ('
obs-smoke:
	dune build bin/repro.exe bench/compare.exe
	./_build/default/bin/repro.exe soak --requests 1200 --verify-replay \
		--journal /tmp/gssl_obs_journal.jsonl > /dev/null
	./_build/default/bench/compare.exe --check-journal /tmp/gssl_obs_journal.jsonl
	./_build/default/bin/repro.exe top --requests 600 > /dev/null
	./_build/default/bin/repro.exe top --requests 600 --format prometheus > /dev/null
	./_build/default/bin/repro.exe top --requests 600 --format json > /dev/null
	./_build/default/bin/repro.exe health > /tmp/gssl_health.txt
	@$(call expect_digests,/tmp/gssl_health.txt,$(HEALTH_PINS))

# Transport smoke: the hostile-client soak byte-replayed on the virtual
# clock (pinned seed, where the response and journal digests must be the
# pinned ones, + a fresh seed, both with replay verification), then a
# real loopback exchange — `gssl serve --socket` against the scripted
# hostile client, which asserts every corruption mode maps to its typed
# error and that a clean query still answers on a connection that just
# survived a JSON-level error — finishing with a SIGTERM graceful drain
# that must exit 0.
TRANSPORT_SOCK ?= /tmp/gssl_transport_smoke.sock
transport-smoke:
	dune build bin/repro.exe
	./_build/default/bin/repro.exe netsoak --connections 1500 --verify-replay \
		--journal /tmp/gssl_netsoak_journal.jsonl > /tmp/gssl_netsoak_pinned.txt
	@$(call expect_digests,/tmp/gssl_netsoak_pinned.txt,'digest=864b85d0ca4da255 ' 'digest 15fff8228fbb357e')
	@seed=$$(( ($$(date +%N | sed 's/^0*//') % 999983) + 43 )); \
	echo "transport-smoke fresh seed=$$seed"; \
	./_build/default/bin/repro.exe netsoak --connections 1500 --seed $$seed \
		--verify-replay > /dev/null
	@rm -f $(TRANSPORT_SOCK); \
	./_build/default/bin/repro.exe serve --socket $(TRANSPORT_SOCK) & \
	srv=$$!; \
	for i in $$(seq 1 100); do test -S $(TRANSPORT_SOCK) && break; sleep 0.05; done; \
	test -S $(TRANSPORT_SOCK) || { echo "transport-smoke: server never bound"; kill $$srv 2>/dev/null; exit 1; }; \
	./_build/default/bin/repro.exe client --socket $(TRANSPORT_SOCK) --hostile --seed 7 || { kill $$srv 2>/dev/null; exit 1; }; \
	./_build/default/bin/repro.exe client --socket $(TRANSPORT_SOCK) --query 3 --stats > /dev/null || { kill $$srv 2>/dev/null; exit 1; }; \
	kill -TERM $$srv; \
	wait $$srv; rc=$$?; \
	test $$rc -eq 0 || { echo "transport-smoke: drain exited $$rc"; exit 1; }; \
	echo "transport-smoke: drain exit 0"

# Scaling smoke: the million-vertex pipeline at a reduced, pinned-seed
# size — exact kNN graph build on the kd-tree, heavy-edge coarsening,
# and the multigrid-preconditioned hard solve raced against flat CG.
# `repro scale` exits non-zero if any scaling contract (iteration
# reduction, solver agreement) is violated.  It runs on one and on two
# domains, and the two `graph digest` lines (a hash of the built CSR)
# and the two `solution digest` lines (a hash of the multigrid answer)
# must match: the tree search's and the solve's cross-domain
# bit-identity at 12 000 points, beyond the few hundred the qcheck
# properties reach.  Both runs must also print the pinned digests, so
# a change that moved the graph or the answer on every domain count
# alike still fails.  The graph digest is that of an O(n²) scan's
# exact kNN graph on the same points.
scale-smoke:
	dune build bin/repro.exe
	GSSL_DOMAINS=1 ./_build/default/bin/repro.exe scale --count 12000 --seed 11 > /tmp/gssl_scale_d1.txt
	GSSL_DOMAINS=2 ./_build/default/bin/repro.exe scale --count 12000 --seed 11 > /tmp/gssl_scale_d2.txt
	@for f in /tmp/gssl_scale_d1.txt /tmp/gssl_scale_d2.txt; do \
		$(call expect_digests,$$f,'graph    digest 7ac13ede0709fbaa' 'solution digest 06be7e2ff4fd8e19'); \
	done
	@for what in 'graph    digest' 'solution digest'; do \
		d1=$$(grep "^$$what" /tmp/gssl_scale_d1.txt); \
		d2=$$(grep "^$$what" /tmp/gssl_scale_d2.txt); \
		test -n "$$d1" && test "$$d1" = "$$d2" || \
			{ echo "scale-smoke: $$what differs across domain counts: '$$d1' vs '$$d2'"; exit 1; }; \
		echo "scale-smoke: $$d1 on 1 and 2 domains"; \
	done

ci: build test test-domains1 test-random \
	fault-smoke soak-smoke bench-smoke bench-par bench-check trace-smoke \
	obs-smoke transport-smoke scale-smoke

clean:
	dune clean
