.PHONY: all build test sim-identity bench-smoke bench-e14 bench-e15 bench-e16 bench-e17 bench-e18 bench-e19 kperf-smoke kprof-smoke kverify-smoke kopt-smoke kfault-smoke kcrash-smoke perfbench-smoke examples check clean

all: build

build:
	dune build

test:
	dune runtest

# Simulated-number identity against another commit (default HEAD):
# extract REF with git archive into a temp directory, build it there, run
# the smoke bench in both trees, and fail if its stdout or
# BENCH_kstats.json differs (printing the first counters that moved).
# The simulator is deterministic, so a host-only refactor must pass this
# byte for byte.
#   make sim-identity REF=<commit>
REF ?= HEAD

sim-identity:
	@set -e; ref=$$(mktemp -d); trap 'rm -rf "$$ref"' EXIT; \
	git archive --format=tar $(REF) | tar -x -C "$$ref"; \
	dune build bench/main.exe bin/kstats_tool.exe; \
	rm -f BENCH_kstats.json; \
	./_build/default/bench/main.exe smoke > "$$ref/work.out"; \
	(cd "$$ref" && dune build --root . bench/main.exe && \
	  ./_build/default/bench/main.exe smoke > ref.out); \
	status=0; \
	if ! cmp -s "$$ref/ref.out" "$$ref/work.out"; then \
	  echo "sim-identity: smoke stdout differs from $(REF):"; \
	  diff "$$ref/ref.out" "$$ref/work.out" | head -20; status=1; \
	fi; \
	if ! cmp -s "$$ref/BENCH_kstats.json" BENCH_kstats.json; then \
	  echo "sim-identity: BENCH_kstats.json differs from $(REF):"; \
	  ./_build/default/bin/kstats_tool.exe diff "$$ref/BENCH_kstats.json" \
	    BENCH_kstats.json | head -40; status=1; \
	fi; \
	if [ $$status = 0 ]; then echo "sim-identity: identical to $(REF)"; fi; \
	exit $$status

# Every experiment end to end at tiny scale (including E12 ring_batch),
# plus the BENCH_kstats.json artifact.
bench-smoke:
	dune exec bench/main.exe -- smoke

# The C10K serving experiment at full scale: 100/1k/10k connections,
# four serving variants, 1 and 4 CPUs.  Takes a few minutes.
bench-e14:
	dune exec bench/main.exe -- E14

# Tracing overhead on the C10K webserver at full scale: all four serving
# variants with the kperf tracer on vs off (rows under E15 in
# BENCH_kstats.json).
bench-e15:
	dune exec bench/main.exe -- E15

# Syscall-flow integrity + static admission at full scale: SFI gate
# overhead on the four E14 serving variants, then verified-vs-watchdog
# admission speedups on ring batches and a Cosy counted loop.
bench-e16:
	dune exec bench/main.exe -- E16

# The kopt optimizer at full scale: counted-loop speedup over verified
# execution, compiled-program cache amortization, the detached-optimizer
# cycle-identity check, and the webserver sweep optimizer off vs on
# (copied-byte reduction on the ring variant, digest equality).
bench-e17:
	dune exec bench/main.exe -- E17

# The resilience experiment at full scale: the four E14 serving variants
# under injected wire-drop faults at 1-in-64 / 1-in-16 / 1-in-4, with and
# without load shedding (rows under E18 in BENCH_kstats.json).
bench-e18:
	dune exec bench/main.exe -- E18

# The crash experiment at full scale: recovery time vs journal length,
# oops-containment overhead (cycle-identical when quiet), the durable
# WAL cost, and a sampled crash-point sweep (rows under E19 in
# BENCH_kstats.json).
bench-e19:
	dune exec bench/main.exe -- E19

# Record a traced run, export it, and re-derive the folded/top views
# from the exported JSON — exercises the whole tracer pipeline on a
# tiny workload.
kperf-smoke:
	dune exec bin/kperf_tool.exe -- record -w lsdir -o /tmp/kperf_smoke.json
	dune exec bin/kperf_tool.exe -- fold /tmp/kperf_smoke.json > /dev/null
	dune exec bin/kperf_tool.exe -- top /tmp/kperf_smoke.json
	rm -f /tmp/kperf_smoke.json

# Sample the host call stack over one small journalfs run and print the
# hottest frames: exercises the profiler end to end in well under a
# second (use -r to repeat the workload for a steadier profile).
kprof-smoke:
	dune exec bin/kprof_tool.exe -- -w postmark --fs journalfs -n 5

# Learn a workload's syscall-flow automaton, verify a clean re-run is
# violation-free, and confirm a different workload trips the gate —
# exercises the whole kverify learn/enforce pipeline.
kverify-smoke:
	dune exec bin/kverify_tool.exe -- learn -w lsdir -o /tmp/lsdir.sfi
	dune exec bin/kverify_tool.exe -- check /tmp/lsdir.sfi -w lsdir
	! dune exec bin/kverify_tool.exe -- check /tmp/lsdir.sfi -w postmark > /dev/null
	rm -f /tmp/lsdir.sfi

# Round-trip every kopt demo compound through the optimizer printer:
# encode to disk, re-read, verify, and show the optimized plan —
# exercises the checker/compiler/pretty-printer pipeline end to end.
kopt-smoke:
	dune exec bin/kverify_tool.exe -- opt --demo loop -o /tmp/kopt_loop.cosy
	dune exec bin/kverify_tool.exe -- opt /tmp/kopt_loop.cosy > /dev/null
	dune exec bin/kverify_tool.exe -- opt --demo coalesce > /dev/null
	dune exec bin/kverify_tool.exe -- opt --demo fuse > /dev/null
	rm -f /tmp/kopt_loop.cosy

# List every fault site with its fault-free occurrence count, run one
# representative recovery plan, and sweep a capped (site, occurrence)
# grid asserting zero invariant violations — exercises the whole kfault
# engine/recovery/sweep pipeline.  Compare a faulty run's counters
# against a clean run with `kstats_tool diff` (see DESIGN.md #14).
kfault-smoke:
	dune exec bin/kfault_tool.exe -- list-sites
	dune exec bin/kfault_tool.exe -- run-plan syscall.eintr=once:1 net.wire_drop=nth:16
	dune exec bin/kfault_tool.exe -- sweep --max-per-site 2

# Inject a power loss at a capped set of durable-write boundaries and
# assert every one recovers Consistent or Recovered (exit 1 on any
# corruption), then crash one point verbosely and replay it through
# reboot + fsck — exercises the whole kcrash containment/recovery
# pipeline.
kcrash-smoke:
	dune exec bin/kcrash_tool.exe -- sweep --max-per-site 2
	dune exec bin/kcrash_tool.exe -- crash-at 100

# Run every example end to end.  kring_batch, knet_c10k and kverify_sfi
# assert their end-to-end claims and exit non-zero when one fails.
examples: build
	@for e in _build/default/examples/*.exe; do \
	  echo "examples: $$e"; $$e > /dev/null || exit 1; \
	done

# One short run of each benchmark workload (perfbench/, declared in
# BENCHMARK.json).  perfbench exits non-zero when an output differs from
# its reference or the determinism fingerprint drifts between repeats.
perfbench-smoke:
	dune build ./perfbench/perfbench.exe
	for w in web postmark journal cosy_db; do \
	  ./_build/default/perfbench/perfbench.exe --workload $$w --seed 1 \
	    --seconds 1 --trace 0 || exit 1; \
	done

check: build test examples bench-smoke kperf-smoke kprof-smoke kverify-smoke kopt-smoke kfault-smoke kcrash-smoke perfbench-smoke

clean:
	dune clean
	rm -f BENCH_kstats.json
