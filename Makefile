.PHONY: all build test bench lint ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# The gate and micro-benchmark harness (bench/main.exe: opcheck,
# history-append, history-check, micro; micro when ARGS is empty) builds
# with the release profile: the dev profile passes -opaque, which
# disables the cross-module [@inline] the simulator and rng hot paths
# rely on, so dev-profile timings undersell the code. Figures and
# ablation tables come from `crowdmax experiment`; wall-clock
# regressions are perfbench's job (`python3 perfbench/run.py`, see
# perfbench/README.md).
bench:
	dune exec --profile release bench/main.exe -- $(ARGS)

# Static analysis gate: runs crowdmax-lint (tools/lint/) over every
# typedtree in lib/, bin/, bench/, tools/ and examples/, enforcing rules
# R1-R7 documented in CONTRIBUTING.md (comparison, determinism, domain
# safety, interfaces, allocation discipline, and R7: every lib/ export
# has a user, with test/ and perfbench/ read as users only). Fails on
# any finding not suppressed in tools/lint/allow.txt.
lint:
	dune build @lint

# The CI gate: warnings-as-errors build (the ci dune profile promotes
# the lib/ warning set to errors), the whole test suite, the lint gate
# (R1-R7), a metrics round-trip smoke (a simulated run dumps --metrics JSON,
# metrics-check must accept it — exercises the full
# planner/engine/platform document, not just the library tests), and one
# pass through the bechamel micro-benchmarks so the bench executable
# stays runnable (its engine cases include the finite-deadline path).
# `dune runtest` includes the experiment golden (bin/experiments.expected:
# `crowdmax experiment` at its committed seeds) and the operation-count
# gate: `bench/main.exe opcheck` prints the deterministic work counters
# (the simulated event loop's events, the tDP planner's DP states and
# plan-cache reuse, the closed loop's re-fits, the query server's fleet
# counters), fails on a broken structural cross-check or any-jobs
# bit-identity, and its output is diffed against
# bench/opcheck.expected. history-check recomputes the
# same counters and fails on >2% drift against the last counters-bearing
# BENCH_history.jsonl row, catching cross-PR work-profile regressions
# even when opcheck.expected was promoted
# (CROWDMAX_BENCH_BASELINE=skip disables it, =<commit-prefix> pins the
# comparison row). The last step is the wall-clock benchmark's
# self-test: every perfbench workload at smoke size, traced and
# untraced, failing on any traced/library mismatch or a metric set that
# differs from BENCHMARK.json.
ci:
	dune build @all --profile ci
	dune build @all
	dune runtest
	dune build @lint
	dune exec bin/crowdmax_cli.exe -- run --elements 20 --budget 120 \
		--runs 3 --simulated --metrics _build/ci_metrics_smoke.json
	dune exec bin/crowdmax_cli.exe -- metrics-check _build/ci_metrics_smoke.json
	rm -f _build/ci_metrics_smoke.json
	dune exec bench/main.exe -- micro
	dune exec bench/main.exe -- history-check
	dune exec bin/crowdmax_cli.exe -- run --elements 60 --budget 200 \
		--runs 2 --simulated --adaptive --refit drift:0.5
	dune exec bin/crowdmax_cli.exe -- experiment fig_adapt --runs 6 -j 4
	dune exec bin/crowdmax_cli.exe -- serve --queries 4 --runs 2 -j 4
	dune exec bin/crowdmax_cli.exe -- experiment fig_server --runs 4 -j 4
	python3 perfbench/selftest.py

clean:
	dune clean
