#!/usr/bin/env bash
# Build cosmbench from the checkout this script sits in and run it.
#
#   bench/run.sh --workload import_wire --seed 1 --seconds 24 --trace 0
#       one run, exactly as the driver invokes it (BENCHMARK.json's
#       command); the last stdout line is the result object.
#   bench/run.sh
#       every workload, untraced then traced, at seed 1; result lines
#       are collected in bench/out/results.jsonl, traces in
#       bench/out/trace-<workload>.json.
#   bench/run.sh -aa 5 | -quick
#       passed through to cosmbench.
#
# Everything written — Go's build cache, the binary, scratch journals,
# traces — stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: cosmbench builds against the COSM sources" >&2
	exit 1
fi
# Keep the go command inside the checkout too: build cache, module
# path, work directories, and (XDG_CONFIG_HOME) its env and telemetry
# files; never fetch another toolchain.
mkdir -p .bench_build/tmp bench/out
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOTMPDIR="$PWD/.bench_build/tmp" \
	XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local
go build -o bench/cosmbench ./bench

if [ $# -gt 0 ]; then
	exec bench/cosmbench "$@"
fi

seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
: >bench/out/results.jsonl
for trace in 0 1; do
	for workload in import_wire import_match market_churn federated_import; do
		bench/cosmbench --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace" | tee bench/out/last.txt | grep '^#'
		tail -n 1 bench/out/last.txt >>bench/out/results.jsonl
	done
done
rm -f bench/out/last.txt
echo "results: bench/out/results.jsonl"
