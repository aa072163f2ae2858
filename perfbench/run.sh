#!/usr/bin/env bash
# Builds vlpserved and the benchmark program from the source tree it runs
# in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache, temp files, binaries, stores,
# logs, span files). The last line of standard output is the result
# JSON; build chatter goes to standard error.
set -euo pipefail
root="$PWD"
if [[ ! -f go.mod || ! -d cmd/vlpserved ]]; then
	echo "run.sh: $root is not a source tree with cmd/vlpserved" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry state in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on, the first go command under a fresh config directory
# forks a detached upload process that can outlive this script. "go
# telemetry off" is the one go command that never starts it, and it
# keeps the ones below from starting it.
go telemetry off >&2
go build -o "$out/bin/vlpserved" ./cmd/vlpserved >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --server "$out/bin/vlpserved" --out "$out" "$@"
