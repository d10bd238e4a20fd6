#!/bin/sh
# Builds wirebench from source and runs it from the repository root.
#
#   sh wirebench/run.sh --workload steady-wal --seed 1 --seconds 24 --trace 0
#   sh wirebench/run.sh                       # every workload, untraced
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the binary, and scratch files.
set -eu

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f wirebench/go.mod ]; then
	echo "wirebench: run from the repository root (go.mod, internal/ and wirebench/ expected)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off

(cd wirebench && go build -o "$build/bin/wirebench" .)

if [ "$#" -eq 0 ]; then
	for w in steady-wal fault-dense wal-recovery; do
		"$build/bin/wirebench" --workload "$w"
	done
	exit 0
fi
exec "$build/bin/wirebench" "$@"
