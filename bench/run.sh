#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build the
# bench command and run it, reading and writing nothing outside the
# checkout. Go's build cache, GOPATH and temp files go to bench/.build/;
# user-level Go settings and the network are off. The first run in a fresh
# checkout compiles the standard library into that cache; later runs only
# relink what changed.
#
# By hand, `go run ./bench ...` from the repository root does the same
# with your own Go caches.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
