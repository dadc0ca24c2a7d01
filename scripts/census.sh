#!/usr/bin/env bash
# Reachability census (`make census`; DESIGN.md §9, "Reachability").
#
# Builds replbench, bench, simlint and the quickstart example with coverage
# over every package of the module, runs a fixed list of experiments,
# benchmark workloads and the lint suite under one GOCOVERDIR, and fails on
#   - a function in internal/, cmd/ or examples/ that no run reached
#     (`go tool covdata func` reports 0.0 %) and that scripts/census.allow
#     does not list;
#   - a package there that no census binary links, unless listed as
#     `<dir> * <reason>`;
#   - a stale allowlist line: its function is reached now, or gone.
# bench/ is the benchmark's own code: it is not judged, but its calls count.
# Tests are not callers: nothing here runs `go test`.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/census.allow
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
mkdir -p "$bin" "$work/cov"

start=$SECONDS
go build -cover -coverpkg=./... -o "$bin/" ./cmd/replbench ./cmd/simlint ./bench ./examples/quickstart
echo "census: build $((SECONDS - start))s"

# run runs one census binary; a failed run fails the census with its output.
run() {
	"$bin/$1" "${@:2}" >"$work/log" 2>&1 || {
		echo "census: $* failed:"
		tail -n 20 "$work/log"
		exit 1
	}
}
export GOCOVERDIR=$work/cov
runs=$SECONDS
run replbench -experiment all -profile smoke -cpuprofile "$work/cpu.pprof" -memprofile "$work/mem.pprof"
run replbench -experiment megascale -profile smoke -shards 4
run replbench -experiment tracebreak -profile smoke -rf 1,3,4 -trace-out "$work/trace.json"
run quickstart
for w in cass_mixed hbase_mixed cass_scan mega_shards2; do
	run bench -workload "$w" -seconds 2
done
run bench -workload cass_mixed -seconds 2 -trace 1
run simlint -ignores ./...
unset GOCOVERDIR
echo "census: runs $((SECONDS - runs))s"

# Keys are "<file> <function>" (function as covdata names it) and
# "<package dir> *", relative to the module root.
mod=$(go list -m)
go tool covdata func -i="$work/cov" |
	awk -v mod="$mod/" '$NF == "0.0%" { f = $1; sub(/:[0-9]+:$/, "", f); sub("^" mod, "", f); print f, $2 }' |
	grep -E '^(internal|cmd|examples)/' >"$work/found" || true
go tool covdata pkglist -i="$work/cov" | sort >"$work/linked"
go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... ./cmd/... ./examples/... | sort |
	comm -23 - "$work/linked" | sed "s|^$mod/||; s|\$| *|" >>"$work/found"
sort -u -o "$work/found" "$work/found"

grep -vE '^[[:space:]]*(#|$)' "$allow" >"$work/lines" || true
bad=$(awk 'NF < 3' "$work/lines")
if [ -n "$bad" ]; then
	printf 'census: allowlist lines need "file function reason":\n%s\n' "$bad"
	exit 1
fi
awk '{ print $1, $2 }' "$work/lines" | sort -u >"$work/listed"

unlisted=$(comm -23 "$work/found" "$work/listed")
stale=$(comm -13 "$work/found" "$work/listed")
if [ -n "$unlisted" ]; then
	printf 'census: reached by no experiment, benchmark run or example; delete it, reach it, or list it in %s with a reason:\n%s\n' "$allow" "$unlisted"
fi
if [ -n "$stale" ]; then
	printf 'census: stale lines in %s (reached now, or gone):\n%s\n' "$allow" "$stale"
fi
[ -z "$unlisted$stale" ] || exit 1
echo "census: $(wc -l <"$work/found") unreached, all listed with a reason; $((SECONDS - start))s"
