#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it; every
# argument passes through (see ubikbench/README.md). Run from the repository
# root. Go's build cache and temporary files stay under .bench_build/, no
# module is ever fetched, and the build reads no go.work, no user go env
# file and no version control: a checkout that sits inside another git
# tree, or has no git at all, builds the same.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off CGO_ENABLED=0
export GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$here" && go build -o "$out/ubikbench" .)
exec "$out/ubikbench" "$@"
