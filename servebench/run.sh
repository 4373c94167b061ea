#!/usr/bin/env bash
# Builds servebench from this checkout's sources and runs it with the
# given arguments. Run it from the checkout root: build outputs, the Go
# build cache and the Go tool's own state stay under .bench_build there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/servebench" -o "$out/servebench" .
exec "$out/servebench" "$@"
