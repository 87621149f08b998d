#!/usr/bin/env bash
# Builds the benchmark binary into benchmark/.build and replaces this
# shell with it: no `go run`, no child left behind, nothing written
# outside the checkout. Arguments pass through to the binary
# (README.md lists them).
set -eu

here="$(cd "$(dirname "$0")" && pwd)"
build="$here/.build"

# Everything the go command writes goes under .build: caches, module
# path, temporary files and its own configuration directory.
export GOCACHE="$build/cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"

# A configuration directory the go command has not seen before makes
# it start its telemetry sidecar, which outlives a build that fails
# fast. Switch telemetry off before the first go invocation.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

cd "$here"
go build -o "$build/dfdbm-bench" .
exec "$build/dfdbm-bench" -home "$here" "$@"
