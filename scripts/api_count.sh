#!/bin/sh
# Size report: the exported-API count and the non-test Go line count,
# with the definitions stated in scripts/api_count.go. Report-only: it
# prints the figures and never fails on their value. Pass -v for the
# per-package breakdown.
set -eu
cd "$(dirname "$0")/.."
go run scripts/api_count.go "$@"
