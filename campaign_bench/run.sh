#!/bin/sh
# Build the campaign benchmark from source in this checkout, then run it
# with the given arguments. Run from the root of the checkout:
#   sh campaign_bench/run.sh --workload t1-comb --seed 2005 --seconds 20 --trace 0
# Build output goes to stderr and to _build/ in the checkout; the dune
# cache is disabled so nothing is written outside the checkout.
set -e
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . --cache=disabled --display=quiet ./campaign_bench/campaign.exe 1>&2
exec ./_build/default/campaign_bench/campaign.exe "$@"
