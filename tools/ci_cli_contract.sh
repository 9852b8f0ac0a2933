#!/usr/bin/env bash
# CLI contract for the seven user-facing binaries: --help exits 0 with usage
# on stdout, one malformed numeric flag exits nonzero with an error on
# stderr that names the flag, and staleload_sim refuses model-only flags on
# a model that does not read them and fault-spec crash keys beside a churn
# spec. One bench, reached through the sibling bench/ directory, must name
# the config field a bad value fails.
#
#   tools/ci_cli_contract.sh build/tools
set -u
BIN="${1:?usage: ci_cli_contract.sh BIN_DIR}"
ERR="$(mktemp)"
trap 'rm -f "$ERR"' EXIT
failures=0

for bin in staleload_sim staleload_lb staleload_backend staleload_loadgen \
           playdiff plot_sweep bench_diff; do
  if out="$("$BIN/$bin" --help < /dev/null 2> "$ERR")" &&
     grep -q "^usage: $bin" <<< "$out"; then
    echo "ok:   $bin --help"
  else
    echo "FAIL: $bin --help failed or printed no usage on stdout"
    failures=$((failures + 1))
  fi
done

# bad FLAG ARGS...: ARGS give BINARY's FLAG a malformed value.
bad() {
  local bin="$1" flag="$2"
  shift 2
  if "$BIN/$bin" "$@" < /dev/null > /dev/null 2> "$ERR"; then
    echo "FAIL: $bin $* exited 0"; failures=$((failures + 1))
  elif ! grep -q -- "$flag" "$ERR"; then
    echo "FAIL: $bin $*: stderr does not name $flag: $(cat "$ERR")"
    failures=$((failures + 1))
  else
    echo "ok:   $bin $* -> $(head -n 1 "$ERR")"
  fi
}
bad staleload_sim --lambda --lambda nan
bad staleload_lb --tcp-port --backends 2 --tcp-port 80x
bad staleload_backend --port --report-to 127.0.0.1:9 --port 70000
bad staleload_loadgen --max-jobs --target 127.0.0.1:9 --max-jobs -1
bad playdiff --tol-response --tol-response 10x a.json b.json
bad plot_sweep --width --width 10x
bad bench_diff --max-regress --max-regress 10x a.json b.json
# The benches build beside the tools: a migration delay the trial cannot
# use is refused by the config field's name.
bad ../bench/ablation_receiver_driven migration_delay --fast \
  --migration-delay -1

# rejected FIELD ARGS...: staleload_sim must refuse a flag that its --model
# does not read (the run would print output identical to the run without
# it), or a key another spec owns: exit 1 with an error: line that names
# FIELD.
rejected() {
  local field="$1"
  shift
  "$BIN/staleload_sim" "$@" < /dev/null > /dev/null 2> "$ERR"
  local status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: staleload_sim $* exited $status, not 1"
    failures=$((failures + 1))
  elif ! grep -q "error:.*$field" "$ERR"; then
    echo "FAIL: staleload_sim $*: no error naming $field: $(cat "$ERR")"
    failures=$((failures + 1))
  else
    echo "ok:   staleload_sim $* -> $(head -n 1 "$ERR")"
  fi
}
rejected bursty --model periodic --bursty
rejected know_actual_age --model periodic --know-age
rejected know_actual_age --model update_on_access --know-age
rejected delay_kind --model periodic --delay exponential
rejected delay_kind --model update_on_access --delay exponential
# The churn spec owns the liveness process: a fault spec's crash key beside
# it is refused by name.
rejected crash --fault-spec crash=0.01 --churn-spec leave=0.01

if [ "$failures" -gt 0 ]; then
  echo "$failures CLI contract check(s) failed"
  exit 1
fi
echo "CLI contract: all binaries conform"
