#!/usr/bin/env bash
# Digests of the artefacts that pin the reproduction's behaviour: the 16
# figure/ablation harness outputs, `harmony_distributed --selfcheck` at
# 8 and 64 clients, and one `tuning_shootout --smoke` run over all 8
# registered strategies.  A change that claims to keep behaviour
# byte-identical (a refactor, a deletion, a performance change) must leave
# every digest unchanged.
#
#   tools/output_digests.sh <build-dir>
#       prints "<sha256>  <artefact>" per artefact
#   tools/output_digests.sh <build-dir> --compare <other-build-dir>
#       digests both builds and exits non-zero on any mismatch
#
# Harnesses run at fixed REPRO_REPS=40 and REPRO_THREADS=4 (their output
# must not depend on the thread count anyway).  Only stdout is digested,
# after dropping any line that names a thread count or a wall time; the
# shootout's skipped-combination lines are cut to the skipped spec, so its
# digest pins the CSV rows and which specs were skipped, not the wording of
# the error that skipped them.  Any artefact whose program exits non-zero
# fails the run.
set -u

readonly REPS=40
readonly THREADS=4
readonly HARNESSES=(
  fig01_metrics fig02_simplex_geometry fig03_traces fig04_07_tail
  fig08_surface fig09_initial_simplex fig10_multisample
  ablation_algorithms ablation_correlated_noise ablation_estimators
  ablation_expansion_check ablation_probe_policy ablation_queue_model
  ablation_sampling_modes extension_adaptive_k extension_racing
)
readonly SHOOTOUT_STRATEGIES='pro;sro;nm:iters=150;compass;anneal;genetic;random;fixed'
readonly VOLATILE='wall|elapsed|threads?[[:space:]]*[=:][[:space:]]*[0-9]'

usage() {
  echo "usage: $0 <build-dir> [--compare <other-build-dir>]" >&2
  exit 2
}

# digest <label> <command...>: runs the command, prints its filtered
# stdout's sha256 and the label; returns the command's exit status.
digest() {
  local label=$1
  shift
  local out status
  out=$("$@" 2>/dev/null)
  status=$?
  local sum
  sum=$(printf '%s\n' "$out" | grep -viE "$VOLATILE" | sha256sum)
  if [[ $status -ne 0 ]]; then
    echo "FAILED(exit $status)  $label"
  else
    echo "${sum%% *}  $label"
  fi
  return "$status"
}

# shootout <build-dir>: the smoke run over SHOOTOUT_STRATEGIES, each line
# after the "skipped combinations" heading cut at its first ": ".
shootout() {
  local out status
  out=$("$1/examples/tuning_shootout" --smoke \
    "--strategies=$SHOOTOUT_STRATEGIES")
  status=$?
  printf '%s\n' "$out" |
    awk '/^skipped combinations/ { s = 1 } s && /^  / { sub(/: .*/, "") } 1'
  return "$status"
}

# digests <build-dir>: every artefact of one build, one line each.
digests() {
  local dir=$1 rc=0 h clients
  for h in "${HARNESSES[@]}"; do
    REPRO_REPS=$REPS REPRO_THREADS=$THREADS \
      digest "$h" "$dir/bench/$h" || rc=1
  done
  for clients in 8 64; do
    digest "harmony_distributed --selfcheck --clients $clients" \
      "$dir/examples/harmony_distributed" --selfcheck --clients "$clients" ||
      rc=1
  done
  digest "tuning_shootout --smoke (8 strategies)" shootout "$dir" || rc=1
  return "$rc"
}

[[ $# -eq 1 || $# -eq 3 ]] || usage
build=$1
[[ -d $build ]] || usage

if [[ $# -eq 1 ]]; then
  digests "$build"
  exit
fi

[[ $2 == --compare ]] || usage
other=$3
[[ -d $other ]] || usage
mine=$(mktemp)
theirs=$(mktemp)
trap 'rm -f "$mine" "$theirs"' EXIT
rc=0
digests "$build" >"$mine" || rc=1
digests "$other" >"$theirs" || rc=1
mismatches=0
while IFS= read -r a && IFS= read -r b <&3; do
  label=${a#*  }
  if [[ $a == "$b" && $a != FAILED* ]]; then
    echo "same      $label"
  else
    echo "DIFFERENT $label"
    echo "    $build: ${a%%  *}"
    echo "    $other: ${b%%  *}"
    mismatches=$((mismatches + 1))
  fi
done <"$mine" 3<"$theirs"
total=$(wc -l <"$mine")
echo "$((total - mismatches))/$total artefacts identical"
[[ $mismatches -eq 0 && $rc -eq 0 ]]
