#!/bin/sh
# Smoke test for delaystage_cli: dispatch exit codes, `<cmd> --help`, and the
# `trace` command end to end.
#
#   sh tests/cli_smoke.sh build/examples/delaystage_cli
set -u
cli="$1"
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$cli" help >/dev/null || fail "help did not exit 0"

"$cli" no-such-command >/dev/null 2>&1
[ $? -eq 2 ] || fail "an unknown command did not exit 2"

# `<cmd> --help` prints usage and must not run the command: a sched run
# would print one NDJSON row ({...}) per job.
out=$("$cli" sched --help) || fail "sched --help did not exit 0"
case $out in usage:*) ;; *) fail "sched --help printed no usage" ;; esac
case $out in *'{'*) fail "sched --help ran the scheduler" ;; esac

out=$("$cli" trace) || fail "trace did not exit 0"
for want in 'jobs with parallel stages:' 'parallel stages overall:' \
            'median stages per job:' 'Fuxi' 'DelayStage'; do
  case $out in *"$want"*) ;; *) fail "trace output lacks '$want'" ;; esac
done
echo "cli smoke: ok"
