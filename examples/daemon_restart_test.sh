#!/bin/sh
# Kill-and-restart check for reliable_device_daemon over real TCP:
#
#   sh daemon_restart_test.sh <reliable_device_daemon> <block_client>
#
# A one-site available-copy daemon on an ephemeral port (read from its
# ready line, so parallel runs never collide) takes a write and gets
# SIGTERM. Started again over the same store, it must report the store as
# reopened, recover, and serve the same block. Then one header byte of the
# store is zeroed: the next start must fail and leave the file as it was.
# Last, a voting daemon whose two peers are unreachable has no write
# quorum: `block_client bench` must exit 1 and say why the op failed.
set -u

daemon=$1
client=$2
dir=$(mktemp -d)
store=$dir/site0.rdev
pid=""

cleanup() {
  if [ -n "$pid" ]; then kill "$pid" 2>/dev/null; fi
  rm -rf "$dir"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

fail() {
  echo "FAIL: $*"
  for log in "$dir"/*.log; do echo "--- $log"; cat "$log"; done
  exit 1
}

# run_daemon [WRAPPER...]: exec, so that in the background $! is the daemon.
# The scheme, peers and store come from $scheme, $peers and $store.
scheme=available-copy
peers=127.0.0.1:1
run_daemon() {
  exec "$@" "$daemon" --site=0 --port=0 --peers="$peers" \
    --scheme="$scheme" --blocks=8 --block-size=64 --store="$store"
}

# wait_for LOG TEXT: wait up to 10 s for TEXT in LOG while the daemon runs.
wait_for() {
  tries=0
  until grep -q "$2" "$dir/$1"; do
    kill -0 "$pid" 2>/dev/null || fail "daemon exited before '$2'"
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || fail "no '$2' in $1 within 10 s"
    sleep 0.1
  done
}

start() {
  run_daemon >"$dir/$1" 2>&1 &
  pid=$!
  wait_for "$1" "serving on port"
  port=$(sed -n 's/.*serving on port \([0-9]*\).*/\1/p' "$dir/$1")
}

stop() {
  kill -TERM "$pid"
  wait "$pid" || fail "daemon exited non-zero on SIGTERM"
  pid=""
}

client() {
  "$client" --servers="127.0.0.1:$port" "$@"
}

start first.log
grep -q "(fresh)" "$dir/first.log" || fail "a new store is not reported fresh"
client write 3 hello >/dev/null || fail "write failed"
stop

start second.log
grep -q "(reopened)" "$dir/second.log" || fail "restart did not reopen"
wait_for second.log "recovered; state: available"
[ "$(client read 3)" = hello ] || fail "read-back after restart"
stop

printf '\000' | dd of="$store" bs=1 count=1 conv=notrunc 2>/dev/null
cp "$store" "$dir/corrupt.copy"
(run_daemon timeout 10) >"$dir/third.log" 2>&1
case $? in
  0 | 124) fail "daemon ran over a store with a corrupt header" ;;
esac
grep -q "magic" "$dir/third.log" || fail "the error does not name the header"
cmp -s "$store" "$dir/corrupt.copy" || fail "the corrupt store was modified"

scheme=voting
peers=127.0.0.1:1,127.0.0.1:2,127.0.0.1:3
store=$dir/voting.rdev
start voting.log
client bench 1 >"$dir/bench.log" 2>&1
[ $? -eq 1 ] || fail "bench without a write quorum did not exit 1"
grep -q "operation 0 failed: write block 0: unavailable" "$dir/bench.log" ||
  fail "bench did not report why the write failed"
grep -q "attempt(s)" "$dir/bench.log" || fail "bench did not report attempts"
stop
echo "PASS"
