#!/bin/sh
# CLI contract test for knots_ctl: strict flag validation (unknown or
# malformed input exits 2 with usage on stderr) and the observability
# outputs (--trace / --trace-bin / --metrics-out) land on disk.
#
# Usage: test_knots_ctl.sh /path/to/knots_ctl
set -u

CTL="${1:?usage: test_knots_ctl.sh /path/to/knots_ctl}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

# expect_reject <description> -- <args...>: must exit 2 and print usage.
expect_reject() {
  desc="$1"
  shift 2
  "$CTL" "$@" >"$WORK/out" 2>"$WORK/err"
  rc=$?
  [ "$rc" -eq 2 ] || fail "$desc: expected exit 2, got $rc"
  grep -q "usage:" "$WORK/err" || fail "$desc: no usage text on stderr"
}

# ---- rejection matrix ----
expect_reject "no command"            --
expect_reject "unknown command"       -- frobnicate
expect_reject "unknown flag"          -- run --mix 1 --scheduler CBP --duration 5 --bogus 1
expect_reject "missing flag value"    -- run --mix 1 --scheduler CBP --duration
expect_reject "malformed int"         -- run --mix 1 --scheduler CBP --duration five
expect_reject "unknown scheduler"     -- run --mix 1 --scheduler FancyNew --duration 5
expect_reject "duplicate flag"        -- run --mix 1 --mix 2 --scheduler CBP --duration 5
expect_reject "malformed crash spec"  -- run --mix 1 --scheduler CBP --duration 5 --crash-node banana
expect_reject "bare positional"       -- run 1 CBP 5
expect_reject "flag on list"          -- list --mix 1
expect_reject "unknown DL policy"     -- dlsim --dl borg --dlt 4 --dli 8
expect_reject "dl crash spec"         -- dlsim --dl gandiva --crash-node oops
expect_reject "lanes flag is gone"    -- run --mix 1 --scheduler CBP --duration 5 --lanes 2
expect_reject "duration past clock"   -- run --mix 1 --scheduler CBP --duration 99999999999999
expect_reject "serve malformed qps"   -- serve --qps banana
expect_reject "serve negative qps"    -- serve --qps -5
expect_reject "serve bad diurnal"     -- serve --diurnal 1.5
expect_reject "serve bad flash"       -- serve --flash-crowd 0.5
expect_reject "serve shape conflict"  -- serve --diurnal 0.5 --flash-crowd 4
expect_reject "serve zero slo"        -- serve --slo-ms 0
expect_reject "serve bad autoscale"   -- serve --autoscale maybe
expect_reject "serve unknown flag"    -- serve --qps 50 --dl gandiva
expect_reject "bad fabric mode"       -- run --mix 1 --scheduler CBP --duration 5 --fabric mesh
expect_reject "link-down sans fabric" -- run --mix 1 --scheduler CBP --duration 5 --link-down spine@2
expect_reject "unknown link"          -- run --mix 1 --scheduler CBP --duration 5 --fabric auto --link-down bogus@2
expect_reject "malformed link-down"   -- run --mix 1 --scheduler CBP --duration 5 --fabric auto --link-down spine
expect_reject "dl bad fabric"         -- dlsim --dl gandiva --fabric banana
expect_reject "dl unknown link"       -- dlsim --dl gandiva --fabric auto --link-down bogus@2
expect_reject "dl bad allreduce"      -- dlsim --dl gandiva --fabric auto --allreduce banana

# Numbers outside what a run can mean: unknown app mixes, counts below 1,
# negative seeds and non-finite doubles exit 2 before anything runs,
# instead of aborting or silently running something else.
expect_reject "run unknown mix"       -- run --mix 99
expect_reject "sweep unknown mix"     -- sweep --mix 0
expect_reject "serve unknown mix"     -- serve --mix 7
expect_reject "dl unknown mix"        -- dlsim --mix 9
expect_reject "run zero gpus"         -- run --gpus 0
expect_reject "run negative nodes"    -- run --nodes -5
expect_reject "run negative seed"     -- run --seed -7
expect_reject "run zero duration"     -- run --duration 0
expect_reject "serve nan qps"         -- serve --qps nan
expect_reject "serve inf qps"         -- serve --qps inf
expect_reject "serve nan diurnal"     -- serve --diurnal nan
expect_reject "serve inf flash"       -- serve --qps 10 --duration 5 --flash-crowd inf
expect_reject "dl negative dlt"       -- dlsim --dl gandiva --dlt -4
expect_reject "dl zero dli"           -- dlsim --dl gandiva --dli 0
expect_reject "dl zero nodes"         -- dlsim --dl gandiva --nodes 0
expect_reject "dl nan allreduce"      -- dlsim --allreduce nan --fabric auto
# A crash on a node the run does not have exits 2 instead of aborting in
# FaultPlan's validation.
expect_reject "run crash past nodes"  -- run --crash-node 999@5
expect_reject "dl crash past nodes"   -- dlsim --dl cbp-pp --crash-node 999@5
expect_reject "serve crash past nodes" -- serve --qps 5 --crash-node 999@5
# A fleet whose telemetry rings cannot fit in this host's memory exits 2
# before anything is allocated, instead of dying in the allocator.
expect_reject "run past host memory"   -- run --nodes 1000000 --gpus 1000
expect_reject "serve past host memory" -- serve --nodes 1000000 --gpus 1000
expect_reject "sweep past host memory" -- sweep --nodes 1000000 --gpus 1000
grep -q "telemetry rings need" "$WORK/err" || \
  fail "sweep past host memory: no footprint diagnostic"
# The same for dlsim, whose engines allocate every GPU's device state and
# the whole workload up front (the comparison runs four engines at once),
# and whose GPU index must fit an int.
expect_reject "dl past host memory"   -- dlsim --dl cbp-pp --nodes 1000000 --gpus 1000 --dlt 2 --dli 2 --duration 60
grep -q "DL engine's devices and workload need" "$WORK/err" || \
  fail "dl past host memory: no footprint diagnostic"
expect_reject "dl gpus past int"      -- dlsim --nodes 100000 --gpus 100000 --dlt 2 --dli 2 --duration 60
grep -q "more than the 2147483647 GPUs" "$WORK/err" || \
  fail "dl gpus past int: no GPU-count diagnostic"
expect_reject "dl queries past memory" -- dlsim --dl cbp-pp --dli 2000000000 --dlt 4 --duration 60
# So does a workload whose pods (the mix's rates x --duration) or requests
# (--qps x --duration x the shape's peak) no host could hold: both are
# generated whole before the first tick.
expect_reject "run pods past memory"   -- run --mix 1 --scheduler CBP --duration 9000000000000 --nodes 2
grep -q "the --duration workload's pods need" "$WORK/err" || \
  fail "run pods past memory: no footprint diagnostic"
expect_reject "sweep pods past memory" -- sweep --mix 1 --duration 9000000000000 --nodes 2
expect_reject "serve requests past memory" -- serve --qps 1000000000000 --duration 1000000 --nodes 2
grep -q "the --qps x --duration requests need" "$WORK/err" || \
  fail "serve requests past memory: no footprint diagnostic"

# list, by contrast, succeeds bare.
"$CTL" list >"$WORK/list_out" 2>&1 || fail "list: expected exit 0, got $?"
grep -qi "cbp" "$WORK/list_out" || fail "list: CBP missing from output"
grep -q "gandiva" "$WORK/list_out" || fail "list: DL policies missing"

# ---- observability outputs on a real faulted run ----
"$CTL" run --mix 1 --scheduler CBP --duration 10 --nodes 2 \
  --crash-node "1@5:3" \
  --trace "$WORK/trace.json" \
  --trace-bin "$WORK/trace.trc" \
  --metrics-out "$WORK/metrics.json" >"$WORK/run_out" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "traced run: expected exit 0, got $rc (output: $(cat "$WORK/run_out"))"

grep -q "run digest" "$WORK/run_out" || fail "report: 'run digest' row missing"
grep -q "0x" "$WORK/run_out" || fail "report: digest not hex-formatted"

[ -s "$WORK/trace.json" ] || fail "--trace: trace.json missing or empty"
grep -q '"traceEvents"' "$WORK/trace.json" || fail "--trace: not chrome-trace JSON"
grep -q '"name":"place"' "$WORK/trace.json" || fail "--trace: no placement events"
grep -q '"name":"node down"' "$WORK/trace.json" || fail "--trace: crash-node fault left no node-down event"

[ -s "$WORK/trace.trc" ] || fail "--trace-bin: trace.trc missing or empty"
head -c 8 "$WORK/trace.trc" | grep -q "KNOBTRC1" || fail "--trace-bin: bad magic"

[ -s "$WORK/metrics.json" ] || fail "--metrics-out: metrics.json missing or empty"
grep -q '"counters"' "$WORK/metrics.json" || fail "--metrics-out: no counters section"
grep -q "cluster.placements" "$WORK/metrics.json" || fail "--metrics-out: placement counter missing"

# ---- DL substrate: traced, faulted single-policy run ----
"$CTL" dlsim --dl gandiva --dlt 6 --dli 12 --nodes 2 --gpus 2 \
  --duration 1800 --seed 7 --crash-node "1@600:300" \
  --trace "$WORK/dl_trace.json" \
  --metrics-out "$WORK/dl_metrics.json" >"$WORK/dl_out" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "dl run: expected exit 0, got $rc (output: $(cat "$WORK/dl_out"))"
grep -q "Gandiva" "$WORK/dl_out" || fail "dl report: policy name missing"
grep -q "run digest" "$WORK/dl_out" || fail "dl report: 'run digest' row missing"
grep -q "node crashes" "$WORK/dl_out" || fail "dl report: node-crash row missing"
[ -s "$WORK/dl_trace.json" ] || fail "dl --trace: trace.json missing or empty"
grep -q '"name":"node down"' "$WORK/dl_trace.json" || fail "dl --trace: no node-down event"
[ -s "$WORK/dl_metrics.json" ] || fail "dl --metrics-out: metrics.json missing or empty"
grep -q "dlsim.queries" "$WORK/dl_metrics.json" || fail "dl --metrics-out: dlsim counter missing"

# DL tracing must not perturb the DL digest either.
"$CTL" dlsim --dl gandiva --dlt 6 --dli 12 --nodes 2 --gpus 2 \
  --duration 1800 --seed 7 --crash-node "1@600:300" \
  >"$WORK/dl_untraced_out" 2>&1 || fail "dl untraced run: expected exit 0, got $?"
dl_traced=$(grep "run digest" "$WORK/dl_out")
dl_untraced=$(grep "run digest" "$WORK/dl_untraced_out")
[ -n "$dl_traced" ] && [ "$dl_traced" = "$dl_untraced" ] || \
  fail "dl digest drift: traced='$dl_traced' untraced='$dl_untraced'"

# ---- serving: report rows and digest rows ----
"$CTL" serve --qps 60 --duration 10 --nodes 4 --slo-ms 400 \
  --metrics-out "$WORK/serve_metrics.json" >"$WORK/serve_out" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "serve run: expected exit 0, got $rc (output: $(cat "$WORK/serve_out"))"
grep -q "serve digest" "$WORK/serve_out" || fail "serve report: 'serve digest' row missing"
grep -q "run digest" "$WORK/serve_out" || fail "serve report: 'run digest' row missing"
grep -q "offered" "$WORK/serve_out" || fail "serve report: offered row missing"
[ -s "$WORK/serve_metrics.json" ] || fail "serve --metrics-out: missing or empty"
grep -q "serve.requests_offered" "$WORK/serve_metrics.json" || \
  fail "serve --metrics-out: serve counter missing"

# Flash-crowd and diurnal shapes both run clean.
"$CTL" serve --qps 60 --duration 10 --nodes 4 --flash-crowd 4 \
  >"$WORK/serve_flash_out" 2>&1 || fail "serve flash-crowd: expected exit 0, got $?"
"$CTL" serve --qps 60 --duration 10 --nodes 4 --diurnal 0.8 --autoscale off \
  >"$WORK/serve_diurnal_out" 2>&1 || fail "serve diurnal: expected exit 0, got $?"

# Serving traces are purely observational on every arrival shape: each run
# again with --trace and --trace-bin keeps its serve and run digest rows.
# serve_traced <name> <args...>: traces the run and compares its digest
# rows with those in $WORK/<name>_out.
serve_traced() {
  name="$1"
  shift
  "$CTL" serve "$@" --trace "$WORK/${name}_trace.json" \
    --trace-bin "$WORK/${name}_trace.trc" >"$WORK/${name}_traced_out" 2>&1 ||
    fail "$name traced: expected exit 0, got $?"
  [ -s "$WORK/${name}_trace.json" ] || fail "$name --trace: missing or empty"
  [ -s "$WORK/${name}_trace.trc" ] || fail "$name --trace-bin: missing or empty"
  for row in "serve digest" "run digest"; do
    untraced=$(grep "$row" "$WORK/${name}_out")
    traced=$(grep "$row" "$WORK/${name}_traced_out")
    [ -n "$untraced" ] && [ "$untraced" = "$traced" ] ||
      fail "$name $row drift: untraced='$untraced' traced='$traced'"
  done
}
serve_traced serve --qps 60 --duration 10 --nodes 4 --slo-ms 400
serve_traced serve_flash --qps 60 --duration 10 --nodes 4 --flash-crowd 4
serve_traced serve_diurnal --qps 60 --duration 10 --nodes 4 --diurnal 0.8 \
  --autoscale off

# ---- fabric: auto moves bytes and survives a link fault; zero is inert ----
"$CTL" run --mix 1 --scheduler CBP --duration 10 --nodes 4 --fabric auto \
  --link-down "spine@5:3" >"$WORK/fab_out" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "fabric run: expected exit 0, got $rc (output: $(cat "$WORK/fab_out"))"
grep -q "fabric flows" "$WORK/fab_out" || fail "fabric report: flow row missing"
grep -q "fabric MB moved" "$WORK/fab_out" || fail "fabric report: MB row missing"

"$CTL" run --mix 1 --scheduler CBP --duration 10 --nodes 4 \
  >"$WORK/nofab_out" 2>&1 || fail "bare run: expected exit 0, got $?"
"$CTL" run --mix 1 --scheduler CBP --duration 10 --nodes 4 --fabric zero \
  >"$WORK/zerofab_out" 2>&1 || fail "zero-fabric run: expected exit 0, got $?"
nofab_digest=$(grep "run digest" "$WORK/nofab_out")
zerofab_digest=$(grep "run digest" "$WORK/zerofab_out")
[ -n "$nofab_digest" ] && [ "$nofab_digest" = "$zerofab_digest" ] || \
  fail "zero fabric not inert: bare='$nofab_digest' zero='$zerofab_digest'"
grep -q "fabric flows" "$WORK/zerofab_out" && \
  fail "zero fabric: unexpected flow rows in report"

"$CTL" dlsim --dl cbp-local --dlt 6 --dli 12 --nodes 2 --gpus 2 \
  --duration 1800 --seed 7 --fabric auto --allreduce 256 \
  >"$WORK/dl_fab_out" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "dl fabric run: expected exit 0, got $rc (output: $(cat "$WORK/dl_fab_out"))"
grep -q "run digest" "$WORK/dl_fab_out" || fail "dl fabric report: digest row missing"

# ---- scenario: declarative spec files ----
# reject_scenario <desc> <expected-diagnostic> <<EOF writes the spec to try.
reject_scenario() {
  desc="$1"
  expect="$2"
  cat >"$WORK/bad.cfg"
  "$CTL" scenario "$WORK/bad.cfg" >"$WORK/out" 2>"$WORK/err"
  rc=$?
  [ "$rc" -eq 2 ] || fail "$desc: expected exit 2, got $rc"
  grep -q "$expect" "$WORK/err" || \
    fail "$desc: diagnostic '$expect' missing (stderr: $(head -1 "$WORK/err"))"
}

expect_reject "scenario sans file"    -- scenario
expect_reject "scenario flag as file" -- scenario --csv out.csv
expect_reject "scenario lanes gone"   -- scenario /dev/null --lanes 2
expect_reject "scenario unknown flag" -- scenario /dev/null --nodes 4

# Numbers past what their field can hold exit 2 with a line-numbered
# diagnostic instead of aborting or hanging.
printf 'nodeclass a p100-16g 99999999999\n' >"$WORK/count.cfg"
expect_reject "scenario count past int" -- scenario "$WORK/count.cfg"
grep -q "line 1: nodeclass count" "$WORK/err" || \
  fail "scenario count past int: no line-numbered diagnostic"
printf 'duration 99999999999999s\nnodeclass a p100-16g 2\n' >"$WORK/long.cfg"
expect_reject "scenario duration past clock" -- scenario "$WORK/long.cfg"
grep -q "line 1: duration" "$WORK/err" || \
  fail "scenario duration past clock: no line-numbered diagnostic"
printf 'seed 3\nnodeclass a p100-16g 1000000 gpus=1000\n' >"$WORK/huge.cfg"
expect_reject "scenario past host memory" -- scenario "$WORK/huge.cfg"
grep -q "line 2: the fleet's telemetry rings need" "$WORK/err" || \
  fail "scenario past host memory: no line-numbered diagnostic"
printf 'nodeclass a p100-16g 2\nduration 9000000000000s\n' >"$WORK/pods.cfg"
expect_reject "scenario pods past host memory" -- scenario "$WORK/pods.cfg"
grep -q "line 2: the workload's pods need" "$WORK/err" || \
  fail "scenario pods past host memory: no line-numbered diagnostic"
# A load that truncates the LC stream's mean gap (110 ms / 1e6) to 0 us
# exits 2 at its line; it used to abort in the arrival process (rc 134).
printf 'nodeclass a p100-16g 1\nduration 1s\nload_scale 1000000\n' >"$WORK/gap.cfg"
expect_reject "scenario gap under 1 us" -- scenario "$WORK/gap.cfg"
grep -q "line 3: load_scale leaves a mean inter-arrival gap" "$WORK/err" || \
  fail "scenario gap under 1 us: no line-numbered diagnostic"

# A workload that draws no pod exits 2 instead of printing an empty report
# and exiting 0: mix 3 expects 2.4 pods over 2 s and draws none at seed 42,
# and load_scale 1e-10 leaves every mean gap near 1e9 s.
expect_reject "run generates no pods" -- run --mix 3 --duration 2
grep -q "knots_ctl: --mix 3 generates no pods in --duration 2 s" "$WORK/err" || \
  fail "run generates no pods: no diagnostic naming --mix and --duration"
expect_reject "sweep generates no pods" -- sweep --mix 3 --duration 2
printf 'nodeclass a p100-16g 1\nduration 1s\nload_scale 1e-10\n' >"$WORK/empty.cfg"
expect_reject "scenario generates no pods" -- scenario "$WORK/empty.cfg"
grep -q "line 3: the workload generates no pods" "$WORK/err" || \
  fail "scenario generates no pods: no line-numbered diagnostic"

"$CTL" scenario "$WORK/does_not_exist.cfg" >"$WORK/out" 2>"$WORK/err"
rc=$?
[ "$rc" -eq 2 ] || fail "scenario missing file: expected exit 2, got $rc"
grep -q "cannot read" "$WORK/err" || fail "scenario missing file: no diagnostic"

reject_scenario "scenario unknown device model" "unknown device model" <<'EOF'
nodeclass fleet k80-24g 2
EOF

reject_scenario "scenario quota over cluster" "line 2: tenant 1 quota_mb 99999999 exceeds total cluster memory" <<'EOF'
nodeclass fleet p100-16g 2
tenant 1 quota_mb=99999999
EOF

reject_scenario "scenario spot sans notice" "notice" <<'EOF'
nodeclass spot p100-16g 2 preemptible
EOF

reject_scenario "scenario reclaim of on-demand" "line 2: spot_reclaim targets node 0 which is not in a preemptible node class" <<'EOF'
nodeclass fleet p100-16g 2
fault spot_reclaim node=0 at=5s
EOF

reject_scenario "scenario tenant cap no pod fits" "line 3: tenant 1 quota_mb 1 fits none of its pods" <<'EOF'
nodeclass a p100-16g 2
duration 30s
tenant 1 quota_mb=1
workload_tenants 1
EOF

reject_scenario "scenario empty spec" "no node classes" </dev/null

# A heterogeneous + spot + multi-tenant scenario runs clean.
cat >"$WORK/fleet.cfg" <<'EOF'
name cli-fleet
scheduler CBP
seed 11
duration 20s
nodeclass ondemand p100-16g 2
nodeclass spot v100-32g 2 preemptible notice=5s
tenant 1 quota_mb=30000
tenant 2 quota_mb=24000
workload_tenants 1,2
fault spot_reclaim node=2 at=8s duration=6s
EOF
"$CTL" scenario "$WORK/fleet.cfg" >"$WORK/scn1_out" 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "scenario run: expected exit 0, got $rc (output: $(cat "$WORK/scn1_out"))"
grep -q "scenario cli-fleet (4 nodes" "$WORK/scn1_out" || \
  fail "scenario report: header line missing"
grep -q "run digest" "$WORK/scn1_out" || fail "scenario report: digest row missing"
grep -q "tenant 1" "$WORK/scn1_out" || fail "scenario report: tenant rows missing"

# ---- device models: unknown names exit 2, known ones change the substrate ----
"$CTL" run --mix 1 --scheduler CBP --duration 5 --nodes 2 --device-model hal9000 \
  >"$WORK/out" 2>"$WORK/err"
rc=$?
[ "$rc" -eq 2 ] || fail "run bad device model: expected exit 2, got $rc"
grep -q "unknown device model" "$WORK/err" || \
  fail "run bad device model: no diagnostic"
grep -q "p100-16g" "$WORK/err" || \
  fail "run bad device model: registry names not listed"
expect_reject "dl bad device model" -- dlsim --dl gandiva --device-model hal9000

"$CTL" run --mix 1 --scheduler CBP --duration 10 --nodes 2 --device-model v100-32g \
  >"$WORK/v100_out" 2>&1 || fail "run on v100: expected exit 0, got $?"
"$CTL" run --mix 1 --scheduler CBP --duration 10 --nodes 2 --device-model p100-16g \
  >"$WORK/p100_out" 2>&1 || fail "run on explicit p100: expected exit 0, got $?"
"$CTL" run --mix 1 --scheduler CBP --duration 10 --nodes 2 \
  >"$WORK/default_out" 2>&1 || fail "run on default model: expected exit 0, got $?"
# Explicitly naming the baseline model is bit-identical to the default...
p100_digest=$(grep "run digest" "$WORK/p100_out")
default_digest=$(grep "run digest" "$WORK/default_out")
[ -n "$p100_digest" ] && [ "$p100_digest" = "$default_digest" ] || \
  fail "p100-16g not the default: explicit='$p100_digest' default='$default_digest'"
# ...while a different generation must actually change the run.
v100_digest=$(grep "run digest" "$WORK/v100_out")
[ "$v100_digest" != "$default_digest" ] || \
  fail "v100-32g digest identical to the P100 default"

# list advertises the device-model registry.
grep -q "p100-16g" "$WORK/list_out" || fail "list: device models missing"
grep -q "v100-32g" "$WORK/list_out" || fail "list: v100 model missing"

# ---- tracing must not perturb the digest ----
"$CTL" run --mix 1 --scheduler CBP --duration 10 --nodes 2 --crash-node "1@5:3" \
  >"$WORK/untraced_out" 2>&1 || fail "untraced run: expected exit 0, got $?"
traced_digest=$(grep "run digest" "$WORK/run_out")
untraced_digest=$(grep "run digest" "$WORK/untraced_out")
[ -n "$traced_digest" ] && [ "$traced_digest" = "$untraced_digest" ] || \
  fail "digest drift: traced='$traced_digest' untraced='$untraced_digest'"

if [ "$failures" -ne 0 ]; then
  echo "test_knots_ctl.sh: $failures check(s) failed" >&2
  exit 1
fi
echo "test_knots_ctl.sh: all checks passed"
