#!/usr/bin/env bash
# The workspace's structural invariants, one row each; clippy.toml holds the
# bans the compiler can resolve. Run from anywhere: .github/invariants.sh
# Every failing row is reported, then the script exits non-zero.
#
# A row is `count OP N SCOPE PATHS PATTERN SAMPLE MESSAGE` (or `forbid`, which
# is `count -eq 0`): the lines matching the extended regex PATTERN, in SCOPE
# of the files under PATHS, must number OP N. PATHS are files, globs or
# directories (their .rs files); a `!` prefix leaves a path out. SCOPE is
# `file`, `live` (the code above the file's column-0 #[cfg(test)]) or
# `fn:NAME` (the body of every `fn NAME(`). SAMPLE is a line the pattern must
# match, so a mistyped pattern fails here instead of passing forever.
set -uo pipefail
cd "$(dirname "$0")/.."
self=.github/invariants.sh
fail=0
bad() { echo "invariant: $*" >&2; fail=1; }

# The files under PATHS, this script never among them.
files() {
  local p x skip=()
  for p in $1; do [ "${p#!}" != "$p" ] && skip+=("${p#!}"); done
  for p in $1; do
    [ "${p#!}" = "$p" ] && find "$p" -name target -prune -o -type f \( -name '*.rs' -o -path "$p" \) -print
  done | sort -u | while read -r f; do
    [ "$f" = "$self" ] && continue
    for x in "${skip[@]}"; do [ "${f#"$x"}" != "$f" ] && continue 2; done
    echo "$f"
  done
}

# Blank out every line outside SCOPE, so grep -n still reports true lines.
scope() {
  case $1 in
    file) cat -- "$2" ;;
    live) sed '/^#\[cfg(test)\]/,$d' -- "$2" ;;
    fn:*) awk -v f="fn ${1#fn:}(" 'index($0, f) { on = 1; match($0, /^ */)
            end = substr($0, 1, RLENGTH) "}" } { print on ? $0 : "" }
            on && $0 == end { on = 0 }' "$2" ;;
  esac
}

count() {
  local op=$1 n=$2 sc=$3 paths=$4 re=$5 sample=$6 msg=$7 hits got f p
  grep -qE -- "$re" <<<"$sample" || { bad "pattern '$re' does not match its sample '$sample'"; return; }
  for p in $paths; do [ -e "${p#!}" ] || { bad "no such path: ${p#!}"; return; }; done
  hits=$(files "$paths" | while read -r f; do scope "$sc" "$f" | grep -nE -- "$re" | sed "s|^|$f:|"; done)
  got=$(grep -c . <<<"$hits")
  [ "$got" "$op" "$n" ] && return
  [ -n "$hits" ] && echo "$hits" >&2
  bad "$msg (lines: $got, want $op $n)"
}
forbid() { count -eq 0 "$@"; }

RUST='crates tests src examples'
ENGINE=crates/lmon-core/src/engine
DAEMON=crates/lmon-daemon/src/daemon.rs
SLURM=crates/lmon-rm/src/slurm.rs
SESSION=crates/lmon-core/src/daemon_session.rs
BOOT="$SESSION crates/lmon-core/src/be crates/lmon-core/src/mw"

# Exceptions to clippy.toml's bans: exactly these three, each with a reason.
count -eq 3 file "$RUST vendor" '(allow|expect)\(clippy::disallowed_' \
  '#[allow(clippy::disallowed_types, reason = "shim")]' "a new exception to clippy.toml's bans"
forbid file "$RUST vendor" 'clippy::disallowed_[a-z]+\)' '#[allow(clippy::disallowed_methods)]' \
  "an exception to clippy.toml's bans without a reason"

# One overlay bring-up per launch mode: lmon-tbon's Overlay::run (thread mode)
# and lmon-tools' launchmon_overlay.rs; nothing else starts a comm daemon.
forbid file "$RUST bench !crates/lmon-tbon/src !crates/lmon-tools/src/launchmon_overlay.rs" \
  '\bCommHarness\b' 'CommHarness::new(pos)' "CommHarness outside lmon-tbon and launchmon_overlay.rs"

# One co-location path per layer: Engine::spawn_daemons asks the RM to place
# daemons and Daemon::establish co-locates a session's; the rest are callers.
count -eq 1 file $ENGINE 'rm\.spawn_daemons\(' 'rm.spawn_daemons(cmd)' "engine: rm.spawn_daemons( not once"
count -le 1 file $DAEMON 'fe\.launch_and_spawn\(' 'fe.launch_and_spawn(' "daemon.rs: second launch_and_spawn"
count -le 1 file $DAEMON 'fe\.attach_and_spawn\(' 'fe.attach_and_spawn(' "daemon.rs: second attach_and_spawn"

# One-pass teardown: records die by Node::kill_matching, one pass per node,
# never by a pid scan and one cluster-wide kill per pid.
forbid file crates/lmon-rm/src 'pids_matching\(' 'n.pids_matching(|r| x)' "lmon-rm: scan-then-kill is back"
forbid file $ENGINE/mod.rs 'cluster\.kill\(' 'self.cluster.kill(pid)' "engine: per-pid cluster.kill( is back"

# One federation mechanism: lmond's FE sharding and Daemon::fail_group; the
# inter-group router, its harness, bench and model projection stay deleted.
forbid file 'crates tests .github/workflows/*.yml' \
  'FederationRouter|LiveFederation|federation_projection|BENCH_federation' \
  'use lmon_tbon::federation::FederationRouter;' "a deleted federation mechanism is back"

# One wire codec: encode_wire and decode_msg_view; the copying codec, its copy
# counters, their micro-bench and the vendored timing shim stay deleted.
forbid file 'crates vendor tests Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml .github/workflows/*.yml' \
  'encode_msg|\bdecode_msg\(|decode_payload\(|bytes_copied|micro_hotpaths|criterion' \
  'let b = decode_msg(&buf)?;' "a second LMONP codec, a copy counter or the timing shim is back"

# One engine loop: one match over trace events to MPIR_Breakpoint, with
# ResourceManager as the porting seam; no event ladder, no platform trait.
forbid file "$RUST" \
  'trait Platform|HandlerTable|EventDecoder|EventManager|MpirPlatform|spawn_with_platform' \
  'pub trait Platform {' "a second engine event mechanism or a platform trait is back"

# One engine control path: each FE command carries its own exchange's reply
# channel; the control-session mux, sidecar map and reply router stay deleted.
forbid file "$RUST" \
  'ReplyRouter|MailboxGuard|SidecarMap|take_sidecar|CONTROL_SESSION|engine_physical_links' \
  'struct ReplyRouter;' "a second engine reply mechanism is back"

# One in-process link: SessionMux routes at send time over ChannelFabric; the
# byte transport, mux batching and pump, fabric wrapper and trait stay deleted.
forbid file "$RUST" \
  'TcpChannel|FrameReader|MuxBatch|ADAPTIVE_MAX_BATCH_FRAMES|wake_all_shards|RmFabricEndpoint|trait Fabric|transport_latency' \
  'let r = FrameReader::new(s);' "a second link mechanism, the fabric wrapper or its bench is back"

# One RPDTAB buffer per launch: the launcher writes rows straight into the
# encoding; the engine, the FE and the BE master borrow those bytes.
forbid file $ENGINE 'with_lmon\(&(rpdtab|table)|(rpdtab|table|Rpdtab\b.*)\.to_bytes\(\)' \
  'msg.with_lmon(&rpdtab.to_bytes())' "the engine encodes an RPDTAB again"
forbid live $SLURM 'ProcDesc \{' 'rows.push(ProcDesc {' "the launcher builds RPDTAB rows again"
forbid file crates/lmon-core/src/fe 'rpdtab_reply\.decode_lmon' 'rpdtab_reply.decode_lmon()' \
  "the front end decodes the RPDTAB reply again"
forbid file crates/lmon-core/src/be '\.lmon\.to_vec\(\)' 'msg.lmon.to_vec()' "the BE copies a payload it forwards"

# One FE session record: fe::FeSession in one map behind one lock, plus a
# bounded FIFO of ended ones; the stores it replaced stay deleted.
forbid file "$RUST" 'SessionTable|SessionDesc|FeSessionRt|HealthLedger|\bruntimes:' \
  'runtimes: Mutex<Map>,' "a second per-session store is back in the front end"

# One teardown path: every session ends in the engine's end_session (its one
# job kill, its one MW release), and in lmond's Daemon::end_session.
count -eq 1 file $ENGINE 'rm\.kill_job\(' 'rm.kill_job(job)' "engine: rm.kill_job( not once"
count -eq 1 fn:end_session $ENGINE/mod.rs 'rm\.kill_job\(' 'rm.kill_job(job)' "engine: rm.kill_job( not in end_session"
count -eq 1 file $ENGINE 'release_allocation\(' 'rm.release_allocation(a)' "engine: release_allocation( not once"
count -eq 1 fn:end_session $ENGINE/mod.rs 'release_allocation\(' 'rm.release_allocation(a)' \
  "engine: release_allocation( not in end_session"
count -eq 1 file $DAEMON 'fe\.kill\(' 'fe.kill(sid)' "daemon.rs: fe.kill( not once"
count -eq 1 fn:end_session $DAEMON 'fe\.kill\(' 'fe.kill(sid)' "daemon.rs: fe.kill( not in end_session"
# One phase field (Placing / Live) says whether a kill waits for a spawn, and
# no job is special-cased as unclaimed.
forbid file $ENGINE 'placing: bool' 'placing: bool,' "engine: the placing flag is back"
forbid file $ENGINE 'unclaimed' 'let unclaimed = 1;' "engine: the unclaimed-job special case is back"
# One authority for a session's life: the engine's mint is the one place a
# record enters its session table, so no lookup files one on the side.
forbid file $ENGINE '\.or_default\(\)' 'sessions.lock().entry(id).or_default()' \
  "engine: a lookup files a session record"
count -eq 1 live $ENGINE '\.(insert|entry)\(' 'table.live.insert(id, session);' \
  "engine: the session table gains records in more than one place"
count -eq 1 fn:mint $ENGINE/mod.rs '\.(insert|entry)\(' 'table.live.insert(id, session);' \
  "engine: the session table gains records outside Engine::mint"

# One job spec: the job id and ranks live on the node's task block, and the
# RM's kill matches the block's job id, never a string in a task's env.
forbid file crates/lmon-rm/src 'env_get\(' 'spec.env_get(KEY)' "lmon-rm matches env strings again"
forbid file "$RUST" 'spec\.rank|job_env_key' 'let r = spec.rank;' "rank or job id is back on the spec"

# One entry per job per node: one spawn_tasks places a node's block, and a
# launcher keeps no parked thread (tests park daemons: live code only).
forbid file "$RUST" 'spawn_passive|pids_matching' 'c.spawn_passive(n, &s)' "per-task records are back"
forbid live $SLURM 'wait_terminal\(' 'ctx.wait_terminal();' "slurm.rs: a launcher parks in wait_terminal"
# Daemons go up in waves on the calling thread, through the one
# spawn_active_waves call in spawn_daemons (the fanout pool is clippy's ban).
count -eq 1 live $SLURM 'spawn_active_waves\(' 'c.spawn_active_waves(&b)' "slurm.rs: spawn_active_waves( not once"
count -eq 1 fn:spawn_daemons $SLURM 'spawn_active_waves\(' 'c.spawn_active_waves(&b)' \
  "slurm.rs: spawn_active_waves( not in spawn_daemons"

# One wait per reply: the FE waits once for the engine's ack (Exchange::next),
# then once for the hello (Handshake::admit), with no poll slice between.
forbid file crates 'POLL_SLICE' 'const POLL_SLICE: u64 = 2;' "a poll slice is back"
forbid file $ENGINE/channel.rs 'fn poll\(' 'pub fn poll(&self)' "engine/channel.rs: Exchange polls again"
forbid file 'crates/lmon-core/src !crates/lmon-core/src/handshake.rs' 'verify_hello\(' 'verify_hello(m, c)' \
  "lmon-core: a hello is verified outside handshake.rs"
forbid live crates/lmon-core/src/fe/mod.rs 'thread::sleep' 'std::thread::sleep(d);' \
  "fe/mod.rs: the FE sleeps on the live path"

# One table check per daemon session: BE and MW run the one bootstrap in
# daemon_session.rs, where the master checks the whole RPDTAB once, before it
# broadcasts; siblings check the framing, and no bootstrap walks rows.
count -eq 1 live "$BOOT" 'check_bytes\(' 'Rpdtab::check_bytes(t)' \
  "daemon bootstrap: check_bytes( not once"
forbid live $SESSION 'local_from_bytes\(' 'Rpdtab::local_from_bytes(b, h)' \
  "daemon_session.rs walks the RPDTAB's rows again"
forbid fn:from_launch_info "$BOOT" 'local_from_bytes\(' 'Rpdtab::local_from_bytes(b, h)' \
  "a class's bootstrap part walks the RPDTAB's rows again"

# One fabric per daemon spawn, neighbour-only: the RM hands each daemon its
# tree neighbours' senders (lmon_rm::api::daemon_comms); no live path builds
# a mesh, and the daemon API offers collectives, never point-to-point.
forbid live 'crates/lmon-rm/src crates/lmon-core/src' 'ChannelFabric::mesh\(' \
  'let eps = ChannelFabric::mesh(n);' "a live path builds a full mesh again"
forbid live crates/lmon-core/src 'fn (send_to|recv_from)\(' 'pub fn send_to(&mut self, peer: u32)' \
  "a daemon session sends point-to-point again"
forbid file "$RUST" 'fabric_(ref|mut)\(' 'self.comm.fabric_ref().send(p, b)' \
  "IcclComm hands out its fabric again"

# Kill and detach end their session on the caller's thread (begin_exchange);
# the engine's command loop only hands spawn-bearing commands to workers.
forbid fn:spawn $ENGINE/mod.rs 'FeKillReq|FeDetachReq' 'MsgType::FeKillReq => x,' \
  "engine: a kill or detach arm is back in the command loop"

# One report per bootstrap: a daemon reports up once (Handshake::report), with
# no release wave; the one barrier left is the session's own.
count -le 1 file "$BOOT" 'comm\.barrier\(\)' 'comm.barrier()' "daemon sessions: a bootstrap barrier"

# No source file over 1 500 lines: one that size holds several planes.
long_files() {
  local n f
  while read -r n f; do bad "$f: $n lines, over 1500"; done \
    < <(find crates/*/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1500')
}

# No pub fn without a caller: each pub fn above a file's tests is named
# elsewhere in that code or in another file; else delete it or make it private.
uncalled_pub_fns() {
  local f live name
  for f in $(find crates/*/src -name '*.rs' | sort); do
    live=$(scope live "$f")
    for name in $(grep -oE '^ *pub fn [A-Za-z0-9_]+' <<<"$live" | awk '{print $3}'); do
      [ "$(grep -cw -- "$name" <<<"$live")" -gt 1 ] && continue
      grep -rlw --include='*.rs' -- "$name" crates src tests examples bench/src | grep -vxF "$f" >/dev/null \
        || bad "$f: pub fn $name has no caller outside its own tests"
    done
  done
}

long_files
uncalled_pub_fns
exit $fail
