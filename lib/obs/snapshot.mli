(** Live counter-delta snapshots as JSONL, for watching a long run
    with [tail -f] instead of waiting for the final trace.

    Each {!sample} polls {!Recorder.tag_totals} — per-tag emission
    counters bumped on the recorder hot path, safe to read while
    workers are emitting (plain single-word loads; a sample may be a
    few events stale, never torn) — and appends one JSON line:

    {v
    {"seq":3,"t":120034875,"dropped":0,
     "totals":{"status":412,"steal":9023,...,"work":511},
     "deltas":{"status":12,"steal":411,...,"work":37}}
    v}

    ["t"] is nanoseconds since recorder creation on runtime
    recordings; pass [?time] (the current timestep) when sampling a
    simulator recorder. The line is flushed after each sample, so the
    file is always watchable mid-run. *)

(** When a {!Health} instance is attached, each sample first runs its
    stall check ({!Health.check_stalls}) and then carries the full
    health object — heartbeat ages, per-structure phase-latency stats,
    burn counters and the stall total — as a ["health"] field on the
    line. This is the stream [bin/monitor.exe] consumes. *)

type t

val to_channel :
  ?health:Health.t ->
  ?extra:(unit -> (string * Json.t) list) ->
  Recorder.t ->
  out_channel ->
  t

val to_file :
  ?health:Health.t ->
  ?extra:(unit -> (string * Json.t) list) ->
  Recorder.t ->
  path:string ->
  t
(** [extra] (default none) is polled at each {!sample}; its fields are
    appended to the line after ["health"] — how a driver puts its own
    gauges (e.g. the service harness's goodput and queue-depth series)
    on the same stream the monitor tails. It runs on the sampler
    thread, so it must only read state that is safe to read live. *)

val sample : ?time:int -> t -> unit
(** Append one snapshot line. No-op after {!close}. *)

val close : t -> unit
(** Flush; close the channel if this streamer opened it. *)

val every : t -> interval_s:float -> stop:(unit -> bool) -> unit
(** Sampling loop for a dedicated domain or thread: one immediate
    sample, then one per [interval_s] until [stop ()] holds, then a
    final sample. The caller owns the thread:
    [Domain.spawn (fun () -> Snapshot.every snap ~interval_s:0.05 ~stop)]. *)
