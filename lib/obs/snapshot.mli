(** The live health stream: one JSONL line per sample, for watching a
    long run with [tail -f] or [bin/monitor.exe] instead of waiting for
    its end.

    Each {!sample} first runs {!Health.check_stalls}, so a stalled
    structure shows on the very next line, and then appends one JSON
    object:

    {v
    {"seq":3,"t":300134875,
     "health":{"stall_ns":1000000000,"stalls":0,"workers":[...],
               "structures":[...]},
     "invariants":{"checks":6120,"violations":{"inv1":0,...,"lemma2":0}},
     "svc_dispatched":2112,...}
    v}

    ["t"] is nanoseconds since the stream was opened; ["health"] is
    {!Health.to_json} and ["invariants"] is {!Invariants.to_json}, each
    [null] when that instance is off. Both are read with plain and
    atomic loads while the workers run: a sample may be a few events
    stale, never torn, and the workers pay nothing for it. The line is
    flushed after each sample, so the file is always watchable mid-run. *)

type t

val to_file :
  health:Health.t ->
  invariants:Invariants.t ->
  ?extra:(unit -> (string * Json.t) list) ->
  path:string ->
  unit ->
  t
(** Opens (truncates) [path]. [extra] (default none) is polled at each
    {!sample}; its fields are appended to the line after
    ["invariants"] — how a driver puts its own gauges (e.g. the service
    harness's goodput and queue-depth series) on the same stream the
    monitor tails. It runs on the sampler thread, so it must only read
    state that is safe to read live. *)

val sample : t -> unit
(** Append one line. No-op after {!close}. *)

val close : t -> unit
(** Flush and close the file. *)

val every : t -> interval_s:float -> stop:(unit -> bool) -> unit
(** Sampling loop for a dedicated domain or thread: one immediate
    sample, then one per [interval_s] until [stop ()] holds, then a
    final sample. The caller owns the thread:
    [Domain.spawn (fun () -> Snapshot.every snap ~interval_s:0.1 ~stop)]. *)
