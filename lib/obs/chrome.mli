(** Chrome [trace_event] sink, the one writer of trace-event JSON: it
    renders recordings and request traces as JSON loadable in Perfetto
    (https://ui.perfetto.dev) or [chrome://tracing].

    {b Recording view} ({!to_json}). Each recording becomes one process
    ([pid]): worker [w] is thread [tid = w] and carries that worker's
    status spans ([ph = "X"] complete events named after the paper's
    worker statuses) plus instant events for steal attempts and
    operation issue/completion; each batched structure [s] gets a
    synthetic thread [tid = 1000 + s] holding one span per batch (start
    → completion, Invariant 1 guarantees they never overlap). Timestamps
    are microseconds as the format requires: one simulator timestep maps
    to 1 µs, real-runtime nanoseconds are divided by 1000. A simulator
    recording and a real-runtime recording of the same workload can be
    written side by side as two processes of one trace file — that is
    exactly what [repro.exe schedview --trace] does.

    {b Request view} ({!requests}). One traced service point becomes
    one process: each op class has a track of its requests' phase
    slices, each batch one slice on its structure's track
    [tid = 1000 + sid], and a flow arrow links each request's arrival
    to its batch.

    Within every [(pid, tid)] track, events are sorted so [ts] is
    monotone. *)

type track = {
  pid : int;
  name : string;  (** process label, e.g. ["sim (1 step = 1us)"] *)
  recording : Recorder.t;
}

val to_json : track list -> Json.t
(** The standard [{"traceEvents": [...], "displayTimeUnit": "ms"}]
    envelope. Disabled recordings contribute only their process
    metadata. *)

val to_string : track list -> string

val write_file : path:string -> track list -> unit

val batch_tid_base : int
(** [tid] of structure 0's batch track ([1000]); structure [s] is
    [batch_tid_base + s]. *)

val requests :
  pid:int ->
  name:string ->
  classes:string array ->
  Reqtrace.span list ->
  Json.t list
(** The request view of one traced point as process [pid], labelled
    [name]; [classes.(c)] names op class [c], and every span's class
    must index it. Timestamps are µs from the earliest arrival.

    - A request's phases (queue, sched, pending, exec, sched_post) are
      back-to-back slices from its arrival, so they tile its latency;
      zero-length phases are left out.
    - Class [c]'s requests go on thread [c]. Requests of one class
      overlap in time and slices of one thread must not, so a request
      that overlaps every lane of its class so far opens a new lane,
      thread [c + k·l] for lane [l] of [k] classes. Lanes stop below
      {!batch_tid_base}; a span that would need one more is left out.
    - Each batch gets one slice on [batch_tid_base + sid]. Its members
      share its structure, launch stamp and duration, which is how the
      spans are grouped; Invariant 1 keeps the slices of one structure
      from overlapping, on both executions.
    - A flow arrow ([s] at the arrival, [f] at the batch's start) links
      each request to its batch; ids are unique across processes. *)

val write_events : path:string -> Json.t list -> unit
(** Write [events] inside the standard envelope. *)
