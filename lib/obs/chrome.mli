(** Chrome [trace_event] sink: render recordings as JSON loadable in
    Perfetto (https://ui.perfetto.dev) or [chrome://tracing].

    Each recording becomes one process ([pid]): worker [w] is thread
    [tid = w] and carries that worker's status spans ([ph = "X"]
    complete events named after the paper's worker statuses) plus
    instant events for steal attempts and operation issue/completion;
    each batched structure [s] gets a synthetic thread
    [tid = 1000 + s] holding one span per batch (start → completion,
    Invariant 1 guarantees they never overlap). Timestamps are
    microseconds as the format requires: one simulator timestep maps to
    1 µs, real-runtime nanoseconds are divided by 1000. Within every
    [(pid, tid)] track, events are sorted so [ts] is monotone.

    A simulator recording and a real-runtime recording of the same
    workload can be written side by side as two processes of one trace
    file — that is exactly what [bin/schedview.exe --out] does. *)

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
