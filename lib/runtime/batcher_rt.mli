(** The real BATCHER runtime: implicit batching over a {!Pool}.

    A program task calls {!batchify} exactly like a blocking call to a
    concurrent structure. The caller publishes its operation record in
    its worker's slot of a size-P pending array and is then {e trapped},
    as in the paper's scheduler (Invariant 3, Figure 3): until a batch
    has completed its operation, the worker runs only batch work. It
    launches a batch itself whenever the global batch flag is free —
    collecting at most [batch_cap] published records and running the
    user-supplied batched operation (BOP) inline — or else helps with
    the batch tasks of the BOP in flight. No continuation is captured.
    At most one batch runs at a time (Invariant 1), so [run_batch] needs
    no locks or atomics of its own, and it may use the pool's
    [parallel_for]/[fork_join] freely: inside a BOP they run on the
    pool's batch deques. Since every worker has at most one operation
    pending, at most P are pending at any instant, and an operation
    sees at most 2 launches while pending when [batch_cap >= P]
    (Lemma 2).

    [run_batch] must not itself call {!batchify} (the paper's model
    likewise forbids nested data-structure calls from inside a BOP);
    {!batchify} raises [Invalid_argument] if it does. *)

type ('s, 'op) t

type inject = {
  slow_submit : float;
      (** stretch the publication segment of {!batchify} (record
          reachable → launch attempt) by this factor *)
  slow_setup : float;
      (** stretch LAUNCHBATCH overhead: working-set assembly before
          the launch stamp, and the stamp/done-mark epilogue before the
          flag release *)
  slow_bop : float;  (** stretch the BOP body itself *)
}
(** Calibrated delay injection for causal profiling (DESIGN.md §15):
    a virtual speedup of phase X by f = every {e other} phase slowed
    by f, then measurements renormalized by the driver. Each factor is
    a slow-down, ≥ 1. Injection is self-calibrating — each site
    measures its own segment's duration dt on the monotonic clock and
    busy-waits (f−1)·dt — so the delay tracks batch size and store
    with no pre-calibration pass. {!Obs.Reqtrace} span
    conservation holds on injected runs: every stamp is a real clock
    reading taken around the spins. *)

val no_inject : inject
(** All factors 1.0 — compiled to the zero-cost path. *)

val create :
  ?batch_cap:int ->
  ?sid:int ->
  ?invariants:Obs.Invariants.t ->
  ?reqtrace:Obs.Reqtrace.t ->
  ?inject:inject ->
  pool:Pool.t ->
  state:'s ->
  run_batch:(Pool.t -> 's -> 'op array -> unit) ->
  unit ->
  ('s, 'op) t
(** [batch_cap] defaults to the pool's worker count (Invariant 2).

    [inject] (default {!no_inject}) attaches causal-profiling delay
    factors; factors must be ≥ 1 ([Invalid_argument] otherwise). With
    the default the hot paths compile to the zero-cost shape — one
    always-false branch per site.

    [invariants] attaches online checkers ({!Obs.Invariants}): every
    submit/launch/completion of this structure feeds the Invariant
    1/2/3 balances and the Lemma-2 check under [sid]. Defaults to the
    pool's health instance's checkers ({!Obs.Health.invariants}), so a
    pool created with [?health] monitors every structure built over it
    with no further wiring; pass explicitly to check an unmonitored
    pool or to use a different mode or bound per structure. The
    paper's Lemma-2 bound of 2 holds when [batch_cap >= P]; a smaller
    cap adds at most [(P - 1) / batch_cap] launches that fill the cap
    before reaching the op's slot.

    [sid] (default 0) labels this structure in observability events
    when the pool carries a recorder ({!Pool.create}); give each
    structure of a multi-structure program a distinct id so its batch
    track is separate in the Chrome trace. When recording, every
    BATCHIFY emits op-issue/op-done events with the operation's
    issue→batch-completion latency in nanoseconds and its "batches
    launched while pending" count (the Lemma-2 figure), counted from
    the op's publication.

    [reqtrace] attaches request-scoped span capture
    ({!Obs.Reqtrace}): operations submitted with a [?token] report
    their publication milestone and per-batch wait/exec deltas under
    that token. Defaults to {!Obs.Reqtrace.null}. *)

val batchify : ?token:int -> ('s, 'op) t -> 'op -> unit
(** Submit one operation and wait, trapped, until the batch containing
    it has completed: the calling worker runs only batch work meanwhile,
    possibly launching the batch itself, and returns on the same worker
    with the same stack. Results are communicated through mutable fields
    of ['op], as in the paper's operation records.

    Raises [Invalid_argument], before publishing anything, when called
    outside a pool task (the caller has no worker slot) or from batch
    work — inside a BOP, where the call could never complete.

    [token] (default [-1], untraced) keys this operation's milestones
    in the batcher's {!Obs.Reqtrace} instance; see {!create}. *)

val state : ('s, 'op) t -> 's

type stats = {
  batches : int;
  ops : int;
  max_batch : int;
  ovf : int;
      (** always 0: the trapped path has no overflow queue. Kept for
          readers of the stats record that still report it. *)
}

val stats : ('s, 'op) t -> stats
