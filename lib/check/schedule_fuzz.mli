(** Schedule fuzzing: sweep random scheduler configurations over random
    core DAGs and verify every run against the paper's protocol rules.

    A fuzz {!case} packs everything that determines one simulated run:
    a workload family and size, a structure cost model, worker count,
    seeds, and the full ablation surface of {!Sim.Batcher.config}
    (steal policy, launch threshold, batch cap, overhead model,
    flat-combining mode). {!run_case} executes the run with the
    simulator's own invariant assertions enabled and then re-checks it
    from the outside:

    - the event trace replays cleanly through {!Sim.Trace.validate}
      (Invariants 1-2, the suspension protocol, Lemma 2) — applied only
      to immediate-launch, full-cap configurations, the regime the
      validator's Lemma-2 accounting assumes;
    - conservation: every data-structure node lands in exactly one
      batch, no batch exceeds the cap, and total executed work fits in
      [P · makespan];
    - for paper-default-shaped configurations, the makespan respects the
      Theorem-1 expression via {!Bound.check}.

    A failing [(seed, config)] pair is {!shrink}-ed to a minimal still-
    failing case and rendered by {!to_ocaml} as a ready-to-paste test. *)

type model_kind =
  | Counter
  | Skiplist
  | Stack
  | Fifo
  | Pqueue
  | Hashtable
  | Two_three
  | Ostree
  | Sp_order

type family =
  | Parallel_ops  (** the paper's Figure-1 parallel loop *)
  | Chained  (** parallel chains exercising the m·s(n) term *)
  | Pthreaded  (** statically threaded chains (Section 8) *)
  | Random_sp  (** random series-parallel core DAGs *)
  | Interleaved  (** two structures batched side by side *)

type case = {
  family : family;
  model : model_kind;
  size : int;  (** target number of data-structure nodes *)
  records_per_node : int;
  wl_seed : int;  (** workload-shape seed (random DAGs, pop mixes) *)
  p : int;
  sim_seed : int;  (** scheduler (steal-victim) seed *)
  shard_k : int;
      (** > 1 shards the structure K ways: the workload becomes
          {!Sim.Workload.sharded_ops} (parallel loop routed through
          [Batched.Shard.route], overriding [family]), with each
          shard's cost model at ~1/K of the full structure size. The
          per-shard composed Theorem-1 bound and per-shard conservation
          are then what {!run_case} verifies. *)
  steal_policy : Sim.Batcher.steal_policy;
  launch_threshold : int;
  batch_cap : int;
  overhead : Sim.Batcher.overhead_model;
  sequential_batches : bool;
  inv_mode : Obs.Invariants.mode;
      (** {!Obs.Invariants} mode threaded into the run — mostly [Exact]
          (every schedule audited online, independently of the sim's
          asserts and the trace validator), with [Sampled]/[Off] legs in
          the rotation so those paths are fuzzed too. Any nonzero
          violation counter fails the case. *)
}

val workload_of : case -> Sim.Workload.t
val config_of : case -> Sim.Batcher.config

val is_paper_default : case -> bool
(** Alternating steals, threshold 1, cap [p], tree setup, parallel
    batches — the configuration Theorem 1 is stated for. *)

val run_case :
  ?bound_factor:float -> ?rt_conf:bool -> case -> (unit, string) result
(** Execute and cross-check one case. [bound_factor] is forwarded to
    {!Bound.check} (paper-default cases only). [rt_conf] (default
    [false]: it spawns a real pool per case) additionally pushes the
    case's structure and seed through {!Conformance.run}, at the case's
    [shard_k] when the structure is {!Conformance.shardable} and at one
    shard otherwise, so the runtime's trapped batch path meets fuzzed
    workload shapes against the sequential oracle, under Exact Lemma-2
    checkers at the paper's bound of 2. *)

val case_of_seed : ?max_p:int -> ?max_size:int -> int -> case
(** Deterministic case from a single fuzz seed. *)

val shrink_steps : case -> case list
(** Candidate reductions, most aggressive first. Every candidate is
    strictly smaller in the (size, p, records, ablation-distance)
    order, so greedy shrinking terminates. *)

val shrink : ?bound_factor:float -> ?rt_conf:bool -> case -> case
(** Greedily minimize a failing case: repeatedly replace it by its
    first still-failing reduction. Returns the input unchanged if it
    does not fail. *)

val to_ocaml : case -> string
(** A self-contained OCaml test snippet reproducing the case. *)

val pp_case : Format.formatter -> case -> unit
val show_case : case -> string

val policy_name : Sim.Batcher.steal_policy -> string
val overhead_name : Sim.Batcher.overhead_model -> string
(** Constructor names, for printers and CLI output. *)

type failure = {
  f_case : case;  (** as generated *)
  f_error : string;
  f_shrunk : case;  (** minimal reproducer *)
  f_shrunk_error : string;
}

val sweep :
  ?bound_factor:float ->
  ?rt_conf:bool ->
  ?max_p:int ->
  ?max_size:int ->
  ?map_case:(case -> case) ->
  ?should_stop:(unit -> bool) ->
  ?on_case:(int -> case -> unit) ->
  seeds:int list ->
  unit ->
  int * failure list
(** Run {!run_case} on {!case_of_seed} of every seed, shrinking each
    failure. Returns [(cases_run, failures)]. [map_case] rewrites each
    generated case before it runs (e.g. forcing [shard_k] for a
    sharded-only smoke sweep); [should_stop] is polled between cases
    (soak-run time budgets); [on_case] observes progress. *)
