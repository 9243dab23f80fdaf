(** Per-phase cost multipliers for what-if (causal-profiling) runs.

    The causal engine ({!Obs.Causal} + [Svc.Causal]) asks "if phase X
    were f× faster, what would throughput and the tail do?" On the
    virtual clock that question has an exact answer: re-run the
    identical request array with the phase's cost scaled by 1/f and
    diff the results. This record carries those scale factors; both
    simulators take it as an optional argument defaulting to
    {!identity}, which reproduces the unscaled run byte-for-byte (the
    [f = 1.0] path returns costs unchanged, asserted against recorded
    pre-plumbing digests by a golden test).

    Factor semantics: each field {e multiplies} the corresponding cost,
    so a virtual 2× speedup of BOP work is [{ identity with bop_work =
    0.5 }]. Factors must be positive; scaled costs round to the nearest
    integer of the virtual clock (clamped at 0 — a cost scaled to
    nothing vanishes, it never goes negative).

    Which knobs act where:
    - {!Openloop} (the analytic service engine) honors all five:
      [bop_work]/[bop_span] scale each launch's BOP Brent terms,
      [setup_work]/[setup_span] the Θ(P)/Θ(lg P) LAUNCHBATCH stages,
      and [p_share] the per-shard worker share max(1, P/K) (scaled,
      then clamped back to ≥ 1 — so at P/K ≤ 1 the knob still models
      granting a shard more workers).
    - {!Batcher} (the DAG-lowering scheduler sim) honors
      [bop_work] and [setup_work] by scaling the {e leaf costs} of the
      BOP and overhead [Par] trees before lowering. In a real DAG,
      work and span are coupled — scaling leaves scales both together
      — so the span-only knobs have no separate meaning there and are
      ignored; the Openloop engine is where the span-vs-work
      distinction is exact. *)

type t = {
  bop_work : float;
  bop_span : float;
  setup_work : float;
  setup_span : float;
  p_share : float;
}

val identity : t
(** All factors 1.0. *)

val is_identity : t -> bool

val scale : float -> int -> int
(** [scale f x] is [x] unchanged when [f = 1.0] (exact identity, not a
    float round-trip), otherwise [round (f·x)] clamped at 0. *)

val check : t -> unit
(** Raises [Invalid_argument] on a non-positive or NaN factor. *)
