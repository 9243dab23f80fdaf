(** Causal what-if profiling: the generic experiment engine.

    A Coz-style causal profile answers "if phase X were f× faster,
    what happens to throughput and the tail?" — a question phase
    {e shares} ({!Reqtrace.shares}) cannot answer: under queueing,
    shrinking the phase that holds the batch flag collapses everyone's
    pending-wait (sensitivity ≫ share), while shrinking an
    off-critical phase buys nothing (sensitivity ≪ share).

    This module is the pure half: given a baseline {!measure}, the
    baseline's phase shares, and one re-measured {!measure} per
    (phase × speedup) grid cell, it computes deltas, the share-based
    prediction each cell should match if shares {e were} sensitivities,
    the divergence between the two, the measured-vs-bound winner
    comparison, and renders the ranked table.
    How a cell is produced is the caller's business ([Svc.Causal]):
    exact cost scaling on the virtual clock ({!Sim.Costs}), or
    calibrated delay injection on the runtime (virtual speedup of X =
    slowing every other phase; [Runtime.Batcher_rt]'s [inject]). *)

type measure = {
  goodput : float;  (** requests per second *)
  mean_ns : float;
  p99_ns : float;
  max_ns : float;
  bound_ns : float;
      (** the Theorem-1 service budget ({!Check.Bound.service_budget})
          evaluated on this run's own measured terms; NaN when the leg
          cannot evaluate it (the runtime leg has no virtual-clock
          work/span accounting) *)
  per_class : (string * float) list;  (** op class -> mean_ns *)
}

type cell = {
  phase : string;  (** the virtually sped-up phase *)
  family : string;  (** "work" | "span" | "sched" | "share" *)
  speedup : float;  (** f >= 1 *)
  m : measure;
  d_mean : float;
      (** fractional mean-latency improvement vs baseline: +0.5 = the
          mean halved, negative = the "speedup" hurt; NaN = no signal *)
  d_p99 : float;
  d_goodput : float;  (** sign flipped: + = more goodput *)
  d_bound : float;  (** improvement of the Theorem-1 budget; NaN if unevaluated *)
  share_predicted : float;
      (** what [d_mean] would be if the phase's latency share were its
          sensitivity: share × (1 − 1/f); NaN when the phase maps to
          no Reqtrace share (e.g. the worker-share knob) *)
  divergence : float;  (** [d_mean − share_predicted]; NaN as above *)
  d_class : (string * float) list;  (** per-op-class d_mean *)
}

type profile = {
  exec : string;  (** "sim" | "runtime" *)
  label : string;  (** human description of the grid (scenario, P, K...) *)
  baseline : measure;
  shares : (string * float) list;  (** baseline {!Reqtrace.shares} *)
  cells : cell list;
  winner_measured : string option;
      (** phase with the largest d_mean at its deepest swept speedup *)
  winner_bound : string option;  (** same by d_bound; None when NaN *)
  agree : bool option;
      (** measured winner = bound winner; None when the bound side is
          not evaluable — a [Some false] flags where the bound's
          dominant term disagrees with the measured causal winner *)
  divergent : (string * float) list;
      (** phases whose |divergence| at deepest speedup exceeds
          {!divergence_threshold} — the "shares ≠ sensitivity" list *)
}

val divergence_threshold : float
(** 0.05: a phase whose measured sensitivity is more than five
    latency-percentage-points away from its share-based prediction is
    flagged. *)

val cell :
  baseline:measure ->
  shares:(string * float) list ->
  phase:string ->
  family:string ->
  share_of:string option ->
  speedup:float ->
  measure ->
  cell
(** Compute one grid cell's deltas. [share_of] names the
    {!Reqtrace} phase whose share predicts this knob (None when no
    share maps). Raises [Invalid_argument] if [speedup < 1]. *)

val profile :
  exec:string ->
  label:string ->
  baseline:measure ->
  shares:(string * float) list ->
  cell list ->
  profile
(** Assemble the profile: winners and divergences are computed from
    each phase's deepest-speedup cell. *)

val render : profile -> string
(** The ranked causal-profile table: baseline, per-cell deltas with
    DIVERGES markers, a per-op-class phase ranking, the
    measured-vs-Theorem-1 winner verdict, and the shares≠sensitivity
    list. *)
