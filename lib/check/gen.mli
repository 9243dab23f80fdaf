(** QCheck generators of scheduler configurations and fuzz cases, used
    by the property tests in [test/test_check.ml]. The seeded
    operation-script generators live in {!Opgen}. *)

val config_gen :
  ?min_p:int -> ?max_p:int -> unit -> Sim.Batcher.config QCheck.Gen.t
(** Random scheduler configurations over the full ablation surface
    (policy, threshold, cap, overhead model, flat combining), with
    invariant checks left on. *)

val arb_config :
  ?min_p:int -> ?max_p:int -> unit -> Sim.Batcher.config QCheck.arbitrary

val case_gen :
  ?max_p:int -> ?max_size:int -> unit -> Schedule_fuzz.case QCheck.Gen.t

val arb_case :
  ?max_p:int -> ?max_size:int -> unit -> Schedule_fuzz.case QCheck.arbitrary
(** Prints via {!Schedule_fuzz.show_case} and shrinks via
    {!Schedule_fuzz.shrink_steps}. *)
