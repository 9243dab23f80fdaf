(* QCheck arbitraries over fuzz cases and scheduler configs. The
   seeded op-script generators live in [Opgen]. *)

let config_gen ?(min_p = 1) ?(max_p = 8) () =
  let open QCheck.Gen in
  int_range min_p max_p >>= fun p ->
  int_range 0 1_000_000 >>= fun seed ->
  oneofl
    Sim.Batcher.[ Alternating; Core_only; Batch_only; Uniform_random ]
  >>= fun steal_policy ->
  int_range 1 p >>= fun launch_threshold ->
  int_range 1 p >>= fun batch_cap ->
  oneofl Sim.Batcher.[ Tree_setup; Fused_setup; No_setup ] >>= fun overhead ->
  bool >>= fun sequential_batches ->
  return
    {
      (Sim.Batcher.default ~p) with
      Sim.Batcher.seed;
      steal_policy;
      launch_threshold;
      batch_cap;
      overhead;
      sequential_batches;
    }

let print_config (c : Sim.Batcher.config) =
  Printf.sprintf
    "{ p = %d; seed = %d; policy = %s; threshold = %d; cap = %d; overhead = %s; \
     flat = %b }"
    c.Sim.Batcher.p c.seed
    (Schedule_fuzz.policy_name c.steal_policy)
    c.launch_threshold c.batch_cap
    (Schedule_fuzz.overhead_name c.overhead)
    c.sequential_batches

let arb_config ?min_p ?max_p () =
  QCheck.make ~print:print_config (config_gen ?min_p ?max_p ())

let case_gen ?max_p ?max_size () =
  QCheck.Gen.map
    (Schedule_fuzz.case_of_seed ?max_p ?max_size)
    (QCheck.Gen.int_range 0 1_000_000)

let arb_case ?max_p ?max_size () =
  QCheck.make ~print:Schedule_fuzz.show_case
    ~shrink:(fun c yield -> List.iter yield (Schedule_fuzz.shrink_steps c))
    (case_gen ?max_p ?max_size ())
