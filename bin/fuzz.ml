(* Fuzzing driver over lib/check: a conformance pass (every batched
   structure against its sequential oracle, through both the real
   runtime and the simulator; the skip list, hash table and ostree also
   at K = 2 and 4 shards, with routing, per-shard oracle and cross-shard
   fan-out checks) and a schedule-configuration sweep (random core DAGs
   x random scheduler ablations — including a shard_k rotation —
   validated against the paper's protocol rules and the per-shard
   composed Theorem-1 bound; runtime legs run at the case's shard
   count).
   Failing cases are shrunk and printed as ready-to-paste OCaml.
   Exits 1 on any failure — suitable for CI and the @fuzz-smoke /
   @shard-smoke aliases. *)

open Cmdliner

(* Runtime-side ablations rotated across the conformance runs: the
   default backoff policy and two extreme ones (all-spin,
   sleep-almost-immediately with a single steal try per round). Extreme
   idle policies change steal/launch interleavings, not results — any
   divergence is a real runtime bug. *)
let conf_ablations =
  let open Runtime.Pool in
  [
    ("", None);
    ( " [spin]",
      Some { default_backoff with spin_limit = 1_000_000; burst_limit = 1_000_000 } );
    ( " [sleepy]",
      Some
        {
          default_backoff with
          spin_limit = 1;
          burst_limit = 2;
          sleep_min = 0.000_01;
          steal_tries = 1;
        } );
  ]

let run_conformance ~n_ops ~seed ~verbose =
  let failures = ref 0 in
  let runs =
    List.concat_map
      (fun s -> List.map (fun k -> (s, k)) (Check.Conformance.shard_counts s))
      Check.Conformance.subjects
  in
  Printf.printf "== conformance: %d (structure, K) runs + order_list ==\n%!"
    (List.length runs);
  List.iteri
    (fun i (subject, shards) ->
      let name = Check.Conformance.subject_name subject in
      let tag, backoff =
        List.nth conf_ablations (i mod List.length conf_ablations)
      in
      match Check.Conformance.run ~n_ops ~seed ~shards ?backoff subject with
      | Ok r ->
          if verbose then
            Printf.printf
              "conformance %-10s K=%d%s ok  (runtime: %d batches, max %d; \
               sim: %d batches, makespan %d)\n\
               %!"
              name shards tag r.Check.Conformance.rt_batches r.rt_max_batch
              r.sim_batches r.sim_makespan
      | Error e ->
          incr failures;
          Printf.printf "conformance %-10s K=%d%s FAIL: %s\n%!" name shards tag
            e)
    runs;
  (match Check.Conformance.order_list_check ~n:n_ops ~seed () with
  | Ok () -> if verbose then Printf.printf "conformance order_list ok\n%!"
  | Error e ->
      incr failures;
      Printf.printf "conformance order_list FAIL: %s\n%!" e);
  !failures

let run_sweep ~seeds ~start ~max_p ~max_size ~bound_factor ~deadline ~shard_k
    ~verbose =
  let should_stop =
    match deadline with
    | None -> fun () -> false
    | Some d -> fun () -> Unix.gettimeofday () > d
  in
  let on_case i case =
    if verbose then
      Printf.printf "case %4d: %s\n%!" (start + i)
        (Check.Schedule_fuzz.show_case case)
    else if (i + 1) mod 50 = 0 then Printf.printf "  ... %d cases\n%!" (i + 1)
  in
  let seed_list = List.init seeds (fun i -> start + i) in
  (* shard_k = 0 leaves the generator's own rotation (mostly unsharded,
     some K = 2 and K = 4 legs) in place; > 0 forces every case to K
     shards, the fuzzer's shard ablation. Either way each case's
     schedule is checked against the per-shard composed Theorem-1 bound
     and per-shard conservation in [Check.Bound.cross_check]. *)
  let map_case =
    if shard_k <= 0 then fun c -> c
    else fun c -> { c with Check.Schedule_fuzz.shard_k }
  in
  (* rt_conf: every case additionally runs its structure and seed
     through the real runtime, conformance-checked against the
     sequential oracle under Lemma-2 checkers. *)
  let cases_run, fails =
    Check.Schedule_fuzz.sweep ~bound_factor ~rt_conf:true ~max_p ~max_size
      ~should_stop ~on_case ~map_case ~seeds:seed_list ()
  in
  Printf.printf "schedule fuzz: %d/%d cases run, %d failure(s)\n%!" cases_run
    seeds (List.length fails);
  List.iter
    (fun (f : Check.Schedule_fuzz.failure) ->
      Printf.printf "\nFAILURE on %s\n  error: %s\n"
        (Check.Schedule_fuzz.show_case f.f_case)
        f.f_error;
      Printf.printf "shrunk to %s\n  error: %s\n"
        (Check.Schedule_fuzz.show_case f.f_shrunk)
        f.f_shrunk_error;
      Printf.printf "reproducer:\n%s\n%!"
        (Check.Schedule_fuzz.to_ocaml f.f_shrunk))
    fails;
  List.length fails

let main seeds start max_p max_size bound_factor time_budget conformance_ops
    skip_conformance skip_schedule shard_k verbose =
  let seeds = max 0 seeds in
  let deadline =
    Option.map (fun b -> Unix.gettimeofday () +. b) time_budget
  in
  let conf_failures =
    if skip_conformance then 0
    else run_conformance ~n_ops:conformance_ops ~seed:1 ~verbose
  in
  let sweep_failures =
    if skip_schedule then 0
    else begin
      Printf.printf "== schedule fuzz: seeds %d..%d%s ==\n%!" start
        (start + seeds - 1)
        (if shard_k > 0 then Printf.sprintf " (forced shard_k=%d)" shard_k
         else "");
      run_sweep ~seeds ~start ~max_p ~max_size ~bound_factor ~deadline
        ~shard_k ~verbose
    end
  in
  let total = conf_failures + sweep_failures in
  if total = 0 then begin
    Printf.printf "all checks passed\n%!";
    0
  end
  else begin
    Printf.printf "%d failure(s)\n%!" total;
    1
  end

let seeds_arg =
  Arg.(
    value & opt int 100
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of schedule-fuzz seeds to sweep.")

let start_arg =
  Arg.(
    value & opt int 0
    & info [ "start-seed" ] ~docv:"S" ~doc:"First schedule-fuzz seed.")

let max_p_arg =
  Arg.(
    value & opt int 8
    & info [ "max-p" ] ~docv:"P" ~doc:"Largest simulated worker count.")

let max_size_arg =
  Arg.(
    value & opt int 60
    & info [ "max-size" ] ~docv:"N"
        ~doc:"Largest workload size (data-structure nodes).")

let bound_factor_arg =
  Arg.(
    value & opt float 16.0
    & info [ "bound-factor" ] ~docv:"F"
        ~doc:"Constant factor allowed over the Theorem-1 expression.")

let time_budget_arg =
  Arg.(
    value & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECS"
        ~doc:"Stop the sweep after this many seconds (checked between cases).")

let conformance_ops_arg =
  Arg.(
    value & opt int 96
    & info [ "conformance-ops" ] ~docv:"N"
        ~doc:"Operations per conformance script.")

let skip_conformance_arg =
  Arg.(value & flag & info [ "skip-conformance" ] ~doc:"Schedule fuzzing only.")

let skip_schedule_arg =
  Arg.(value & flag & info [ "skip-schedule" ] ~doc:"Conformance only.")

let shard_k_arg =
  Arg.(
    value & opt int 0
    & info [ "shard-k" ] ~docv:"K"
        ~doc:
          "Force every schedule-fuzz case to K shards (0 = the generator's \
           own rotation).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every case.")

let cmd =
  let doc =
    "fuzz the BATCHER scheduler and batched structures against oracles"
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const main $ seeds_arg $ start_arg $ max_p_arg $ max_size_arg
      $ bound_factor_arg $ time_budget_arg $ conformance_ops_arg
      $ skip_conformance_arg $ skip_schedule_arg
      $ shard_k_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
