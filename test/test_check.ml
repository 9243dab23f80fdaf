(* Tests for the lib/check conformance + fuzzing subsystem, and the
   conformance of every batched structure against its sequential
   oracle. These are the cheap, always-on slices of what bin/fuzz.exe
   runs at scale. *)

let check_ok = function Ok _ -> () | Error e -> Alcotest.fail e

(* ---------- conformance: every structure vs its oracle ---------- *)

let conformance_cases =
  List.map
    (fun s ->
      let name = Check.Conformance.subject_name s in
      Alcotest.test_case name `Quick (fun () ->
          check_ok (Check.Conformance.run ~n_ops:48 s)))
    Check.Conformance.subjects

(* The shardable subjects at every K in [shard_counts], through the same
   entry point, with routing, per-shard oracles and cross-shard fan-outs
   checked. K = 1 is the sharded path's identity case, so it repeats the
   plain case above. *)
let sharded_conformance_cases =
  List.concat_map
    (fun s ->
      let name = Check.Conformance.subject_name s in
      List.map
        (fun k ->
          Alcotest.test_case (Printf.sprintf "%s K=%d" name k) `Quick
            (fun () -> check_ok (Check.Conformance.run ~n_ops:48 ~shards:k s)))
        (Check.Conformance.shard_counts s))
    (List.filter Check.Conformance.shardable Check.Conformance.subjects)

(* A second seed and pool shape, so the CAS race carves different
   batches than the default run. *)
let test_conformance_reseeded () =
  List.iter
    (fun s ->
      check_ok (Check.Conformance.run ~n_ops:32 ~seed:42 ~workers:2 ~sim_p:3 s))
    Check.Conformance.subjects

let test_order_list_conformance () =
  check_ok (Check.Conformance.order_list_check ())

(* A shard count the subject cannot run at is an [Error], not a run. *)
let test_bad_shard_counts () =
  let refused what = function
    | Ok _ -> Alcotest.fail (what ^ " accepted")
    | Error _ -> ()
  in
  let run k name =
    Check.Conformance.run ~n_ops:8 ~shards:k (Check.Conformance.find name)
  in
  refused "counter at K=2" (run 2 "counter");
  refused "skiplist at K=0" (run 0 "skiplist")

(* ---------- schedule fuzzing ---------- *)

let test_sweep_small () =
  let cases_run, failures =
    Check.Schedule_fuzz.sweep ~seeds:(List.init 25 (fun i -> 1000 + i)) ()
  in
  Alcotest.(check int) "all cases run" 25 cases_run;
  match failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        (Printf.sprintf "%s\n%s" f.Check.Schedule_fuzz.f_shrunk_error
           (Check.Schedule_fuzz.to_ocaml f.Check.Schedule_fuzz.f_shrunk))

let test_sweep_rt_conf () =
  (* A small sweep with the real-runtime conformance leg on: each case's
     structure and seed run through a real pool against the sequential
     oracle, under Lemma-2 checkers at the paper's bound. *)
  let seeds = List.init 8 (fun i -> 4200 + i) in
  let cases_run, failures =
    Check.Schedule_fuzz.sweep ~rt_conf:true ~max_p:4 ~max_size:32 ~seeds ()
  in
  Alcotest.(check int) "all cases run" 8 cases_run;
  match failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        (Printf.sprintf "%s\n%s" f.Check.Schedule_fuzz.f_shrunk_error
           (Check.Schedule_fuzz.to_ocaml f.Check.Schedule_fuzz.f_shrunk))

let test_shrink_is_identity_on_passing () =
  let case = Check.Schedule_fuzz.case_of_seed 5 in
  let shrunk = Check.Schedule_fuzz.shrink case in
  Alcotest.(check bool) "unchanged" true (case = shrunk)

let test_bound_smoke () =
  let model = Batched.Counter.sim_model () in
  let workload =
    Sim.Workload.parallel_ops ~model ~records_per_node:1 ~n_nodes:64 ()
  in
  let metrics = Sim.Batcher.run (Sim.Batcher.default ~p:4) workload in
  check_ok (Check.Bound.check ~workload ~metrics ());
  let r = Check.Bound.ratio ~workload ~metrics in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f positive and sane" r)
    true
    (r > 0.0 && r < 16.0)

(* On a two-structure workload (a counter and a skip list), the bound's
   terms add up to [theorem1]. *)
let test_bound_terms_two_structures () =
  let workload = Batcher_core.Experiments.(closed_sim (closed_multi ~calls:200)) in
  let metrics = Sim.Batcher.run (Sim.Batcher.default ~p:4) workload in
  let t = Check.Bound.terms ~workload ~metrics in
  Alcotest.(check int) "terms add up to theorem1"
    (Check.Bound.theorem1 ~workload ~metrics)
    Check.Bound.(t.core + t.collection + t.serial + t.span)

(* The attribution cross-check: recorder-derived buckets vs the
   simulator's own counters, on a recorded paper-default run. Also that
   a wrong expectation is actually rejected — the gate must be able to
   fail. *)
let test_cross_check () =
  let model =
    Batched.Skiplist.sim_model ~initial_size:100_000 ~records_per_node:10 ()
  in
  let workload =
    Sim.Workload.parallel_ops ~model ~records_per_node:10 ~n_nodes:80 ()
  in
  let p = 4 in
  let recorder, metrics = Batcher_core.Experiments.sim_recorded ~p workload in
  check_ok (Check.Bound.cross_check ~workload ~metrics ~recorder ());
  check_ok
    (Check.Bound.cross_check ~ms_factor:16.0 ~workload ~metrics ~recorder ());
  let s = Obs.Summary.of_recorder recorder in
  (match
     Obs.Summary.check ~expected:((p * metrics.Sim.Metrics.makespan) + 1) s
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "off-by-one expectation accepted");
  match
    Check.Bound.cross_check ~workload ~metrics ~recorder:Obs.Recorder.null ()
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "disabled recorder accepted"

(* ---------- sharding: plans, fuzz rotation, shrinking ---------- *)

(* A one-shard ostree answers Select as the bare tree does; over two
   shards an exact select is not shardable and the plan refuses it. *)
let test_one_shard_select () =
  let open Batched in
  let keys = [| 5; 1; 9; 3 |] in
  let sharded = Shard.create Shard.ostree ~shards:1 in
  Array.iter (fun k -> Shard.apply_seq sharded (Ostree.insert_op k)) keys;
  let bare = Ostree.run_batch Ostree.empty (Array.map Ostree.insert_op keys) in
  let selected = function
    | Ostree.Select s -> s.Ostree.selected
    | _ -> assert false
  in
  let via_shard = Ostree.select_op 2 and via_bare = Ostree.select_op 2 in
  (match Shard.plan sharded via_shard with
  | Shard.Point 0 -> ()
  | _ -> Alcotest.fail "select did not plan to shard 0");
  Shard.apply_seq sharded via_shard;
  ignore (Ostree.run_batch bare [| via_bare |]);
  Alcotest.(check (option int)) "bare tree" (Some 5) (selected via_bare);
  Alcotest.(check (option int)) "one shard" (selected via_bare)
    (selected via_shard);
  match
    Shard.apply_seq (Shard.create Shard.ostree ~shards:2) (Ostree.select_op 0)
  with
  | () -> Alcotest.fail "select over two shards accepted"
  | exception Invalid_argument _ -> ()

(* Forcing shard_k on generated cases exercises the per-shard composed
   Theorem-1 bound and per-shard conservation on every schedule. *)
let test_sharded_sweep () =
  List.iter
    (fun k ->
      let cases_run, failures =
        Check.Schedule_fuzz.sweep
          ~map_case:(fun c -> { c with Check.Schedule_fuzz.shard_k = k })
          ~seeds:(List.init 12 (fun i -> 2000 + i))
          ()
      in
      Alcotest.(check int) (Printf.sprintf "K=%d all run" k) 12 cases_run;
      match failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.fail
            (Printf.sprintf "K=%d: %s\n%s" k
               f.Check.Schedule_fuzz.f_shrunk_error
               (Check.Schedule_fuzz.to_ocaml f.Check.Schedule_fuzz.f_shrunk)))
    [ 2; 4 ]

(* Greedy shrinking on a seeded failing sharded case: failure must be
   preserved at every step, the result must be no larger, and shard_k
   must participate in the reduction (ending at the unsharded default).
   The failure is induced by an impossibly tight bound factor, so every
   reduction of the cross-shard case keeps failing. *)
let test_sharded_shrink_reproducer () =
  let seeded =
    {
      (Check.Schedule_fuzz.case_of_seed 77) with
      Check.Schedule_fuzz.family = Check.Schedule_fuzz.Parallel_ops;
      model = Check.Schedule_fuzz.Skiplist;
      shard_k = 4;
      size = 24;
      p = 4;
      batch_cap = 4;
      launch_threshold = 1;
      steal_policy = Sim.Batcher.Alternating;
      overhead = Sim.Batcher.Tree_setup;
      sequential_batches = false;
    }
  in
  let bf = 1e-6 in
  (match Check.Schedule_fuzz.run_case ~bound_factor:bf seeded with
  | Ok () -> Alcotest.fail "seeded sharded case unexpectedly passes"
  | Error _ -> ());
  let shrunk = Check.Schedule_fuzz.shrink ~bound_factor:bf seeded in
  (match Check.Schedule_fuzz.run_case ~bound_factor:bf shrunk with
  | Ok () -> Alcotest.fail "shrunk case no longer fails"
  | Error _ -> ());
  Alcotest.(check bool)
    "shrunk no larger" true
    (shrunk.Check.Schedule_fuzz.size <= seeded.Check.Schedule_fuzz.size
    && shrunk.Check.Schedule_fuzz.p <= seeded.Check.Schedule_fuzz.p);
  Alcotest.(check int)
    "shard_k reduced to the unsharded default" 1
    shrunk.Check.Schedule_fuzz.shard_k;
  let snippet = Check.Schedule_fuzz.to_ocaml shrunk in
  Alcotest.(check bool)
    "renders a ready-to-paste reproducer" true
    (String.length snippet > 0)

(* ---------- determinism: byte-identical metrics ---------- *)

let test_metrics_deterministic () =
  List.iter
    (fun seed ->
      let case = Check.Schedule_fuzz.case_of_seed seed in
      let run () =
        let workload = Check.Schedule_fuzz.workload_of case in
        Sim.Batcher.run (Check.Schedule_fuzz.config_of case) workload
      in
      let a = Marshal.to_string (run ()) [] in
      let b = Marshal.to_string (run ()) [] in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d byte-identical" seed)
        true (String.equal a b))
    [ 3; 17; 99; 2024 ]

(* ---------- qcheck properties ---------- *)

(* Any generated case passes every check run_case applies (trace
   validation, conservation, the Theorem-1 bound on default shapes). *)
let prop_random_cases_pass =
  QCheck.Test.make ~name:"fuzz cases pass on the current scheduler" ~count:150
    (Check.Gen.arb_case ~max_p:6 ~max_size:40 ())
    (fun case ->
      match Check.Schedule_fuzz.run_case case with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* Trace.validate never rejects a paper-default run, whatever the
   workload, worker count or scheduler seed. *)
let prop_default_traces_validate =
  QCheck.Test.make ~name:"Trace.validate holds on paper defaults" ~count:100
    QCheck.(0 -- 1_000_000)
    (fun seed ->
      let c = Check.Schedule_fuzz.case_of_seed ~max_p:6 ~max_size:40 seed in
      let c =
        {
          c with
          Check.Schedule_fuzz.steal_policy = Sim.Batcher.Alternating;
          launch_threshold = 1;
          batch_cap = c.Check.Schedule_fuzz.p;
          overhead = Sim.Batcher.Tree_setup;
          sequential_batches = false;
        }
      in
      let workload = Check.Schedule_fuzz.workload_of c in
      let cfg = Check.Schedule_fuzz.config_of c in
      let _, events = Sim.Batcher.run_traced cfg workload in
      match
        Sim.Trace.validate ~p:c.Check.Schedule_fuzz.p
          ~batch_cap:c.Check.Schedule_fuzz.batch_cap events
      with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* With real per-op work to amortize (a big skip list), batching at
   p >= 2 never loses to the same schedule at p = 1. *)
let prop_batched_beats_sequential =
  QCheck.Test.make ~name:"sim makespan <= sequential makespan" ~count:60
    QCheck.(pair (2 -- 6) (8 -- 48))
    (fun (p, size) ->
      let run p =
        let model =
          Batched.Skiplist.sim_model ~initial_size:1_000_000
            ~records_per_node:4 ()
        in
        let workload =
          Sim.Workload.parallel_ops ~model ~records_per_node:4 ~n_nodes:size ()
        in
        (Sim.Batcher.run (Sim.Batcher.default ~p) workload).Sim.Metrics.makespan
      in
      run p <= run 1)

(* Random configs over the whole ablation surface still complete and
   conserve operations. *)
let prop_random_configs_complete =
  QCheck.Test.make ~name:"random configs complete and conserve ops" ~count:100
    QCheck.(pair (Check.Gen.arb_config ~max_p:6 ()) (8 -- 40))
    (fun (cfg, n_nodes) ->
      let model = Batched.Counter.sim_model () in
      let workload =
        Sim.Workload.parallel_ops ~model ~records_per_node:1 ~n_nodes ()
      in
      let metrics = Sim.Batcher.run cfg workload in
      metrics.Sim.Metrics.batch_size_total = n_nodes
      && metrics.Sim.Metrics.max_batch_size <= cfg.Sim.Batcher.batch_cap)

(* Every key routes to exactly one shard: route is a total function
   into [0, K), so existence and uniqueness are determinism + range. *)
let prop_route_total =
  QCheck.Test.make ~name:"route: total, deterministic, in [0,K)" ~count:500
    QCheck.(pair int (1 -- 8))
    (fun (key, shards) ->
      let s = Batched.Shard.route ~shards key in
      0 <= s && s < shards && s = Batched.Shard.route ~shards key)

(* Every keyed point op plans to the shard route picks for its key, for
   all three shardable structures; fan-out queries scatter one
   sub-operation per shard. *)
let prop_point_plans_follow_route =
  QCheck.Test.make ~name:"point plans land on route's shard" ~count:300
    QCheck.(pair small_nat (2 -- 6))
    (fun (key, shards) ->
      let open Batched in
      let expect = Shard.route ~shards key in
      let point spec op =
        match spec.Shard.plan ~shards op with
        | Shard.Point s -> s = expect
        | Shard.Fanout _ -> false
      in
      point Shard.skiplist (Skiplist.insert key)
      && point Shard.skiplist (Skiplist.mem key)
      && point Shard.skiplist (Skiplist.delete key)
      && point Shard.hashtable (Hashtable.insert ~key ~value:0)
      && point Shard.hashtable (Hashtable.lookup key)
      && point Shard.ostree (Ostree.insert_op key)
      && point Shard.ostree (Ostree.delete_op key)
      &&
      match
        Shard.skiplist.Shard.plan ~shards (Skiplist.range ~lo:0 ~hi:10)
      with
      | Shard.Fanout { sub; _ } -> Array.length sub = shards
      | Shard.Point _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_cases_pass;
      prop_default_traces_validate;
      prop_batched_beats_sequential;
      prop_random_configs_complete;
      prop_route_total;
      prop_point_plans_follow_route;
    ]

let () =
  Alcotest.run "check"
    [
      ("conformance", conformance_cases);
      ( "conformance-extra",
        [
          Alcotest.test_case "reseeded" `Quick test_conformance_reseeded;
          Alcotest.test_case "order_list" `Quick test_order_list_conformance;
          Alcotest.test_case "shard counts out of range" `Quick
            test_bad_shard_counts;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "small sweep" `Quick test_sweep_small;
          Alcotest.test_case "runtime-conformance sweep" `Slow
            test_sweep_rt_conf;
          Alcotest.test_case "shrink keeps passing cases" `Quick
            test_shrink_is_identity_on_passing;
          Alcotest.test_case "bound smoke" `Quick test_bound_smoke;
          Alcotest.test_case "bound terms on two structures" `Quick
            test_bound_terms_two_structures;
          Alcotest.test_case "attribution cross-check" `Quick test_cross_check;
        ] );
      ("sharded-conformance", sharded_conformance_cases);
      ( "sharded-fuzz",
        [
          Alcotest.test_case "forced shard_k sweeps" `Quick test_sharded_sweep;
          Alcotest.test_case "seeded cross-shard case shrinks" `Quick
            test_sharded_shrink_reproducer;
          Alcotest.test_case "one-shard ostree answers select" `Quick
            test_one_shard_select;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "metrics byte-identical" `Quick
            test_metrics_deterministic;
        ] );
      ("properties", qcheck_cases);
    ]
