(* Scheduler simulator tests: the work-stealing bound, BATCHER invariants
   and conservation laws, baselines, and fuzzing over workload shapes. *)

let counter_workload ?(records = 1) ~n () =
  Sim.Workload.parallel_ops
    ~model:(Batched.Counter.sim_model ~records_per_node:records ())
    ~records_per_node:records ~n_nodes:n ()

let skiplist_workload ?(records = 1) ~initial ~n () =
  Sim.Workload.parallel_ops
    ~model:(Batched.Skiplist.sim_model ~initial_size:initial ~records_per_node:records ())
    ~records_per_node:records ~n_nodes:n ()

(* ---------- plain work stealing ---------- *)

(* BATCHER on a DAG with no data-structure nodes is Theorem 1 with
   n = m = 0: the classic ABP work-stealing bound O(T1/P + T∞). *)
let run_core ?(seed = 1) ~p w =
  Sim.Batcher.run { (Sim.Batcher.default ~p) with Sim.Batcher.seed } w

let test_ws_single_worker_exact () =
  let w = Sim.Workload.pure_core ~leaf_cost:10 ~leaves:32 in
  let m = run_core ~p:1 w in
  Alcotest.(check int) "makespan = T1 on one worker" (Dag.work w.Sim.Workload.core)
    m.Sim.Metrics.makespan

let test_ws_speedup () =
  let w = Sim.Workload.pure_core ~leaf_cost:100 ~leaves:256 in
  let m1 = run_core ~p:1 w in
  let m8 = run_core ~p:8 w in
  let speedup = Sim.Metrics.speedup ~baseline:m1 m8 in
  Alcotest.(check bool) "near-linear speedup" true (speedup > 5.0)

let test_ws_greedy_bound () =
  (* O(T1/P + T∞): check with a generous constant across shapes. *)
  List.iter
    (fun (leaves, cost, p) ->
      let w = Sim.Workload.pure_core ~leaf_cost:cost ~leaves in
      let d = w.Sim.Workload.core in
      let m = run_core ~p w in
      let bound = (Dag.work d / p) + Dag.span d in
      Alcotest.(check bool)
        (Printf.sprintf "leaves=%d cost=%d p=%d: %d <= 8*%d" leaves cost p
           m.Sim.Metrics.makespan bound)
        true
        (m.Sim.Metrics.makespan <= 8 * bound))
    [ (64, 10, 2); (64, 10, 8); (512, 3, 4); (16, 1000, 16); (1, 1, 4) ]

let test_ws_work_conservation () =
  let w = Sim.Workload.pure_core ~leaf_cost:7 ~leaves:100 in
  let m = run_core ~p:4 w in
  Alcotest.(check int) "all work executed once" (Dag.work w.Sim.Workload.core)
    m.Sim.Metrics.core_work

let test_ws_deterministic () =
  let w = Sim.Workload.pure_core ~leaf_cost:5 ~leaves:128 in
  let m1 = run_core ~seed:99 ~p:4 w in
  let m2 = run_core ~seed:99 ~p:4 w in
  Alcotest.(check int) "same makespan" m1.Sim.Metrics.makespan m2.Sim.Metrics.makespan;
  Alcotest.(check int) "same steals" m1.Sim.Metrics.steal_attempts
    m2.Sim.Metrics.steal_attempts

(* ---------- deque ---------- *)

let test_deque_fifo_lifo () =
  let d = Sim.Deque.create () in
  for i = 1 to 5 do
    Sim.Deque.push_bottom d i
  done;
  Alcotest.(check int) "steal oldest" 1 (Sim.Deque.steal_top d);
  Alcotest.(check int) "pop newest" 5 (Sim.Deque.pop_bottom d);
  Alcotest.(check int) "length" 3 (Sim.Deque.length d)

let test_deque_empty () =
  let d = Sim.Deque.create () in
  Alcotest.(check int) "pop empty" (-1) (Sim.Deque.pop_bottom d);
  Alcotest.(check int) "steal empty" (-1) (Sim.Deque.steal_top d);
  Alcotest.(check bool) "is_empty" true (Sim.Deque.is_empty d)

let test_deque_growth () =
  let d = Sim.Deque.create () in
  for i = 0 to 999 do
    Sim.Deque.push_bottom d i
  done;
  let ok = ref true in
  for i = 0 to 999 do
    if Sim.Deque.steal_top d <> i then ok := false
  done;
  Alcotest.(check bool) "order preserved across growth" true !ok

(* Runs of up to 400 commands, two in three a push, so the ring grows
   several times; steals move its top, so pushes also wrap around. *)
let prop_deque_model =
  QCheck.Test.make ~name:"deque matches a list model" ~count:300
    QCheck.(
      list_of_size
        Gen.(0 -- 400)
        (make
           Gen.(
             frequency
               [ (4, map (fun v -> `Push v) (0 -- 1_000_000)); (1, return `Pop);
                 (1, return `Steal) ])))
    (fun cmds ->
      let d = Sim.Deque.create () in
      let model = ref [] in
      List.for_all
        (fun cmd ->
          match cmd with
          | `Push v ->
              Sim.Deque.push_bottom d v;
              model := !model @ [ v ];
              Sim.Deque.length d = List.length !model
          | `Pop ->
              let expect =
                match List.rev !model with
                | [] -> -1
                | x :: rest ->
                    model := List.rev rest;
                    x
              in
              Sim.Deque.pop_bottom d = expect
          | `Steal ->
              let expect =
                match !model with
                | [] -> -1
                | x :: rest ->
                    model := rest;
                    x
              in
              Sim.Deque.steal_top d = expect)
        cmds)

(* ---------- BATCHER ---------- *)

let run_batcher ?(p = 4) ?(seed = 1) w =
  Sim.Batcher.run { (Sim.Batcher.default ~p) with Sim.Batcher.seed } w

let test_batcher_completes_counter () =
  let w = counter_workload ~n:100 () in
  let m = run_batcher ~p:4 w in
  Alcotest.(check bool) "finished" true (m.Sim.Metrics.makespan > 0);
  Alcotest.(check int) "every op in exactly one batch" 100
    m.Sim.Metrics.batch_size_total

let test_batcher_core_work_conservation () =
  let w = counter_workload ~n:50 () in
  let m = run_batcher ~p:4 w in
  Alcotest.(check int) "core work executed exactly once"
    (Dag.work w.Sim.Workload.core) m.Sim.Metrics.core_work

let test_batcher_single_worker () =
  let w = counter_workload ~n:20 () in
  let m = run_batcher ~p:1 w in
  Alcotest.(check int) "all ops batched" 20 m.Sim.Metrics.batch_size_total;
  (* With one worker every batch has exactly one operation. *)
  Alcotest.(check int) "n batches" 20 m.Sim.Metrics.batches;
  Alcotest.(check int) "max size 1" 1 m.Sim.Metrics.max_batch_size

let test_batcher_batch_cap_invariant2 () =
  List.iter
    (fun p ->
      let w = counter_workload ~n:64 () in
      let m = run_batcher ~p w in
      Alcotest.(check bool)
        (Printf.sprintf "p=%d: max batch %d <= %d" p m.Sim.Metrics.max_batch_size p)
        true
        (m.Sim.Metrics.max_batch_size <= p))
    [ 1; 2; 4; 8 ]

let test_batcher_lemma2 () =
  List.iter
    (fun (p, n) ->
      let w = skiplist_workload ~initial:1000 ~n () in
      let m = run_batcher ~p w in
      Alcotest.(check bool)
        (Printf.sprintf "p=%d n=%d: trapped %d batches <= 2" p n
           m.Sim.Metrics.max_batches_while_pending)
        true
        (m.Sim.Metrics.max_batches_while_pending <= 2))
    [ (2, 50); (4, 100); (8, 200) ]

let test_batcher_deterministic () =
  let w () = skiplist_workload ~initial:500 ~n:100 () in
  let m1 = run_batcher ~p:4 ~seed:7 (w ()) in
  let m2 = run_batcher ~p:4 ~seed:7 (w ()) in
  Alcotest.(check int) "same makespan" m1.Sim.Metrics.makespan m2.Sim.Metrics.makespan;
  Alcotest.(check int) "same batches" m1.Sim.Metrics.batches m2.Sim.Metrics.batches

let test_batcher_model_reset_between_runs () =
  (* Reusing the same workload value must give identical results because
     run resets the model. *)
  let w = skiplist_workload ~initial:500 ~n:100 () in
  let m1 = run_batcher ~p:4 w in
  let m2 = run_batcher ~p:4 w in
  Alcotest.(check int) "same makespan" m1.Sim.Metrics.makespan m2.Sim.Metrics.makespan

let test_batcher_speedup_on_skiplist () =
  let w = skiplist_workload ~initial:100_000 ~records:10 ~n:100 () in
  let m1 = run_batcher ~p:1 w in
  let m8 = run_batcher ~p:8 w in
  let s = Sim.Metrics.speedup ~baseline:m1 m8 in
  Alcotest.(check bool) (Printf.sprintf "speedup %.2f > 2" s) true (s > 2.0)

let test_batcher_chained_ops_m () =
  let w =
    Sim.Workload.chained_ops
      ~model:(Batched.Counter.sim_model ())
      ~records_per_node:1 ~chain_length:10 ~width:4 ()
  in
  let t1, tinf, n, m = Sim.Workload.core_metrics w in
  Alcotest.(check int) "n" 40 n;
  Alcotest.(check int) "m" 10 m;
  Alcotest.(check bool) "t1 >= tinf" true (t1 >= tinf);
  let metrics = run_batcher ~p:4 w in
  Alcotest.(check int) "all ops batched" 40 metrics.Sim.Metrics.batch_size_total

let test_batcher_trapped_le_batches () =
  (* Every batch must contain at least one operation. *)
  let w = counter_workload ~n:30 () in
  let m = run_batcher ~p:4 w in
  Alcotest.(check bool) "batches <= ops" true (m.Sim.Metrics.batches <= 30);
  Alcotest.(check bool) "batches > 0" true (m.Sim.Metrics.batches > 0)

let test_batcher_multi_structure () =
  (* Two independent implicitly batched structures in one program:
     per-structure Invariants 1-2 and Lemma 2 must hold, and every
     operation lands in exactly one batch. *)
  let w =
    Sim.Workload.interleaved_ops
      ~models:
        [ Batched.Counter.sim_model ();
          Batched.Skiplist.sim_model ~initial_size:4096 () ]
      ~records_per_node:1 ~n_nodes:120 ()
  in
  List.iter
    (fun p ->
      let m = run_batcher ~p w in
      Alcotest.(check int) "ops all batched" 120 m.Sim.Metrics.batch_size_total;
      Alcotest.(check bool) "cap" true (m.Sim.Metrics.max_batch_size <= p);
      Alcotest.(check bool) "lemma2 per structure" true
        (m.Sim.Metrics.max_batches_while_pending <= 2))
    [ 1; 2; 4; 8 ]

let test_batcher_multi_structure_three () =
  let w =
    Sim.Workload.interleaved_ops
      ~models:
        [ Batched.Counter.sim_model ();
          Batched.Stack.sim_model ();
          Batched.Hashtable.sim_model () ]
      ~records_per_node:2 ~n_nodes:90 ()
  in
  let m = run_batcher ~p:6 w in
  Alcotest.(check int) "ops all batched" 90 m.Sim.Metrics.batch_size_total;
  Alcotest.(check int) "records" 180 m.Sim.Metrics.total_records

(* Ablations. *)

let test_batcher_steal_policies_complete () =
  List.iter
    (fun policy ->
      let w = skiplist_workload ~initial:1000 ~n:60 () in
      let cfg = { (Sim.Batcher.default ~p:4) with Sim.Batcher.steal_policy = policy } in
      let m = Sim.Batcher.run cfg w in
      Alcotest.(check int) "ops all batched" 60 m.Sim.Metrics.batch_size_total)
    [ Sim.Batcher.Alternating; Sim.Batcher.Core_only; Sim.Batcher.Batch_only;
      Sim.Batcher.Uniform_random ]

let test_batcher_launch_threshold () =
  let w = counter_workload ~n:40 () in
  let cfg = { (Sim.Batcher.default ~p:4) with Sim.Batcher.launch_threshold = 4 } in
  let m = Sim.Batcher.run cfg w in
  Alcotest.(check int) "ops all batched" 40 m.Sim.Metrics.batch_size_total

let test_batcher_small_cap () =
  let w = counter_workload ~n:40 () in
  let cfg = { (Sim.Batcher.default ~p:8) with Sim.Batcher.batch_cap = 2 } in
  let m = Sim.Batcher.run cfg w in
  Alcotest.(check bool) "cap respected" true (m.Sim.Metrics.max_batch_size <= 2);
  Alcotest.(check int) "ops all batched" 40 m.Sim.Metrics.batch_size_total

(* ---------- trace validation ---------- *)

let check_valid_trace ~p w =
  let cfg = Sim.Batcher.default ~p in
  let m, events = Sim.Batcher.run_traced cfg w in
  (match Sim.Trace.validate ~p ~batch_cap:cfg.Sim.Batcher.batch_cap events with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("trace validator: " ^ msg));
  (* The trace agrees with the metrics. *)
  let launches =
    List.length
      (List.filter (function Sim.Trace.Launched _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "launch events = batches" m.Sim.Metrics.batches launches;
  let suspensions =
    List.length
      (List.filter (function Sim.Trace.Suspended _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "one suspension per op"
    (Dag.ds_count w.Sim.Workload.core)
    suspensions

let test_trace_counter () = check_valid_trace ~p:4 (counter_workload ~n:60 ())

let test_trace_skiplist_chains () =
  check_valid_trace ~p:8
    (Sim.Workload.chained_ops
       ~model:(Batched.Skiplist.sim_model ~initial_size:1024 ())
       ~records_per_node:1 ~chain_length:10 ~width:6 ())

let test_trace_multi_structure () =
  check_valid_trace ~p:6
    (Sim.Workload.interleaved_ops
       ~models:[ Batched.Counter.sim_model (); Batched.Stack.sim_model () ]
       ~records_per_node:1 ~n_nodes:80 ())

let test_trace_validator_rejects_bad_traces () =
  let open Sim.Trace in
  let reject name events =
    match validate ~p:4 ~batch_cap:4 events with
    | Ok () -> Alcotest.fail (name ^ ": expected rejection")
    | Error _ -> ()
  in
  (* Overlapping batches of one structure (Invariant 1). *)
  reject "overlap"
    [ Suspended { time = 1; worker = 0; node = 10; sid = 0 };
      Suspended { time = 1; worker = 1; node = 11; sid = 0 };
      Launched { time = 2; worker = 0; sid = 0; members = [| 0 |] };
      Launched { time = 3; worker = 1; sid = 0; members = [| 1 |] } ];
  (* Batch bigger than the cap (Invariant 2). *)
  reject "oversized"
    [ Suspended { time = 1; worker = 0; node = 1; sid = 0 };
      Launched { time = 2; worker = 0; sid = 0; members = [| 0; 1; 2; 3; 4 |] } ];
  (* Member that never suspended. *)
  reject "ghost member"
    [ Suspended { time = 1; worker = 0; node = 1; sid = 0 };
      Launched { time = 2; worker = 0; sid = 0; members = [| 0; 3 |] } ];
  (* Resume before completion. *)
  reject "early resume"
    [ Suspended { time = 1; worker = 0; node = 1; sid = 0 };
      Launched { time = 2; worker = 0; sid = 0; members = [| 0 |] };
      Resumed { time = 3; worker = 0; node = 1 } ];
  (* Time going backwards. *)
  reject "time travel"
    [ Suspended { time = 5; worker = 0; node = 1; sid = 0 };
      Launched { time = 4; worker = 0; sid = 0; members = [| 0 |] } ];
  (* Trailing trapped worker. *)
  reject "stuck worker" [ Suspended { time = 1; worker = 2; node = 9; sid = 0 } ]

let prop_traces_validate =
  QCheck.Test.make ~name:"traces of random workloads pass the validator" ~count:40
    QCheck.(triple (1 -- 10) (2 -- 40) (0 -- 10_000))
    (fun (p, size, seed) ->
      let w =
        Sim.Workload.random
          ~model:(Batched.Counter.sim_model ())
          ~records_per_node:1 ~size ~seed ()
      in
      let cfg = { (Sim.Batcher.default ~p) with Sim.Batcher.seed } in
      let _, events = Sim.Batcher.run_traced cfg w in
      match Sim.Trace.validate ~p ~batch_cap:p events with
      | Ok () -> true
      | Error _ -> false)

(* ---------- golden digest ---------- *)

(* Digests captured before Sim.Batcher learned to skip quiet windows and
   to memoize batch dags, then re-pinned once through a projection that
   dropped the always-0 batch-path tag from the recorder's Batch_start
   marshalling (the simulated schedules did not change): each covers,
   for every configuration below,
   the whole Metrics.t (counters, span_realized, batch_details), the
   traced scheduler events, and the Timesteps recorder's events and tag
   totals; the recorder-free run must return the same metrics. One
   digest per workload over P in {1, 2, 3, 8} x the four steal policies
   x the three overhead models x {paper default, launch threshold 3,
   batch cap 1, sequential batches}: 192 configurations each. *)
let golden_batcher =
  [
    ("counter", "b7480fa79bbc2f0ab2d49cbf8dd8ba9e");
    ("skiplist", "9daf12495254ad8f7a663c70a1966d93");
    ("skiplist-100", "a28372d0306748416c03b306bc69e85c");
    ("chained", "ff08a76662b69bc3d041946e80bb4c44");
    ("random", "8bb0f1f0fe8480121f26bcc4819d3b83");
    ("interleaved", "ab39d913ddf343df5c4c84c1bfae0771");
    ("sharded", "507a1260769ba99f2d773a885f28d40e");
  ]

let golden_workload = function
  | "counter" -> counter_workload ~n:24 ()
  | "skiplist" -> skiplist_workload ~initial:1000 ~n:24 ()
  | "skiplist-100" -> skiplist_workload ~initial:20_000 ~records:100 ~n:8 ()
  | "chained" ->
      Sim.Workload.chained_ops
        ~model:(Batched.Skiplist.sim_model ~initial_size:512 ())
        ~records_per_node:1 ~chain_length:4 ~width:5 ()
  | "random" ->
      Sim.Workload.random
        ~model:(Batched.Counter.sim_model ~records_per_node:2 ())
        ~records_per_node:2 ~size:24 ~seed:5 ()
  | "interleaved" ->
      Sim.Workload.interleaved_ops
        ~models:
          [ Batched.Counter.sim_model ();
            Batched.Skiplist.sim_model ~initial_size:256 ();
            Batched.Stack.sim_model () ]
        ~records_per_node:1 ~n_nodes:24 ()
  | "sharded" ->
      Sim.Workload.sharded_ops
        ~model_for:(fun _ -> Batched.Hashtable.sim_model ())
        ~shards:3 ~records_per_node:1 ~n_nodes:24 ()
  | name -> invalid_arg name

(* Events per tag, in the recorder's tag order: status, steal,
   batch_start, batch_end, op_issue, op_done, steals_suppressed, work,
   then a ninth count, always 0, where violation events were counted
   before the checkers stopped recording them. The digest hashed these
   nine counts before the recorder stopped keeping them, so the golden
   values still cover them. *)
let tag_counts events =
  let counts = Array.make 9 0 in
  List.iter
    (fun (e : Obs.Recorder.event) ->
      let k =
        match e.kind with
        | Obs.Recorder.Status _ -> 0
        | Steal _ -> 1
        | Batch_start _ -> 2
        | Batch_end _ -> 3
        | Op_issue _ -> 4
        | Op_done _ -> 5
        | Steals_suppressed _ -> 6
        | Work _ -> 7
      in
      counts.(k) <- counts.(k) + 1)
    events;
  counts

let batcher_digest w =
  let buf = Buffer.create 4096 in
  let add v =
    Buffer.add_string buf (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
  in
  let variants =
    [ Fun.id;
      (fun c -> { c with Sim.Batcher.launch_threshold = 3 });
      (fun c -> { c with Sim.Batcher.batch_cap = 1 });
      (fun c -> { c with Sim.Batcher.sequential_batches = true }) ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun steal_policy ->
          List.iter
            (fun overhead ->
              List.iter
                (fun variant ->
                  let cfg =
                    variant
                      { (Sim.Batcher.default ~p) with
                        Sim.Batcher.seed = p + 1; steal_policy; overhead }
                  in
                  let rc =
                    Obs.Recorder.create ~capacity:(1 lsl 14)
                      ~clock:Obs.Recorder.Timesteps ~workers:p ()
                  in
                  let m, events =
                    Sim.Batcher.run_traced
                      ~probe:(Obs.Probe.create ~recorder:rc ()) cfg w
                  in
                  if Sim.Batcher.run cfg w <> m then
                    Alcotest.fail "recorder-free run disagrees with the traced run";
                  add m;
                  add events;
                  if Obs.Recorder.total_dropped rc <> 0 then
                    Alcotest.fail "the recording dropped events";
                  let events = Obs.Recorder.all_events rc in
                  add events;
                  add (tag_counts events))
                variants)
            [ Sim.Batcher.Tree_setup; Sim.Batcher.Fused_setup; Sim.Batcher.No_setup ])
        [ Sim.Batcher.Alternating; Sim.Batcher.Core_only; Sim.Batcher.Batch_only;
          Sim.Batcher.Uniform_random ])
    [ 1; 2; 3; 8 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_batcher_golden_digest () =
  Alcotest.(check (list (pair string string)))
    "per-workload digests" golden_batcher
    (List.map
       (fun (name, _) -> (name, batcher_digest (golden_workload name)))
       golden_batcher)

(* The Figure-5 cell the benchmark times: 1,000 nodes of 100 inserts
   into a 1M-key skip list at P = 8, seeds 1-3, with no recorder. The
   golden digest above covers recorder-free runs only on workloads of
   at most 24 nodes, and the printed Figure 5 rounds to 4 decimals. The
   digest of the three Metrics.t was captured before Sim.Batcher packed
   tasks into ints and skipped the draws of quiet steal attempts; the
   run takes ~0.1 s. *)
let test_batcher_fig5_cell () =
  let w = skiplist_workload ~initial:1_000_000 ~records:100 ~n:1000 () in
  let ms = List.map (fun seed -> run_batcher ~p:8 ~seed w) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "makespans" [ 491_504; 491_552; 491_697 ]
    (List.map (fun m -> m.Sim.Metrics.makespan) ms);
  Alcotest.(check string) "metrics digest" "1709783937ffbe193cb1ea51656dc011"
    (Digest.to_hex
       (Digest.string
          (String.concat ""
             (List.map (fun m -> Marshal.to_string m [ Marshal.No_sharing ]) ms))))

(* Minor words per timestep of a recorder-free run on a small Figure-5
   cell: 100 nodes of 100 inserts into a 20K-key skip list at P = 8.
   Measured at 1.007, all of it per launch (22.8 when every step
   allocated its task records, option cells and closures). The pin
   allows 0.5 more, which one 2-word block every other step would
   overrun. Every figure is deterministic, so the count repeats
   exactly. *)
let test_batcher_words_per_step () =
  let w = skiplist_workload ~initial:20_000 ~records:100 ~n:100 () in
  let cfg = { (Sim.Batcher.default ~p:8) with Sim.Batcher.seed = 1 } in
  ignore (Sim.Batcher.run cfg w);
  let before = Gc.minor_words () in
  let m = Sim.Batcher.run cfg w in
  let per_step = (Gc.minor_words () -. before) /. float_of_int m.Sim.Metrics.makespan in
  if per_step > 1.5 then
    Alcotest.failf "Batcher.run: %.3f minor words per step (pin 1.5)" per_step

(* ---------- flat combining ---------- *)

let test_flatcomb_completes () =
  let w = skiplist_workload ~initial:1000 ~n:60 () in
  let m = Sim.Flatcomb.run ~p:4 w in
  Alcotest.(check int) "ops all batched" 60 m.Sim.Metrics.batch_size_total

let test_flatcomb_no_batch_speedup () =
  (* Sequential batches: with most work inside the structure, adding
     workers should not help much, unlike BATCHER. *)
  let mk () = skiplist_workload ~initial:100_000 ~records:10 ~n:100 () in
  let fc1 = Sim.Flatcomb.run ~p:1 (mk ()) in
  let fc8 = Sim.Flatcomb.run ~p:8 (mk ()) in
  let fc_speedup = Sim.Metrics.speedup ~baseline:fc1 fc8 in
  let b1 = run_batcher ~p:1 (mk ()) in
  let b8 = run_batcher ~p:8 (mk ()) in
  let b_speedup = Sim.Metrics.speedup ~baseline:b1 b8 in
  Alcotest.(check bool)
    (Printf.sprintf "batcher %.2f beats flat combining %.2f at p=8" b_speedup fc_speedup)
    true (b_speedup > fc_speedup)

(* ---------- sequential + lock baselines ---------- *)

let test_seqexec_counter_exact () =
  let w = counter_workload ~n:25 () in
  let m = Sim.Seqexec.run w in
  Alcotest.(check int) "makespan = T1 + n"
    (Dag.work w.Sim.Workload.core + 25)
    m.Sim.Metrics.makespan

let test_lockconc_serializes () =
  let w = counter_workload ~n:100 () in
  let m = Sim.Lockconc.run (Sim.Lockconc.default ~p:8) w in
  (* Mutual exclusion: at least one timestep per operation. *)
  Alcotest.(check bool) "Omega(n)" true (m.Sim.Metrics.makespan >= 100);
  Alcotest.(check int) "service work" 100 m.Sim.Metrics.batch_work

let test_lockconc_completes_chains () =
  let w =
    Sim.Workload.chained_ops
      ~model:(Batched.Counter.sim_model ())
      ~records_per_node:1 ~chain_length:5 ~width:6 ()
  in
  let m = Sim.Lockconc.run (Sim.Lockconc.default ~p:4) w in
  Alcotest.(check int) "service work = n" 30 m.Sim.Metrics.batch_work

(* ---------- fuzzing ---------- *)

let prop_batcher_fuzz =
  QCheck.Test.make ~name:"batcher: invariants + conservation on random shapes"
    ~count:60
    QCheck.(quad (1 -- 8) (1 -- 60) (1 -- 4) (0 -- 1000))
    (fun (p, n, records, seed) ->
      let w = counter_workload ~records ~n () in
      let cfg = { (Sim.Batcher.default ~p) with Sim.Batcher.seed } in
      let m = Sim.Batcher.run cfg w in
      m.Sim.Metrics.batch_size_total = n
      && m.Sim.Metrics.max_batch_size <= p
      && m.Sim.Metrics.max_batches_while_pending <= 2
      && m.Sim.Metrics.core_work = Dag.work w.Sim.Workload.core)

let prop_batcher_fuzz_chains =
  QCheck.Test.make ~name:"batcher: random chained workloads complete" ~count:40
    QCheck.(quad (1 -- 8) (1 -- 8) (1 -- 8) (0 -- 1000))
    (fun (p, chain, width, seed) ->
      let w =
        Sim.Workload.chained_ops
          ~model:(Batched.Skiplist.sim_model ~initial_size:256 ())
          ~records_per_node:1 ~chain_length:chain ~width ()
      in
      let cfg = { (Sim.Batcher.default ~p) with Sim.Batcher.seed } in
      let m = Sim.Batcher.run cfg w in
      m.Sim.Metrics.batch_size_total = chain * width
      && m.Sim.Metrics.max_batches_while_pending <= 2)

let prop_batcher_fuzz_ablations =
  QCheck.Test.make ~name:"batcher: ablated configs still complete" ~count:40
    QCheck.(
      quad (2 -- 8) (1 -- 40)
        (oneofl
           [ Sim.Batcher.Alternating; Sim.Batcher.Core_only; Sim.Batcher.Batch_only;
             Sim.Batcher.Uniform_random ])
        (pair (1 -- 8) (1 -- 4)))
    (fun (p, n, policy, (threshold, cap)) ->
      let w = counter_workload ~n () in
      let cfg =
        {
          (Sim.Batcher.default ~p) with
          Sim.Batcher.steal_policy = policy;
          launch_threshold = threshold;
          batch_cap = min cap p;
        }
      in
      let m = Sim.Batcher.run cfg w in
      m.Sim.Metrics.batch_size_total = n)

let prop_batcher_fuzz_random_shapes =
  QCheck.Test.make ~name:"batcher: random series-parallel workloads" ~count:60
    QCheck.(triple (1 -- 12) (2 -- 50) (0 -- 10_000))
    (fun (p, size, seed) ->
      let w =
        Sim.Workload.random
          ~model:(Batched.Skiplist.sim_model ~initial_size:512 ())
          ~records_per_node:1 ~size ~seed ()
      in
      let t1, tinf, n, _m = Sim.Workload.core_metrics w in
      let cfg = { (Sim.Batcher.default ~p) with Sim.Batcher.seed } in
      let m = Sim.Batcher.run cfg w in
      (* Conservation + invariants + elementary lower bounds. *)
      m.Sim.Metrics.batch_size_total = n
      && m.Sim.Metrics.core_work = t1
      && m.Sim.Metrics.max_batch_size <= p
      && m.Sim.Metrics.max_batches_while_pending <= 2
      && m.Sim.Metrics.makespan >= tinf
      && p * m.Sim.Metrics.makespan
         >= m.Sim.Metrics.core_work + m.Sim.Metrics.batch_work + m.Sim.Metrics.setup_work)

let prop_seq_vs_batcher_work =
  QCheck.Test.make ~name:"batcher never beats the greedy work lower bound" ~count:40
    QCheck.(pair (1 -- 8) (1 -- 40))
    (fun (p, n) ->
      let w = counter_workload ~n () in
      let m = run_batcher ~p w in
      (* Total useful work over p workers bounds the makespan below. *)
      m.Sim.Metrics.makespan * p >= Dag.work w.Sim.Workload.core)

let prop_multi_structure_traces_validate =
  QCheck.Test.make ~name:"multi-structure traces pass the validator" ~count:30
    QCheck.(triple (2 -- 8) (10 -- 60) (0 -- 10_000))
    (fun (p, n, seed) ->
      let w =
        Sim.Workload.interleaved_ops
          ~models:
            [ Batched.Counter.sim_model ();
              Batched.Skiplist.sim_model ~initial_size:256 ();
              Batched.Stack.sim_model () ]
          ~records_per_node:1 ~n_nodes:n ()
      in
      let cfg = { (Sim.Batcher.default ~p) with Sim.Batcher.seed } in
      let m, events = Sim.Batcher.run_traced cfg w in
      m.Sim.Metrics.batch_size_total = n
      && (match Sim.Trace.validate ~p ~batch_cap:p events with
         | Ok () -> true
         | Error _ -> false))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_deque_model; prop_batcher_fuzz; prop_batcher_fuzz_chains;
      prop_batcher_fuzz_ablations; prop_batcher_fuzz_random_shapes;
      prop_seq_vs_batcher_work; prop_traces_validate;
      prop_multi_structure_traces_validate ]

let () =
  Alcotest.run "sim"
    [
      ( "ws",
        [
          Alcotest.test_case "single worker exact" `Quick test_ws_single_worker_exact;
          Alcotest.test_case "speedup" `Quick test_ws_speedup;
          Alcotest.test_case "greedy bound" `Quick test_ws_greedy_bound;
          Alcotest.test_case "work conservation" `Quick test_ws_work_conservation;
          Alcotest.test_case "deterministic" `Quick test_ws_deterministic;
        ] );
      ( "deque",
        [
          Alcotest.test_case "fifo lifo" `Quick test_deque_fifo_lifo;
          Alcotest.test_case "empty" `Quick test_deque_empty;
          Alcotest.test_case "growth" `Quick test_deque_growth;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "completes counter" `Quick test_batcher_completes_counter;
          Alcotest.test_case "core work conservation" `Quick
            test_batcher_core_work_conservation;
          Alcotest.test_case "single worker" `Quick test_batcher_single_worker;
          Alcotest.test_case "Invariant 2 (batch cap)" `Quick
            test_batcher_batch_cap_invariant2;
          Alcotest.test_case "Lemma 2 (trapped <= 2 batches)" `Quick test_batcher_lemma2;
          Alcotest.test_case "deterministic" `Quick test_batcher_deterministic;
          Alcotest.test_case "model reset between runs" `Quick
            test_batcher_model_reset_between_runs;
          Alcotest.test_case "speedup on skiplist" `Quick test_batcher_speedup_on_skiplist;
          Alcotest.test_case "chained ops m" `Quick test_batcher_chained_ops_m;
          Alcotest.test_case "batch count sanity" `Quick test_batcher_trapped_le_batches;
          Alcotest.test_case "two structures" `Quick test_batcher_multi_structure;
          Alcotest.test_case "three structures" `Quick test_batcher_multi_structure_three;
          Alcotest.test_case "golden digest" `Quick test_batcher_golden_digest;
          Alcotest.test_case "Figure-5 cell digest" `Quick test_batcher_fig5_cell;
          Alcotest.test_case "minor words per step" `Quick test_batcher_words_per_step;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "steal policies" `Quick test_batcher_steal_policies_complete;
          Alcotest.test_case "launch threshold" `Quick test_batcher_launch_threshold;
          Alcotest.test_case "small cap" `Quick test_batcher_small_cap;
        ] );
      ( "trace",
        [
          Alcotest.test_case "counter trace valid" `Quick test_trace_counter;
          Alcotest.test_case "chained trace valid" `Quick test_trace_skiplist_chains;
          Alcotest.test_case "multi-structure trace valid" `Quick test_trace_multi_structure;
          Alcotest.test_case "validator rejects bad traces" `Quick
            test_trace_validator_rejects_bad_traces;
        ] );
      ( "flatcomb",
        [
          Alcotest.test_case "completes" `Quick test_flatcomb_completes;
          Alcotest.test_case "no batch speedup" `Quick test_flatcomb_no_batch_speedup;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "seqexec exact" `Quick test_seqexec_counter_exact;
          Alcotest.test_case "lockconc serializes" `Quick test_lockconc_serializes;
          Alcotest.test_case "lockconc chains" `Quick test_lockconc_completes_chains;
        ] );
      ("properties", qcheck_cases);
    ]
