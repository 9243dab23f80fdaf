(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (per DESIGN.md's experiment index) and runs Bechamel
   micro-benchmarks of the underlying kernels — one Test.make per
   experiment id. Alongside the printed tables it writes a stable
   machine-readable BENCH_results.json (schema in EXPERIMENTS.md) with
   one record per experiment id, numbers identical to the tables.

   Environment:
     QUICK=1   reduce simulation scales (CI-friendly)
     ONLY=E1   run a single experiment id, case-insensitive
               (E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 A1 A2 A3 A4 A5 ATTRIB MICRO)
     OUT=path  where to write the JSON results (default BENCH_results.json)
*)

let quick = Sys.getenv_opt "QUICK" <> None
let only = Sys.getenv_opt "ONLY"
let out_path =
  match Sys.getenv_opt "OUT" with Some p -> p | None -> "BENCH_results.json"

let want id =
  match only with
  | None -> true
  | Some o -> String.uppercase_ascii o = String.uppercase_ascii id

let fmt = Format.std_formatter

let section title =
  Format.fprintf fmt "@.==============================================================================@.";
  Format.fprintf fmt "%s@." title;
  Format.fprintf fmt "==============================================================================@."

(* JSON records accumulate in run order; flushed to [out_path] at exit. *)
let records : (string * string * Obs.Json.t) list ref = ref []
let record id title json = records := (id, title, json) :: !records

(* ---------- the tables ---------- *)

let fig5_params () =
  if quick then
    (* Keep the paper's full five-point size sweep so the table shape
       matches the non-quick run; shrink the per-point work instead. *)
    Batcher_core.Experiments.fig5 ~n_records:4_000 ~records_per_node:100 ()
  else Batcher_core.Experiments.fig5 ()

let run_tables () =
  let module E = Batcher_core.Experiments in
  let module R = Batcher_core.Report in
  let module J = Batcher_core.Report_json in
  if want "E1" then begin
    let title = "E1 — Figure 5: BATCHER vs sequential skip list" in
    section title;
    let rows = fig5_params () in
    R.fig5 fmt rows;
    record "E1" title (J.fig5 rows)
  end;
  if want "E2" then begin
    let title = "E2 — Flat combining comparison (Section 7 discussion)" in
    section title;
    let rows = if quick then E.flatcomb ~n_records:10_000 () else E.flatcomb () in
    R.flatcomb fmt rows;
    record "E2" title (J.flatcomb rows)
  end;
  if want "E3" then begin
    let title = "E3 — Batched counter vs lock-serialized counter (Section 3)" in
    section title;
    let rows = if quick then E.counter_example ~n:4_000 () else E.counter_example () in
    R.example ~name:"E3 counter" fmt rows;
    record "E3" title (J.example rows)
  end;
  if want "E4" then begin
    let title = "E4 — Batched 2-3 tree (Section 3 search-tree example)" in
    section title;
    let rows = if quick then E.tree_example ~n:1_000 () else E.tree_example () in
    R.example ~name:"E4 search tree" fmt rows;
    record "E4" title (J.example rows)
  end;
  if want "E5" then begin
    let title = "E5 — Amortized LIFO stack (Section 3 table-doubling example)" in
    section title;
    let rows = if quick then E.stack_example ~n:4_000 () else E.stack_example () in
    R.example ~name:"E5 stack" fmt rows;
    record "E5" title (J.example rows)
  end;
  if want "E6" then begin
    let title = "E6 — Theorem 1 validation sweep" in
    section title;
    let rows = E.theory_table () in
    R.theory fmt rows;
    record "E6" title (J.theory rows)
  end;
  if want "E8" then begin
    let title = "E8 — Theorem 3 validation (τ-trimmed span)" in
    section title;
    let rows = E.theorem3 () in
    R.theorem3 fmt rows;
    record "E8" title (J.theorem3 rows)
  end;
  if want "E7" then begin
    let title = "E7 — Lemma 2: batches executing while an op is pending" in
    section title;
    let rows = E.lemma2 () in
    R.lemma2 fmt rows;
    record "E7" title (J.lemma2 rows)
  end;
  if want "A1" then begin
    let title = "A1 — Ablation: steal policy" in
    section title;
    let rows = E.ablate_steal () in
    R.ablation ~name:"A1 steal policy" fmt rows;
    record "A1" title (J.ablation rows)
  end;
  if want "A2" then begin
    let title = "A2 — Ablation: launch threshold (immediate vs accumulate-k)" in
    section title;
    let rows = E.ablate_launch () in
    R.ablation ~name:"A2 launch threshold" fmt rows;
    record "A2" title (J.ablation rows)
  end;
  if want "A4" then begin
    let title = "A4 — Ablation: LAUNCHBATCH overhead model (paper's open question)" in
    section title;
    let rows = E.ablate_overhead () in
    R.ablation ~name:"A4 overhead model" fmt rows;
    record "A4" title (J.ablation rows)
  end;
  if want "E9" then begin
    let title = "E9 — Pthreaded programs (paper's conclusion)" in
    section title;
    let rows = E.pthreaded () in
    R.pthreaded fmt rows;
    record "E9" title (J.pthreaded rows)
  end;
  if want "E10" then begin
    let title = "E10 — Multiple implicitly batched structures in one program" in
    section title;
    let rows = E.multi_structure () in
    R.multi fmt rows;
    record "E10" title (J.multi rows)
  end;
  if want "A5" then begin
    let title = "A5 — Ablation: batching granularity (records per BATCHIFY)" in
    section title;
    let rows = E.ablate_granularity () in
    R.granularity fmt rows;
    record "A5" title (J.granularity rows)
  end;
  if want "A3" then begin
    let title = "A3 — Ablation: batch-size cap" in
    section title;
    let rows = E.ablate_cap () in
    R.ablation ~name:"A3 batch cap" fmt rows;
    record "A3" title (J.ablation rows)
  end

(* ---------- ATTRIB: Theorem-1 bucket decomposition ---------- *)

(* Recorded simulator runs read out by Obs.Summary: one row per
   (workload, P) with every bound bucket as its own JSON field, so
   bench_diff can flag a regression in a single bucket (say, wait time
   growing while the makespan hides it behind shrinking idle). The
   conservation invariant (buckets sum to P x makespan) is asserted
   here too — a violation means the recorder or the attribution folder
   miscounted, and the numbers below it would be garbage. *)

let attrib_workloads () =
  let n = if quick then 60 else 200 in
  let initial = if quick then 10_000 else 100_000 in
  [
    ( "fig5",
      n,
      fun () ->
        Sim.Workload.parallel_ops
          ~model:
            (Batched.Skiplist.sim_model ~initial_size:initial
               ~records_per_node:100 ())
          ~records_per_node:100 ~n_nodes:n () );
    ( "counter",
      n,
      fun () ->
        Sim.Workload.parallel_ops
          ~model:(Batched.Counter.sim_model ())
          ~records_per_node:1 ~n_nodes:n () );
    ( "multi",
      n,
      fun () ->
        Sim.Workload.interleaved_ops
          ~models:
            [
              Batched.Counter.sim_model ();
              Batched.Skiplist.sim_model ~initial_size:initial
                ~records_per_node:10 ();
            ]
          ~records_per_node:10 ~n_nodes:n () );
  ]

let attrib_row ~name ~p ~n workload =
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Timesteps ~workers:p () in
  let m =
    Sim.Batcher.run ~probe:(Obs.Probe.create ~recorder:rc ())
      (Sim.Batcher.default ~p) workload
  in
  let s = Obs.Summary.of_recorder rc in
  (match Obs.Summary.check ~expected:(p * m.Sim.Metrics.makespan) s with
  | Ok () -> ()
  | Error e ->
      failwith (Printf.sprintf "ATTRIB conservation (%s p=%d): %s" name p e));
  (name, p, n, m, s.Obs.Summary.total)

let run_attrib () =
  let title = "ATTRIB — Theorem-1 bucket decomposition (sim, per workload x P)"
  in
  section title;
  let ps = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let rows =
    List.concat_map
      (fun (name, n, mk) ->
        List.map (fun p -> attrib_row ~name ~p ~n (mk ())) ps)
      (attrib_workloads ())
  in
  Format.fprintf fmt "%-8s %3s %6s %9s %9s %9s %9s %9s %9s %9s %6s@."
    "workload" "P" "n" "makespan" "core" "batch" "setup" "sched" "idle" "wait"
    "span";
  List.iter
    (fun (name, p, n, (m : Sim.Metrics.t), (b : Obs.Summary.buckets)) ->
      Format.fprintf fmt "%-8s %3d %6d %9d %9d %9d %9d %9d %9d %9d %6d@." name
        p n m.Sim.Metrics.makespan b.core b.batch b.setup b.sched b.idle b.wait
        m.Sim.Metrics.span_realized)
    rows;
  record "ATTRIB" title
    (Obs.Json.List
       (List.map
          (fun (name, p, n, (m : Sim.Metrics.t), (b : Obs.Summary.buckets)) ->
            Obs.Json.Obj
              [
                ("workload", Obs.Json.Str name);
                ("p", Obs.Json.Int p);
                ("n", Obs.Json.Int n);
                ("makespan", Obs.Json.Int m.Sim.Metrics.makespan);
                ("span_realized", Obs.Json.Int m.Sim.Metrics.span_realized);
                ("attrib_core", Obs.Json.Int b.core);
                ("attrib_batch", Obs.Json.Int b.batch);
                ("attrib_setup", Obs.Json.Int b.setup);
                ("attrib_sched", Obs.Json.Int b.sched);
                ("attrib_idle", Obs.Json.Int b.idle);
                ("attrib_wait", Obs.Json.Int b.wait);
              ])
          rows))

(* ---------- Bechamel micro-benchmarks ---------- *)

(* One Test.make per experiment id: the kernel whose wall-clock cost
   dominates regenerating that table. *)

let sim_kernel ~initial ~p () =
  let w =
    Sim.Workload.parallel_ops
      ~model:(Batched.Skiplist.sim_model ~initial_size:initial ~records_per_node:10 ())
      ~records_per_node:10 ~n_nodes:100 ()
  in
  ignore (Sim.Batcher.run (Sim.Batcher.default ~p) w)

let bechamel_tests () =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    t "E1:sim-batcher-skiplist-p8" (sim_kernel ~initial:1_000_000 ~p:8);
    t "E2:sim-flatcomb-skiplist-p8" (fun () ->
        let w =
          Sim.Workload.parallel_ops
            ~model:(Batched.Skiplist.sim_model ~initial_size:1_000_000 ~records_per_node:10 ())
            ~records_per_node:10 ~n_nodes:100 ()
        in
        ignore (Sim.Flatcomb.run ~p:8 w));
    t "E3:sim-counter-p8" (fun () ->
        let w =
          Sim.Workload.parallel_ops
            ~model:(Batched.Counter.sim_model ())
            ~records_per_node:1 ~n_nodes:1000 ()
        in
        ignore (Sim.Batcher.run (Sim.Batcher.default ~p:8) w));
    t "E4:two-three-batch-insert-1k" (fun () ->
        let ops = Array.init 1000 (fun i -> Batched.Two_three.insert_op ((i * 37) mod 4096)) in
        ignore (Batched.Two_three.run_batch Batched.Two_three.empty ops));
    t "E5:stack-batch-64k-pushes" (fun () ->
        let s = Batched.Stack.create () in
        Batched.Stack.run_batch s (Array.init 65_536 (fun i -> Batched.Stack.push i)));
    t "E6:dag-lower-balanced-4096" (fun () ->
        let b = Dag.Build.create () in
        let f = Dag.Build.of_par b (Par.balanced ~leaf_cost:(fun _ -> 1) 4096) in
        ignore (Dag.Build.finish b f));
    t "E7:skiplist-seq-insert-1k" (fun () ->
        let s = Batched.Skiplist.create () in
        for i = 0 to 999 do
          ignore (Batched.Skiplist.insert_seq s i)
        done);
    t "A1:sim-batcher-core-only-steals" (fun () ->
        let w =
          Sim.Workload.parallel_ops
            ~model:(Batched.Counter.sim_model ())
            ~records_per_node:1 ~n_nodes:500 ()
        in
        ignore
          (Sim.Batcher.run
             { (Sim.Batcher.default ~p:8) with Sim.Batcher.steal_policy = Sim.Batcher.Core_only }
             w));
    t "A2:sim-batcher-threshold-p" (fun () ->
        let w =
          Sim.Workload.parallel_ops
            ~model:(Batched.Counter.sim_model ())
            ~records_per_node:1 ~n_nodes:500 ()
        in
        ignore
          (Sim.Batcher.run
             { (Sim.Batcher.default ~p:8) with Sim.Batcher.launch_threshold = 8 }
             w));
    t "A3:sim-batcher-cap-1" (fun () ->
        let w =
          Sim.Workload.parallel_ops
            ~model:(Batched.Counter.sim_model ())
            ~records_per_node:1 ~n_nodes:500 ()
        in
        ignore
          (Sim.Batcher.run { (Sim.Batcher.default ~p:8) with Sim.Batcher.batch_cap = 1 } w));
  ]

(* Real-runtime wall-clock micro-benchmarks (R1). The pool is reused
   across iterations; worker count stays small for few-core machines. *)
let real_runtime_tests pool =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    t "R1:real-batcher-counter-1k-increments" (fun () ->
        let counter = Batched.Counter.create () in
        let b =
          Runtime.Batcher_rt.create ~pool ~state:counter
            ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
            ()
        in
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:1000 (fun _ ->
                Runtime.Batcher_rt.batchify b (Batched.Counter.op 1))));
    t "R1:real-pool-parallel-for-100k" (fun () ->
        let acc = Array.make 256 0 in
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~lo:0 ~hi:100_000 (fun i ->
                let s = i land 255 in
                acc.(s) <- acc.(s) + 1)));
    t "R1:real-prefix-sums-100k" (fun () ->
        let a = Array.init 100_000 (fun i -> i land 7) in
        Runtime.Pool.run pool (fun () ->
            ignore (Runtime.Pool.parallel_prefix_sums pool a)));
  ]

(* Runs the tests and returns sorted (name, ns/run) estimate rows. *)
let run_bechamel tests =
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"bench" ~fmt:"%s %s" tests)
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
  | None -> []
  | Some tbl ->
      Hashtbl.fold
        (fun name ols acc ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> e
            | _ -> nan
          in
          (name, est) :: acc)
        tbl []
      |> List.sort compare

let print_bechamel rows =
  Format.fprintf fmt "@.%-45s %16s@." "benchmark" "ns/run";
  Format.fprintf fmt "%s@." (String.make 62 '-');
  if rows = [] then Format.fprintf fmt "(no results)@."
  else
    List.iter
      (fun (name, est) -> Format.fprintf fmt "%-45s %16.1f@." name est)
      rows

let () =
  run_tables ();
  if want "ATTRIB" then run_attrib ();
  if want "MICRO" then begin
    let title =
      "MICRO — Bechamel kernels (one per experiment id) + real runtime (R1)"
    in
    section title;
    let workers = if quick then 2 else 4 in
    let pool = Runtime.Pool.create ~num_workers:workers () in
    let rows = run_bechamel (bechamel_tests () @ real_runtime_tests pool) in
    Runtime.Pool.teardown pool;
    print_bechamel rows;
    record "MICRO" title (Batcher_core.Report_json.micro rows)
  end;
  let json =
    Batcher_core.Report_json.results_file ~quick ~only
      (List.rev !records)
  in
  Batcher_core.Report_json.write_file ~path:out_path json;
  Format.fprintf fmt "@.[bench] wrote %s (%d experiment record%s)@." out_path
    (List.length !records)
    (if List.length !records = 1 then "" else "s");
  Format.pp_print_flush fmt ()
