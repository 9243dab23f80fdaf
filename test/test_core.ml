(* Tests for the core library: theory bounds and experiment drivers
   (run at reduced scale — the full-scale runs live in bench/). *)

let test_log2i () =
  Alcotest.(check int) "log2 8" 3 (Batcher_core.Theory.log2i 8);
  Alcotest.(check int) "log2 9" 4 (Batcher_core.Theory.log2i 9);
  Alcotest.(check int) "log2 1" 1 (Batcher_core.Theory.log2i 1)

let test_ws_bound () =
  Alcotest.(check int) "bound" 125 (Batcher_core.Theory.ws_bound ~p:4 ~t1:400 ~t_inf:25)

let test_batcher_bound_formula () =
  (* (T1 + W + n s)/P + m s + T_inf *)
  let b =
    Batcher_core.Theory.batcher_bound ~p:4 ~t1:1000 ~t_inf:10 ~n:100 ~m:5 ~w:600 ~s:4
  in
  Alcotest.(check int) "formula" (((1000 + 600 + 400) / 4) + 20 + 10) b

let test_bound_monotone_in_p () =
  let bound p =
    Batcher_core.Theory.batcher_bound ~p ~t1:100_000 ~t_inf:10 ~n:1000 ~m:1 ~w:50_000 ~s:6
  in
  Alcotest.(check bool) "p=8 <= p=1" true (bound 8 <= bound 1);
  Alcotest.(check bool) "p=4 <= p=2" true (bound 4 <= bound 2)

let test_examples_scale () =
  let c = Batcher_core.Theory.counter_example ~records_per_node:1 in
  Alcotest.(check bool) "counter W linear" true (c.Batcher_core.Theory.w ~n:1000 < 10_000);
  let t = Batcher_core.Theory.search_tree_example ~initial:1024 ~records_per_node:1 in
  Alcotest.(check bool) "tree W superlinear" true
    (t.Batcher_core.Theory.w ~n:1000 > c.Batcher_core.Theory.w ~n:1000)

(* Experiment drivers at small scale: structural checks on the rows. *)

let small_ps = [ 1; 2; 4 ]

let test_fig5_small () =
  let rows =
    Batcher_core.Experiments.fig5 ~n_records:2000 ~records_per_node:20 ~ps:small_ps
      ~sizes:[ 1000; 100_000 ] ()
  in
  Alcotest.(check int) "two sizes" 2 (List.length rows);
  List.iter
    (fun (r : Batcher_core.Experiments.fig5_row) ->
      Alcotest.(check int) "three P points" 3 (List.length r.Batcher_core.Experiments.batcher);
      Alcotest.(check bool) "positive seq throughput" true
        (r.Batcher_core.Experiments.seq_throughput > 0.0);
      List.iter
        (fun (_, tp, std) ->
          Alcotest.(check bool) "positive throughput" true (tp > 0.0);
          Alcotest.(check bool) "stddev small" true (std < tp))
        r.Batcher_core.Experiments.batcher)
    rows

let test_fig5_speedup_shape () =
  (* The paper's headline shape: for a large list, BATCHER at p=8 beats
     BATCHER at p=1 clearly. *)
  let rows =
    Batcher_core.Experiments.fig5 ~n_records:5000 ~records_per_node:50 ~ps:[ 1; 8 ]
      ~sizes:[ 10_000_000 ] ()
  in
  match rows with
  | [ r ] -> begin
      match r.Batcher_core.Experiments.batcher with
      | [ (1, tp1, _); (8, tp8, _) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "tp8 %.4f > 2 * tp1 %.4f" tp8 tp1)
            true (tp8 > 2.0 *. tp1)
      | _ -> Alcotest.fail "unexpected shape"
    end
  | _ -> Alcotest.fail "expected one row"

let test_flatcomb_small () =
  let rows =
    Batcher_core.Experiments.flatcomb ~initial:100_000 ~n_records:2000
      ~records_per_node:20 ~ps:small_ps ()
  in
  Alcotest.(check int) "rows" 3 (List.length rows);
  List.iter
    (fun (r : Batcher_core.Experiments.flatcomb_row) ->
      Alcotest.(check bool) "throughputs positive" true
        (r.Batcher_core.Experiments.batcher_tp > 0.0
        && r.Batcher_core.Experiments.flatcomb_tp > 0.0))
    rows

let test_counter_example_rows () =
  let rows = Batcher_core.Experiments.counter_example ~n:2000 ~ps:small_ps () in
  List.iter
    (fun (r : Batcher_core.Experiments.example_row) ->
      Alcotest.(check bool) "lock at least Omega(n)" true
        (r.Batcher_core.Experiments.lock_makespan >= 2000);
      Alcotest.(check bool) "bound ratio sane" true
        (r.Batcher_core.Experiments.bound_ratio > 0.0
        && r.Batcher_core.Experiments.bound_ratio < 16.0))
    rows

let test_tree_example_rows () =
  let rows = Batcher_core.Experiments.tree_example ~initial:4096 ~n:800 ~ps:small_ps () in
  List.iter
    (fun (r : Batcher_core.Experiments.example_row) ->
      Alcotest.(check bool) "bound ratio sane" true
        (r.Batcher_core.Experiments.bound_ratio > 0.0
        && r.Batcher_core.Experiments.bound_ratio < 16.0))
    rows

let test_stack_example_rows () =
  let rows = Batcher_core.Experiments.stack_example ~n:2000 ~ps:small_ps () in
  List.iter
    (fun (r : Batcher_core.Experiments.example_row) ->
      Alcotest.(check bool) "bound ratio sane" true
        (r.Batcher_core.Experiments.bound_ratio > 0.0
        && r.Batcher_core.Experiments.bound_ratio < 16.0))
    rows

let test_theorem3_rows () =
  let rows = Batcher_core.Experiments.theorem3 () in
  Alcotest.(check bool) "nonempty" true (rows <> []);
  List.iter
    (fun (r : Batcher_core.Experiments.tau_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "p=%d tau=%d ratio %.3f bounded" r.Batcher_core.Experiments.t3_p
           r.Batcher_core.Experiments.t3_tau r.Batcher_core.Experiments.t3_ratio)
        true
        (r.Batcher_core.Experiments.t3_ratio > 0.0
        && r.Batcher_core.Experiments.t3_ratio < 8.0);
      (* Trimmed span only counts long batches, so it shrinks as tau grows. *)
      Alcotest.(check bool) "trimmed span nonnegative" true
        (r.Batcher_core.Experiments.t3_trimmed_span >= 0))
    rows;
  (* Monotonicity of S_tau in tau, per P. *)
  let by_p = Hashtbl.create 8 in
  List.iter
    (fun (r : Batcher_core.Experiments.tau_row) ->
      let prev = Hashtbl.find_opt by_p r.Batcher_core.Experiments.t3_p in
      (match prev with
      | Some (last_tau, last_s) ->
          if r.Batcher_core.Experiments.t3_tau >= last_tau then
            Alcotest.(check bool) "S_tau monotone nonincreasing" true
              (r.Batcher_core.Experiments.t3_trimmed_span <= last_s)
      | None -> ());
      Hashtbl.replace by_p r.Batcher_core.Experiments.t3_p
        (r.Batcher_core.Experiments.t3_tau, r.Batcher_core.Experiments.t3_trimmed_span))
    rows

let test_lemma2_rows () =
  let rows = Batcher_core.Experiments.lemma2 () in
  List.iter
    (fun (r : Batcher_core.Experiments.lemma2_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s p=%d: %d <= 2" r.Batcher_core.Experiments.l2_workload
           r.Batcher_core.Experiments.l2_p
           r.Batcher_core.Experiments.max_trapped_batches)
        true
        (r.Batcher_core.Experiments.max_trapped_batches <= 2))
    rows

let test_granularity_rows () =
  let rows =
    Batcher_core.Experiments.ablate_granularity ~initial:100_000 ~n_records:4000 ()
  in
  Alcotest.(check bool) "rows" true (List.length rows = 12);
  (* At p=8, more records per call must not hurt throughput much:
     the 100-records point beats the 1-record point clearly. *)
  let tp records p =
    List.find_map
      (fun (r : Batcher_core.Experiments.granularity_row) ->
        if r.Batcher_core.Experiments.g_records_per_node = records
           && r.Batcher_core.Experiments.g_p = p
        then Some r.Batcher_core.Experiments.g_throughput
        else None)
      rows
  in
  match tp 100 8, tp 1 8 with
  | Some coarse, Some fine ->
      Alcotest.(check bool)
        (Printf.sprintf "coarse %.4f > fine %.4f" coarse fine)
        true (coarse > fine)
  | _ -> Alcotest.fail "missing rows"

let test_ablation_rows () =
  let steal = Batcher_core.Experiments.ablate_steal () in
  Alcotest.(check int) "steal variants x ps" 12 (List.length steal);
  let launch = Batcher_core.Experiments.ablate_launch () in
  Alcotest.(check bool) "launch rows" true (List.length launch > 0);
  let cap = Batcher_core.Experiments.ablate_cap () in
  List.iter
    (fun (r : Batcher_core.Experiments.ablation_row) ->
      Alcotest.(check bool) "completed" true (r.Batcher_core.Experiments.ab_makespan > 0))
    (steal @ launch @ cap)

(* The Figure-5 cell with a recorder on BAT's pool: the recording tiles
   each worker's span, loses no event, and the cell still agrees with
   SEQ. *)
let test_fig5_rt_recorded () =
  let p = 2 in
  let recorder =
    Obs.Recorder.create ~clock:Obs.Recorder.Nanoseconds ~workers:p ()
  in
  let r =
    Batcher_core.Experiments.fig5_rt_cell
      ~probe:(Obs.Probe.create ~recorder ())
      ~initial:2000 ~records:2000 ~p ()
  in
  Alcotest.(check bool) "agrees with SEQ" true r.Batcher_core.Experiments.agree;
  Alcotest.(check int) "no event dropped" 0 (Obs.Recorder.total_dropped recorder);
  let s = Obs.Summary.of_recorder recorder in
  match Obs.Summary.check s with Ok () -> () | Error e -> Alcotest.fail e

(* Each structure's runtime leg applies exactly the records its sim
   workload carries: nodes per structure times records per node. *)
let test_closed_legs_agree () =
  List.iter
    (fun (name, spec) ->
      let w = Batcher_core.Experiments.closed_sim spec in
      let carried =
        Array.map
          (fun n -> n * w.Sim.Workload.records_per_node)
          (Sim.Workload.per_structure_nodes w)
      in
      let applied, _ = Batcher_core.Experiments.closed_rt ~p:2 spec in
      Alcotest.(check (array int)) name carried applied)
    [
      ("counter", Batcher_core.Experiments.closed_counter ~calls:50);
      ("multi", Batcher_core.Experiments.closed_multi ~calls:50);
    ]

let test_report_renders () =
  (* Smoke: every printer produces nonempty output without raising. *)
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  let rows =
    Batcher_core.Experiments.fig5 ~n_records:500 ~records_per_node:10 ~ps:[ 1; 2 ]
      ~sizes:[ 1000 ] ()
  in
  Batcher_core.Report.fig5 fmt rows;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "fig5 nonempty" true (Buffer.length buf > 0)

let () =
  Alcotest.run "core"
    [
      ( "theory",
        [
          Alcotest.test_case "log2i" `Quick test_log2i;
          Alcotest.test_case "ws bound" `Quick test_ws_bound;
          Alcotest.test_case "batcher bound formula" `Quick test_batcher_bound_formula;
          Alcotest.test_case "monotone in p" `Quick test_bound_monotone_in_p;
          Alcotest.test_case "example scales" `Quick test_examples_scale;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig5 small" `Quick test_fig5_small;
          Alcotest.test_case "fig5 speedup shape" `Slow test_fig5_speedup_shape;
          Alcotest.test_case "flatcomb small" `Quick test_flatcomb_small;
          Alcotest.test_case "counter rows" `Quick test_counter_example_rows;
          Alcotest.test_case "tree rows" `Quick test_tree_example_rows;
          Alcotest.test_case "stack rows" `Quick test_stack_example_rows;
          Alcotest.test_case "theorem3 rows" `Slow test_theorem3_rows;
          Alcotest.test_case "lemma2 rows" `Slow test_lemma2_rows;
          Alcotest.test_case "ablation rows" `Slow test_ablation_rows;
          Alcotest.test_case "granularity rows" `Slow test_granularity_rows;
          Alcotest.test_case "report renders" `Quick test_report_renders;
          Alcotest.test_case "fig5-rt cell recorded" `Quick test_fig5_rt_recorded;
          Alcotest.test_case "closed legs apply the sim's records" `Quick
            test_closed_legs_agree;
        ] );
    ]
