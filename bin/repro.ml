(* Command-line driver for the reproduction experiments: one subcommand
   per experiment id in DESIGN.md, plus `all`; `schedview` and
   `fig5-rt --summary`, which read one workload's Theorem-1 terms on
   both executions; and `dag`, which prints a core DAG as Graphviz DOT.
   test/dune pins the simulated tables' output at small sizes as expect
   tests. *)

open Cmdliner

let fmt = Format.std_formatter

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let ps_arg default =
  let doc = "Comma-separated worker counts to simulate." in
  Arg.(value & opt (list int) default & info [ "workers" ] ~docv:"P,P,..." ~doc)

let records_arg =
  Arg.(
    value
    & opt int 100_000
    & info [ "records" ] ~docv:"N" ~doc:"Insertions per cell (paper: 100000).")

let sizes_arg default =
  Arg.(
    value
    & opt (list int) default
    & info [ "sizes" ] ~docv:"S,S,..." ~doc:"Initial skip-list sizes.")

(* E1 *)
let fig5_cmd =
  let per_node =
    Arg.(
      value
      & opt int 100
      & info [ "per-node" ] ~docv:"K" ~doc:"Records per BATCHIFY call (paper: 100).")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit comma-separated rows for plotting.")
  in
  let run n_records records_per_node sizes ps seed csv =
    let rows =
      Batcher_core.Experiments.fig5 ~n_records ~records_per_node ~sizes ~ps ~seed ()
    in
    if csv then begin
      Format.fprintf fmt "initial,seq";
      List.iter (fun p -> Format.fprintf fmt ",bat_p%d" p) ps;
      Format.fprintf fmt "@.";
      List.iter
        (fun (r : Batcher_core.Experiments.fig5_row) ->
          Format.fprintf fmt "%d,%.6f" r.Batcher_core.Experiments.initial
            r.Batcher_core.Experiments.seq_throughput;
          List.iter (fun (_, tp, _) -> Format.fprintf fmt ",%.6f" tp)
            r.Batcher_core.Experiments.batcher;
          Format.fprintf fmt "@.")
        rows
    end
    else Batcher_core.Report.fig5 fmt rows
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"E1: Figure 5 — BATCHER vs sequential skip list")
    Term.(
      const run $ records_arg $ per_node
      $ sizes_arg [ 20_000; 100_000; 1_000_000; 10_000_000; 100_000_000 ]
      $ ps_arg [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      $ seed_arg $ csv)

(* A CPU-bound loop that touches no memory. *)
let spin () =
  let x = ref 0 in
  for i = 1 to 100_000_000 do
    x := (!x * 1103515245) + i
  done;
  ignore (Sys.opaque_identity !x)

(* One loop alone, then two at once on two domains. Two CPUs show as
   two times close to the lone one; one CPU as twice it. *)
let host_control when_ =
  let time () =
    let t0 = Unix.gettimeofday () in
    spin ();
    Unix.gettimeofday () -. t0
  in
  let alone = time () in
  let d1 = Domain.spawn time and d2 = Domain.spawn time in
  let t1 = Domain.join d1 and t2 = Domain.join d2 in
  Format.fprintf fmt
    "%17s host control %s: one loop %.3f s alone; two at once %.3f and %.3f s (x%.2f)@."
    "" when_ alone t1 t2
    (Float.max t1 t2 /. alone)

(* ---- The Theorem-1 terms on both executions ---- *)

(* One workload recorded at [p] workers on each execution: the
   simulator's run and the runtime's, with its wall-clock seconds. *)
type leg = {
  p : int;
  workload : Sim.Workload.t;
  metrics : Sim.Metrics.t;
  terms : Check.Bound.terms;
  sim_rc : Obs.Recorder.t;
  sim : Obs.Summary.t;
  rt_rc : Obs.Recorder.t;
  rt : Obs.Summary.t;
  rt_s : float;
}

let leg ~p ~workload (sim_rc, metrics) rt_rc rt_s =
  let terms = Check.Bound.terms ~workload ~metrics in
  let sim = Obs.Summary.of_recorder sim_rc and rt = Obs.Summary.of_recorder rt_rc in
  { p; workload; metrics; terms; sim_rc; sim; rt_rc; rt; rt_s }

let rt_recorder p = Obs.Recorder.create ~clock:Obs.Recorder.Nanoseconds ~workers:p ()

(* Each term of the bound beside the bucket that realizes it, per
   worker, on the simulator (steps) and on the runtime (ns); legs side
   by side. The predicted terms add up to the bound; the bucket rows
   add up to the makespan on the sim, and to the mean worker span on
   the runtime. *)
let terms_table legs =
  let column l =
    let open Obs.Summary in
    let per x = float_of_int x /. float_of_int l.p in
    let cell pred f =
      let sim = per (f l.sim.total) and rt = per (f l.rt.total) in
      (pred, Printf.sprintf "%.1f" sim, Printf.sprintf "%.0f" rt)
    in
    let t = l.terms and m = l.metrics and i = string_of_int in
    [
      ("predicted", "sim", "runtime ns");
      cell (i t.core) (fun b -> b.core);
      cell (i t.collection) (fun b -> b.batch + b.setup);
      cell (i t.serial) (fun b -> b.wait);
      (i t.span, i m.span_realized, i l.rt.t_inf_witness);
      cell "-" (fun b -> b.sched + b.idle);
      (i (Check.Bound.theorem1 ~workload:l.workload ~metrics:m), i m.makespan,
       Printf.sprintf "%.0f" (l.rt_s *. 1e9));
    ]
  in
  let columns = List.map column legs in
  Format.fprintf fmt "  %-23s" "Theorem-1 term";
  List.iter (fun l -> Format.fprintf fmt " %35s" (Printf.sprintf "P=%d" l.p)) legs;
  List.iteri
    (fun k name ->
      Format.fprintf fmt "@.  %-23s" name;
      List.iter
        (fun c ->
          let pred, sim, rt = List.nth c k in
          Format.fprintf fmt " %10s %10s %13s" pred sim rt)
        columns)
    [
      ""; "T1/P"; "(W(n)+n*s(n))/P"; "m*s(n)"; "T_inf"; "sched+idle (unmodeled)";
      "bound | makespan";
    ];
  Format.fprintf fmt "@."

(* The gates of one leg: the simulator's conservation and cross-check
   against its own counters, and the runtime's per-worker tiling. Both
   refuse a recording that dropped an event. *)
let gates_pass name l =
  let pass who = function
    | Ok () -> true
    | Error e ->
        Format.eprintf "repro: %s P=%d %s FAILED: %s@." name l.p who e;
        false
  in
  let sim = Check.Bound.cross_check ~workload:l.workload ~metrics:l.metrics ~recorder:l.sim_rc () in
  let sim = pass "sim cross-check" sim in
  let rt = pass "runtime tiling" (Obs.Summary.check l.rt) in
  if sim && rt then
    Format.fprintf fmt "  P=%d: sim cross-check and runtime tiling OK, 0 events dropped@." l.p;
  sim && rt

let chrome_tracks ~pid name l =
  [
    { Obs.Chrome.pid; name = Printf.sprintf "sim %s P=%d (1 step = 1us)" name l.p;
      recording = l.sim_rc };
    { pid = pid + 1; name = Printf.sprintf "runtime %s P=%d (wall clock)" name l.p;
      recording = l.rt_rc };
  ]

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:"Write every recorded run as one process of one Chrome trace.")

(* E1 on the real runtime *)
let fig5_rt_cmd =
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Also record each cell on the simulator and the runtime, print the Theorem-1 \
             terms at P = 1 and 2 per size, and exit 1 when a recording fails its gates.")
  in
  let run records sizes seed summary trace =
    let summary = summary || trace <> None in
    Batcher_core.Report.fig5_rt_header fmt ~records;
    let cell initial p =
      if p = 2 then host_control "before";
      let rt_rc = if summary then rt_recorder p else Obs.Recorder.null in
      let probe = if summary then Some (Obs.Probe.create ~recorder:rt_rc ()) else None in
      let r = Batcher_core.Experiments.fig5_rt_cell ~seed ?probe ~initial ~records ~p () in
      Batcher_core.Report.fig5_rt_row fmt r;
      if p = 2 then host_control "after";
      let sim w = Batcher_core.Experiments.sim_recorded ~seed ~p w in
      (r.agree, fun workload -> leg ~p ~workload (sim workload) rt_rc r.bat_s)
    in
    let size initial =
      let cells = List.map (cell initial) [ 1; 2 ] in
      let agree = List.for_all fst cells in
      if not summary then (agree, [])
      else begin
        let workload = Batcher_core.Experiments.fig5_sim_workload ~initial ~records in
        let legs = List.map (fun (_, leg) -> leg workload) cells in
        Format.fprintf fmt "@.Theorem-1 terms at %d keys, %d records:@." initial records;
        terms_table legs;
        let name = Printf.sprintf "fig5-rt %d" initial in
        let gates = List.map (gates_pass name) legs in
        Format.fprintf fmt "@.";
        let traced = if trace = None then [] else List.map (fun l -> (name, l)) legs in
        (agree && List.for_all Fun.id gates, traced)
      end
    in
    let results = List.map size sizes in
    Option.iter
      (fun path ->
        let tracks i (name, l) = chrome_tracks ~pid:((2 * i) + 1) name l in
        Obs.Chrome.write_file ~path
          (List.concat (List.mapi tracks (List.concat_map snd results)));
        Format.fprintf fmt "wrote %s@." path)
      trace;
    if not (List.for_all fst results) then exit 1
  in
  Cmd.v
    (Cmd.info "fig5-rt"
       ~doc:
         "E1 on the real runtime: BATCHER at P = 1 and 2 against the sequential \
          skip list, timed, with a host control before and after each P = 2 cell. \
          Exits 1 when a cell's final key set differs from SEQ's.")
    Term.(
      const run $ records_arg $ sizes_arg [ 20_000; 1_000_000 ] $ seed_arg $ summary $ trace_arg)

(* A closed loop of Experiments recorded on both executions: the
   Theorem-1 table, each recording's summary, and the gates. *)
let schedview_cmd =
  let workload =
    let named name spec = (name, (name, spec)) in
    let counter = named "counter" Batcher_core.Experiments.closed_counter in
    Arg.(
      value
      & opt (enum [ counter; named "multi" Batcher_core.Experiments.closed_multi ]) (snd counter)
      & info [ "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "$(b,counter): one counter, one record per call; $(b,multi): a counter and \
             a 100,000-key skip list, ten records per call.")
  in
  let p =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"P" ~doc:"Workers on both executions.")
  in
  let n =
    Arg.(
      value & opt int 200
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Calls. The runtime's rings hold 65,536 events per worker, and at 2 workers \
             a call of either workload records about 14 events, up to 8.3 of them on the \
             busier worker: about 7,500 calls fit. At 8,000 a run can drop events (1 run \
             in 4 on $(b,counter), 1 in 11 on $(b,multi)); a run that drops events fails \
             the gates.")
  in
  let path name doc = Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc) in
  let json = path "json" "Write the bound, its terms and both summaries as JSON." in
  let run (name, spec) p n seed json trace =
    if p < 1 || n < 1 then begin
      Format.eprintf "repro: schedview needs --workers >= 1 and -n >= 1@.";
      exit Cmd.Exit.cli_error
    end;
    let spec = spec ~calls:n in
    let workload = Batcher_core.Experiments.closed_sim spec in
    let ((_, metrics) as sim) = Batcher_core.Experiments.sim_recorded ~seed ~p workload in
    let rt_rc = rt_recorder p in
    let probe = Obs.Probe.create ~recorder:rt_rc () in
    let _, rt_s = Batcher_core.Experiments.closed_rt ~seed ~probe ~p spec in
    let l = leg ~p ~workload sim rt_rc rt_s in
    Format.fprintf fmt "schedview %s: %d calls of %d records at %d workers@." name n
      spec.Batcher_core.Experiments.cl_per_call p;
    terms_table [ l ];
    Format.fprintf fmt "@.---- simulator ----@.%a@.---- runtime ----@.%a@." Obs.Summary.pp l.sim
      Obs.Summary.pp l.rt;
    let ok = gates_pass ("schedview " ^ name) l in
    Option.iter
      (fun path ->
        Obs.Chrome.write_file ~path (chrome_tracks ~pid:1 name l);
        Format.fprintf fmt "wrote %s@." path)
      trace;
    Option.iter
      (fun path ->
        let int k v = (k, Obs.Json.Int v) in
        let t = l.terms in
        let doc =
          Obs.Json.Obj
            [
              ("workload", Obs.Json.Str name); int "p" p; int "n" n; int "seed" seed;
              int "makespan" metrics.Sim.Metrics.makespan;
              int "span_realized" metrics.Sim.Metrics.span_realized;
              int "bound" (Check.Bound.theorem1 ~workload ~metrics);
              ("ratio", Obs.Json.Float (Check.Bound.ratio ~workload ~metrics));
              ( "terms",
                Obs.Json.Obj
                  Check.Bound.
                    [ int "core" t.core; int "collection" t.collection; int "serial" t.serial;
                      int "span" t.span ] );
              ("runtime_ns", Obs.Json.Float (rt_s *. 1e9));
              ("sim", Obs.Summary.to_json l.sim);
              ("runtime", Obs.Summary.to_json l.rt);
            ]
        in
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Obs.Json.to_string doc ^ "\n"));
        Format.fprintf fmt "wrote %s@." path)
      json;
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "schedview"
       ~doc:
         "One closed loop recorded on the simulator and on the runtime: the Theorem-1 \
          table, predicted beside each execution's measured buckets, then each \
          recording's summary. Exits 1 when a recording fails its gates.")
    Term.(const run $ workload $ p $ n $ seed_arg $ json $ trace_arg)

(* A workload's core DAG as Graphviz DOT on stdout; its work, span, n
   and m on stderr. *)
let dag_cmd =
  let shapes = [ ("parallel", `Parallel); ("chains", `Chains); ("random", `Random) ] in
  let shape = Arg.(value & pos 0 (enum shapes) `Parallel & info [] ~docv:"SHAPE") in
  let n = Arg.(value & pos 1 int 8 & info [] ~docv:"N") in
  let run shape n =
    let model = Batched.Skiplist.sim_model ~initial_size:1024 () in
    let w =
      match shape with
      | `Parallel -> Sim.Workload.parallel_ops ~model ~records_per_node:1 ~n_nodes:n ()
      | `Chains -> Sim.Workload.chained_ops ~model ~records_per_node:1 ~chain_length:n ~width:2 ()
      | `Random -> Sim.Workload.random ~model ~records_per_node:1 ~size:n ~seed:7 ()
    in
    let d = w.Sim.Workload.core in
    Format.eprintf "core dag: %d nodes, work %d, span %d, n=%d, m=%d@." (Dag.size d)
      (Dag.work d) (Dag.span d) (Dag.ds_count d) (Dag.ds_depth d);
    Dag.to_dot ~name:"core" fmt d
  in
  Cmd.v
    (Cmd.info "dag"
       ~doc:"A workload's core DAG (parallel, chains or random, of size N) as Graphviz DOT.")
    Term.(const run $ shape $ n)

(* M3 *)
let shard_k_cmd =
  let ops =
    Arg.(value & opt int 384 & info [ "ops" ] ~docv:"N" ~doc:"Operations per timed run.")
  in
  let run ops =
    let rows = Batcher_core.Experiments.shard_scaling ~ops () in
    Batcher_core.Report.shard_scaling fmt rows;
    if not (List.for_all (fun r -> r.Batcher_core.Experiments.sk_agree) rows) then exit 1
  in
  Cmd.v
    (Cmd.info "shard-k"
       ~doc:
         "M3: BATCHIFY on K = 1, 2, 4, 8 shards of a structure whose batch costs 1 ms / K, \
          on the runtime at 2 workers. Exits 1 when the shards' counters do not sum to \
          the ops submitted.")
    Term.(const run $ ops)

(* E2 *)
let flatcomb_cmd =
  let initial =
    Arg.(value & opt int 1_000_000 & info [ "initial" ] ~docv:"N" ~doc:"Initial size.")
  in
  let run initial ps seed =
    Batcher_core.Report.flatcomb fmt
      (Batcher_core.Experiments.flatcomb ~initial ~ps ~seed ())
  in
  Cmd.v
    (Cmd.info "flatcomb" ~doc:"E2: flat-combining comparison")
    Term.(const run $ initial $ ps_arg [ 1; 2; 3; 4; 5; 6; 7; 8 ] $ seed_arg)

(* E3/E4/E5 *)
let example_cmd ~name ~doc ~driver =
  let n =
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Operation count.")
  in
  let run n ps seed = Batcher_core.Report.example ~name fmt (driver ?n ~ps ~seed ()) in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ n $ ps_arg [ 1; 2; 4; 8; 16; 32; 64; 128 ] $ seed_arg)

let counter_cmd =
  example_cmd ~name:"counter" ~doc:"E3: batched counter example"
    ~driver:(fun ?n ~ps ~seed () -> Batcher_core.Experiments.counter_example ?n ~ps ~seed ())

let tree_cmd =
  example_cmd ~name:"tree" ~doc:"E4: batched 2-3 tree example"
    ~driver:(fun ?n ~ps ~seed () -> Batcher_core.Experiments.tree_example ?n ~ps ~seed ())

let stack_cmd =
  example_cmd ~name:"stack" ~doc:"E5: amortized LIFO stack example"
    ~driver:(fun ?n ~ps ~seed () -> Batcher_core.Experiments.stack_example ?n ~ps ~seed ())

(* E6 *)
let theory_cmd =
  let run seed = Batcher_core.Report.theory fmt (Batcher_core.Experiments.theory_table ~seed ()) in
  Cmd.v (Cmd.info "theory" ~doc:"E6: Theorem 1 validation sweep") Term.(const run $ seed_arg)

(* E8 *)
let theorem3_cmd =
  let run seed =
    Batcher_core.Report.theorem3 fmt (Batcher_core.Experiments.theorem3 ~seed ())
  in
  Cmd.v
    (Cmd.info "theorem3" ~doc:"E8: Theorem 3 (τ-trimmed span) validation")
    Term.(const run $ seed_arg)

(* E7 *)
let lemma2_cmd =
  let run seed = Batcher_core.Report.lemma2 fmt (Batcher_core.Experiments.lemma2 ~seed ()) in
  Cmd.v (Cmd.info "lemma2" ~doc:"E7: Lemma 2 empirical check") Term.(const run $ seed_arg)

(* E10 *)
let multi_cmd =
  let run seed =
    Batcher_core.Report.multi fmt (Batcher_core.Experiments.multi_structure ~seed ())
  in
  Cmd.v (Cmd.info "multi" ~doc:"E10: several batched structures at once")
    Term.(const run $ seed_arg)

(* A1/A2/A3 *)
let ablation_cmd ~name ~doc ~driver =
  let run seed = Batcher_core.Report.ablation ~name fmt (driver ~seed ()) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ seed_arg)

let ablate_steal_cmd =
  ablation_cmd ~name:"ablate-steal" ~doc:"A1: steal-policy ablation"
    ~driver:(fun ~seed () -> Batcher_core.Experiments.ablate_steal ~seed ())

let ablate_launch_cmd =
  ablation_cmd ~name:"ablate-launch" ~doc:"A2: launch-threshold ablation"
    ~driver:(fun ~seed () -> Batcher_core.Experiments.ablate_launch ~seed ())

let ablate_overhead_cmd =
  ablation_cmd ~name:"ablate-overhead" ~doc:"A4: LAUNCHBATCH overhead-model ablation"
    ~driver:(fun ~seed () -> Batcher_core.Experiments.ablate_overhead ~seed ())

let pthreaded_cmd =
  let run seed =
    Batcher_core.Report.pthreaded fmt (Batcher_core.Experiments.pthreaded ~seed ())
  in
  Cmd.v (Cmd.info "pthreaded" ~doc:"E9: statically threaded programs")
    Term.(const run $ seed_arg)

let ablate_granularity_cmd =
  let run seed =
    Batcher_core.Report.granularity fmt
      (Batcher_core.Experiments.ablate_granularity ~seed ())
  in
  Cmd.v (Cmd.info "ablate-granularity" ~doc:"A5: records-per-BATCHIFY ablation")
    Term.(const run $ seed_arg)

let ablate_cap_cmd =
  ablation_cmd ~name:"ablate-cap" ~doc:"A3: batch-cap ablation"
    ~driver:(fun ~seed () -> Batcher_core.Experiments.ablate_cap ~seed ())

(* all *)
let all_cmd =
  let run seed =
    Batcher_core.Report.fig5 fmt (Batcher_core.Experiments.fig5 ~seed ());
    Batcher_core.Report.flatcomb fmt (Batcher_core.Experiments.flatcomb ~seed ());
    Batcher_core.Report.example ~name:"E3 counter" fmt
      (Batcher_core.Experiments.counter_example ~seed ());
    Batcher_core.Report.example ~name:"E4 search tree" fmt
      (Batcher_core.Experiments.tree_example ~seed ());
    Batcher_core.Report.example ~name:"E5 stack" fmt
      (Batcher_core.Experiments.stack_example ~seed ());
    Batcher_core.Report.theory fmt (Batcher_core.Experiments.theory_table ~seed ());
    Batcher_core.Report.theorem3 fmt (Batcher_core.Experiments.theorem3 ~seed ());
    Batcher_core.Report.lemma2 fmt (Batcher_core.Experiments.lemma2 ~seed ());
    Batcher_core.Report.ablation ~name:"A1 steal policy" fmt
      (Batcher_core.Experiments.ablate_steal ~seed ());
    Batcher_core.Report.ablation ~name:"A2 launch threshold" fmt
      (Batcher_core.Experiments.ablate_launch ~seed ());
    Batcher_core.Report.ablation ~name:"A3 batch cap" fmt
      (Batcher_core.Experiments.ablate_cap ~seed ());
    Batcher_core.Report.ablation ~name:"A4 overhead model" fmt
      (Batcher_core.Experiments.ablate_overhead ~seed ());
    Batcher_core.Report.pthreaded fmt (Batcher_core.Experiments.pthreaded ~seed ());
    Batcher_core.Report.multi fmt (Batcher_core.Experiments.multi_structure ~seed ());
    Batcher_core.Report.granularity fmt
      (Batcher_core.Experiments.ablate_granularity ~seed ())
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment at paper scale") Term.(const run $ seed_arg)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:"Reproduction of BATCHER (SPAA 2014): implicit batching experiments"
  in
  let group =
    Cmd.group info
      [
        fig5_cmd; fig5_rt_cmd; schedview_cmd; dag_cmd; shard_k_cmd; flatcomb_cmd; counter_cmd;
        tree_cmd; stack_cmd; theory_cmd;
        theorem3_cmd; lemma2_cmd; pthreaded_cmd; multi_cmd; ablate_steal_cmd; ablate_launch_cmd;
        ablate_cap_cmd; ablate_overhead_cmd; ablate_granularity_cmd; all_cmd;
      ]
  in
  exit (Cmd.eval group)
