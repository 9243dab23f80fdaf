(* Command-line driver for the reproduction experiments: one subcommand
   per experiment id in DESIGN.md, plus `all`. test/dune pins the
   simulated tables' output at small sizes as expect tests. *)

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

(* E1 on the real runtime *)
let fig5_rt_cmd =
  let run records sizes seed =
    Batcher_core.Report.fig5_rt_header fmt ~records;
    let agree initial p =
      if p = 2 then host_control "before";
      let r = Batcher_core.Experiments.fig5_rt_cell ~seed ~initial ~records ~p () in
      Batcher_core.Report.fig5_rt_row fmt r;
      if p = 2 then host_control "after";
      r.Batcher_core.Experiments.agree
    in
    let cells = List.concat_map (fun s -> List.map (agree s) [ 1; 2 ]) sizes in
    if not (List.for_all Fun.id cells) then exit 1
  in
  Cmd.v
    (Cmd.info "fig5-rt"
       ~doc:
         "E1 on the real runtime: BATCHER at P = 1 and 2 against the sequential \
          skip list, timed, with a host control before and after each P = 2 cell. \
          Exits 1 when a cell's final key set differs from SEQ's.")
    Term.(const run $ records_arg $ sizes_arg [ 20_000; 1_000_000 ] $ seed_arg)

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
  let run n ps seed =
    let rows =
      match n with
      | None -> driver ?n:None ~ps ~seed ()
      | Some _ -> driver ?n ~ps ~seed ()
    in
    Batcher_core.Report.example ~name fmt rows
  in
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
        fig5_cmd; fig5_rt_cmd; shard_k_cmd; flatcomb_cmd; counter_cmd; tree_cmd; stack_cmd; theory_cmd;
        theorem3_cmd; lemma2_cmd; pthreaded_cmd; multi_cmd; ablate_steal_cmd; ablate_launch_cmd;
        ablate_cap_cmd; ablate_overhead_cmd; ablate_granularity_cmd; all_cmd;
      ]
  in
  exit (Cmd.eval group)
