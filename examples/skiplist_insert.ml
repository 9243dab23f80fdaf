(* The paper's Section 7 experiment, end to end.

   Part 1 runs Figure 5's cell on the real runtime
   ([Batcher_core.Experiments.fig5_rt_cell], which `repro.exe fig5-rt`
   sweeps): fresh keys inserted into a batched skip list through
   BATCHIFY, 100 records per call, against the sequential skip list,
   checking that both end with the same keys and reporting wall-clock
   times. (On a machine with few cores, wall-clock speedup is not
   expected; the scheduler-model speedups are Part 2's job.)

   Part 2 reproduces Figure 5's *shape* in the discrete-event scheduler
   simulator at a reduced scale, printing throughput per worker count for
   several initial list sizes.

   Run with: dune exec examples/skiplist_insert.exe [workers] [inserts] *)

let () =
  let workers = try int_of_string Sys.argv.(1) with _ -> 4 in
  let n = try int_of_string Sys.argv.(2) with _ -> 20_000 in
  let initial = 50_000 in

  Printf.printf "== Part 1: real runtime (%d workers, %d inserts, initial size %d)\n%!"
    workers n initial;
  let cell = Batcher_core.Experiments.fig5_rt_cell ~initial ~records:n ~p:workers () in
  Batcher_core.Report.fig5_rt_header Format.std_formatter ~records:n;
  Batcher_core.Report.fig5_rt_row Format.std_formatter cell;

  Printf.printf "\n== Part 2: scheduler-model reproduction of Figure 5 (reduced scale)\n%!";
  let rows =
    Batcher_core.Experiments.fig5 ~n_records:20_000 ~records_per_node:100
      ~ps:[ 1; 2; 4; 8 ]
      ~sizes:[ 20_000; 1_000_000; 100_000_000 ]
      ()
  in
  Batcher_core.Report.fig5 Format.std_formatter rows;
  if not cell.Batcher_core.Experiments.agree then exit 1
