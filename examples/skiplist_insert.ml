(* The paper's Section 7 experiment, end to end.

   Part 1 runs the real runtime: a parallel loop inserting keys into a
   batched skip list through BATCHIFY, against a plain sequential skip
   list — validating results and reporting wall-clock times and batch
   statistics. (On a machine with few cores, wall-clock speedup is not
   expected; the scheduler-model speedups are Part 2's job.)

   Part 2 reproduces Figure 5's *shape* in the discrete-event scheduler
   simulator at a reduced scale, printing throughput per worker count for
   several initial list sizes.

   Run with: dune exec examples/skiplist_insert.exe [workers] [inserts] *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let workers = try int_of_string Sys.argv.(1) with _ -> 4 in
  let n = try int_of_string Sys.argv.(2) with _ -> 20_000 in
  let initial = 50_000 in

  (* Shuffled key sets: [0, initial) preloaded, [initial, initial+n) inserted. *)
  let rng = Util.Rng.create ~seed:7 in
  let fresh = Array.init n (fun i -> initial + i) in
  Util.Rng.shuffle rng fresh;

  Printf.printf "== Part 1: real runtime (%d workers, %d inserts, initial size %d)\n%!"
    workers n initial;

  (* Sequential baseline. *)
  let seq_list = Batched.Skiplist.create ~seed:1 () in
  for i = 0 to initial - 1 do
    ignore (Batched.Skiplist.insert_seq seq_list i)
  done;
  let (), seq_time =
    wall (fun () -> Array.iter (fun k -> ignore (Batched.Skiplist.insert_seq seq_list k)) fresh)
  in

  (* BATCHER. *)
  let bat_list = Batched.Skiplist.create ~seed:1 () in
  for i = 0 to initial - 1 do
    ignore (Batched.Skiplist.insert_seq bat_list i)
  done;
  let pool = Runtime.Pool.create ~num_workers:workers () in
  let batcher =
    (* The paper's BOP: the search phase of each batch runs in parallel
       on the pool; build and splice are sequential. *)
    Runtime.Batcher_rt.create ~pool ~state:bat_list
      ~run_batch:(fun pool sl ops ->
        Batched.Skiplist.run_batch_with
          ~pfor:(fun n body -> Runtime.Pool.parallel_for pool ~grain:8 ~lo:0 ~hi:n body)
          sl ops)
      ()
  in
  let (), bat_time =
    wall (fun () ->
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                Runtime.Batcher_rt.batchify batcher (Batched.Skiplist.insert fresh.(i)))))
  in
  let stats = Runtime.Batcher_rt.stats batcher in
  Batched.Skiplist.check_invariants bat_list;
  Printf.printf "  SEQ     : %8.1f inserts/ms (length %d)\n"
    (float_of_int n /. (seq_time *. 1000.)) (Batched.Skiplist.length seq_list);
  Printf.printf "  BATCHER : %8.1f inserts/ms (length %d, %d batches, largest %d)\n"
    (float_of_int n /. (bat_time *. 1000.)) (Batched.Skiplist.length bat_list)
    stats.Runtime.Batcher_rt.batches stats.Runtime.Batcher_rt.max_batch;
  let agree =
    Batched.Skiplist.to_list seq_list = Batched.Skiplist.to_list bat_list
  in
  Printf.printf "  contents agree: %b\n%!" agree;
  Runtime.Pool.teardown pool;

  Printf.printf "\n== Part 2: scheduler-model reproduction of Figure 5 (reduced scale)\n%!";
  let rows =
    Batcher_core.Experiments.fig5 ~n_records:20_000 ~records_per_node:100
      ~ps:[ 1; 2; 4; 8 ]
      ~sizes:[ 20_000; 1_000_000; 100_000_000 ]
      ()
  in
  Batcher_core.Report.fig5 Format.std_formatter rows;
  if not agree then exit 1
