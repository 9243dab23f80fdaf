(* Dump workload core DAGs (and a sample batch DAG shape) as Graphviz
   DOT, for inspecting what the scheduler actually executes.

   Usage: dune exec bin/dagviz.exe -- [parallel|chains|random] [n] > out.dot *)

let () =
  let shape = if Array.length Sys.argv > 1 then Sys.argv.(1) else "parallel" in
  let n =
    if Array.length Sys.argv <= 2 then 8
    else
      match int_of_string_opt Sys.argv.(2) with
      | Some n -> n
      | None ->
          Printf.eprintf "size %S is not an integer\n" Sys.argv.(2);
          exit 2
  in
  let model = Batched.Skiplist.sim_model ~initial_size:1024 () in
  let workload =
    match shape with
    | "parallel" ->
        Sim.Workload.parallel_ops ~model ~records_per_node:1 ~n_nodes:n ()
    | "chains" ->
        Sim.Workload.chained_ops ~model ~records_per_node:1 ~chain_length:n ~width:2 ()
    | "random" ->
        Sim.Workload.random ~model ~records_per_node:1 ~size:n ~seed:7 ()
    | other ->
        Printf.eprintf "unknown shape %S (parallel|chains|random)\n" other;
        exit 2
  in
  let d = workload.Sim.Workload.core in
  Format.eprintf "core dag: %d nodes, work %d, span %d, n=%d, m=%d@." (Dag.size d)
    (Dag.work d) (Dag.span d) (Dag.ds_count d) (Dag.ds_depth d);
  Dag.to_dot ~name:"core" Format.std_formatter d
