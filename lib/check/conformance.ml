(* The conformance engine. One seeded script per structure, executed
   through the real runtime and through the simulator; each execution's
   batch linearization (the order [run_batch] observed — a true
   linearization by Invariant 1) is replayed against the oracle with the
   structure's documented phase order inside each batch. *)

type 'op harness = {
  gen : Util.Rng.t -> int -> 'op;
  run_batch : 'op array -> unit;
  dump : unit -> string;
      (* renders final state; also runs the structure's own
         check_invariants where it has one *)
  oracle_batch : 'op array -> string option;
      (* applies one batch to the oracle, diffing per-op results *)
  oracle_dump : unit -> string;
}

type subject =
  | Subject : {
      name : string;
      fresh : n:int -> 'op harness;
      cost_model : unit -> Batched.Model.t;
    }
      -> subject

let subject_name (Subject s) = s.name

type report = {
  subject : string;
  rt_batches : int;
  rt_max_batch : int;
  sim_batches : int;
  sim_makespan : int;
}

(* ---------- rendering helpers ---------- *)

let ints l = "[" ^ String.concat "; " (List.map string_of_int l) ^ "]"

let pairs l =
  "["
  ^ String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) l)
  ^ "]"

let int_opt = function None -> "None" | Some v -> "Some " ^ string_of_int v

let pair_opt = function
  | None -> "None"
  | Some (a, b) -> Printf.sprintf "Some (%d,%d)" a b

(* ---------- subjects ---------- *)

let counter =
  Subject
    {
      name = "counter";
      cost_model = (fun () -> Batched.Counter.sim_model ());
      fresh =
        (fun ~n:_ ->
          let t = Batched.Counter.create () in
          let o = Oracle.Counter.create () in
          {
            gen = Opgen.counter_op;
            run_batch = Batched.Counter.run_batch t;
            dump = (fun () -> string_of_int (Batched.Counter.value t));
            oracle_batch =
              (fun b ->
                let err = ref None in
                Array.iter
                  (fun (op : Batched.Counter.op) ->
                    let expect = Oracle.Counter.add o op.amount in
                    if !err = None && op.result <> expect then
                      err :=
                        Some
                          (Printf.sprintf "add %d: result %d, oracle %d"
                             op.amount op.result expect))
                  b;
                !err);
            oracle_dump = (fun () -> string_of_int (Oracle.Counter.value o));
          });
    }

let fifo =
  Subject
    {
      name = "fifo";
      cost_model = (fun () -> Batched.Fifo.sim_model ~dequeue_fraction:0.4 ());
      fresh =
        (fun ~n:_ ->
          let t = Batched.Fifo.create () in
          let o = Oracle.Fifo.create () in
          {
            gen = Opgen.fifo_op;
            run_batch = Batched.Fifo.run_batch t;
            dump =
              (fun () ->
                Batched.Fifo.check_invariants t;
                ints (Batched.Fifo.to_list t));
            oracle_batch =
              (fun b ->
                (* ENQUEUE phase then DEQUEUE phase, batch order each. *)
                Array.iter
                  (function
                    | Batched.Fifo.Enqueue v -> Oracle.Fifo.enqueue o v
                    | Batched.Fifo.Dequeue _ -> ())
                  b;
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Fifo.Enqueue _ -> ()
                    | Batched.Fifo.Dequeue r ->
                        let expect = Oracle.Fifo.dequeue o in
                        if !err = None && r.dequeued <> expect then
                          err :=
                            Some
                              (Printf.sprintf "dequeue: %s, oracle %s"
                                 (int_opt r.dequeued) (int_opt expect)))
                  b;
                !err);
            oracle_dump = (fun () -> ints (Oracle.Fifo.to_list o));
          });
    }

let stack =
  Subject
    {
      name = "stack";
      cost_model = (fun () -> Batched.Stack.sim_model ~pop_fraction:0.4 ());
      fresh =
        (fun ~n:_ ->
          let t = Batched.Stack.create () in
          let o = Oracle.Lifo.create () in
          {
            gen = Opgen.stack_op;
            run_batch = Batched.Stack.run_batch t;
            dump = (fun () -> ints (Batched.Stack.to_list t));
            oracle_batch =
              (fun b ->
                Array.iter
                  (function
                    | Batched.Stack.Push v -> Oracle.Lifo.push o v
                    | Batched.Stack.Pop _ -> ())
                  b;
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Stack.Push _ -> ()
                    | Batched.Stack.Pop r ->
                        let expect = Oracle.Lifo.pop o in
                        if !err = None && r.popped <> expect then
                          err :=
                            Some
                              (Printf.sprintf "pop: %s, oracle %s"
                                 (int_opt r.popped) (int_opt expect)))
                  b;
                !err);
            oracle_dump = (fun () -> ints (Oracle.Lifo.to_list o));
          });
    }

let pqueue =
  Subject
    {
      name = "pqueue";
      cost_model = (fun () -> Batched.Pqueue.sim_model ());
      fresh =
        (fun ~n:_ ->
          let t = ref Batched.Pqueue.empty in
          let o = Oracle.Heap.create () in
          {
            gen = Opgen.pqueue_op;
            run_batch = (fun ops -> t := Batched.Pqueue.run_batch !t ops);
            dump =
              (fun () ->
                Batched.Pqueue.check_invariants !t;
                pairs (Batched.Pqueue.to_sorted_list !t));
            oracle_batch =
              (fun b ->
                (* All inserts take effect first; extractions then serve
                   in batch order. Priorities are distinct by generator
                   construction, so the order is fully determined. *)
                Array.iter
                  (function
                    | Batched.Pqueue.Insert (prio, value) ->
                        Oracle.Heap.insert o ~prio ~value
                    | Batched.Pqueue.Extract_min _ -> ())
                  b;
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Pqueue.Insert _ -> ()
                    | Batched.Pqueue.Extract_min r ->
                        let expect = Oracle.Heap.extract_min o in
                        if !err = None && r.extracted <> expect then
                          err :=
                            Some
                              (Printf.sprintf "extract_min: %s, oracle %s"
                                 (pair_opt r.extracted) (pair_opt expect)))
                  b;
                !err);
            oracle_dump = (fun () -> pairs (Oracle.Heap.to_sorted_list o));
          });
    }

let hashtable =
  Subject
    {
      name = "hashtable";
      cost_model = (fun () -> Batched.Hashtable.sim_model ());
      fresh =
        (fun ~n ->
          let t = Batched.Hashtable.create () in
          let o = Oracle.Dict.create () in
          {
            gen = Opgen.hashtable_op ~n;
            run_batch = Batched.Hashtable.run_batch t;
            dump =
              (fun () ->
                Batched.Hashtable.check_invariants t;
                pairs (Batched.Hashtable.to_sorted_bindings t));
            oracle_batch =
              (fun b ->
                (* Records apply in batch order per bucket; replaying the
                   whole batch in batch order preserves every bucket's
                   order, so results match exactly. *)
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Hashtable.Insert r ->
                        let expect =
                          Oracle.Dict.insert o ~key:r.i_key ~value:r.i_value
                        in
                        if !err = None && r.replaced <> expect then
                          err :=
                            Some
                              (Printf.sprintf
                                 "insert %d: replaced %b, oracle %b" r.i_key
                                 r.replaced expect)
                    | Batched.Hashtable.Lookup r ->
                        let expect = Oracle.Dict.find o r.l_key in
                        if !err = None && r.l_value <> expect then
                          err :=
                            Some
                              (Printf.sprintf "lookup %d: %s, oracle %s"
                                 r.l_key (int_opt r.l_value) (int_opt expect))
                    | Batched.Hashtable.Remove r ->
                        let expect = Oracle.Dict.remove o r.r_key in
                        if !err = None && r.removed <> expect then
                          err :=
                            Some
                              (Printf.sprintf
                                 "remove %d: removed %b, oracle %b" r.r_key
                                 r.removed expect))
                  b;
                !err);
            oracle_dump = (fun () -> pairs (Oracle.Dict.bindings o));
          });
    }

let skiplist =
  Subject
    {
      name = "skiplist";
      cost_model = (fun () -> Batched.Skiplist.sim_model ~initial_size:1024 ());
      fresh =
        (fun ~n ->
          let t = Batched.Skiplist.create () in
          let o = Oracle.Dict.create () in
          {
            gen = Opgen.skiplist_op ~n;
            run_batch = Batched.Skiplist.run_batch t;
            dump =
              (fun () ->
                Batched.Skiplist.check_invariants t;
                ints (Batched.Skiplist.to_list t));
            oracle_batch =
              (fun b ->
                (* Inserts, then deletes, then membership. The insert
                   phase stable-sorts, so among equal keys batch order is
                   preserved — replaying inserts in batch order marks the
                   same record [inserted]. *)
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Skiplist.Insert r ->
                        let expect = Oracle.Dict.add_if_absent o r.key in
                        if !err = None && r.inserted <> expect then
                          err :=
                            Some
                              (Printf.sprintf
                                 "insert %d: inserted %b, oracle %b" r.key
                                 r.inserted expect)
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Skiplist.Delete r ->
                        let expect = Oracle.Dict.remove o r.del_key in
                        if !err = None && r.deleted <> expect then
                          err :=
                            Some
                              (Printf.sprintf
                                 "delete %d: deleted %b, oracle %b" r.del_key
                                 r.deleted expect)
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Skiplist.Mem r ->
                        let expect = Oracle.Dict.mem o r.mem_key in
                        if !err = None && r.found <> expect then
                          err :=
                            Some
                              (Printf.sprintf "mem %d: found %b, oracle %b"
                                 r.mem_key r.found expect)
                    | _ -> ())
                  b;
                !err);
            oracle_dump = (fun () -> ints (Oracle.Dict.keys o));
          });
    }

let two_three =
  Subject
    {
      name = "two_three";
      cost_model = (fun () -> Batched.Two_three.sim_model ~initial_size:512 ());
      fresh =
        (fun ~n ->
          let t = ref Batched.Two_three.empty in
          let o = Oracle.Dict.create () in
          {
            gen = Opgen.two_three_op ~n;
            run_batch = (fun ops -> t := Batched.Two_three.run_batch !t ops);
            dump =
              (fun () ->
                Batched.Two_three.check_invariants !t;
                ints (Batched.Two_three.to_sorted_list !t));
            oracle_batch =
              (fun b ->
                (* Median-first inserts (sort_uniq — generator keys are
                   injective, so no in-batch duplicates), then deletes in
                   batch order, then membership over the net result. *)
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Two_three.Insert r ->
                        let expect = Oracle.Dict.add_if_absent o r.key in
                        if !err = None && r.inserted <> expect then
                          err :=
                            Some
                              (Printf.sprintf
                                 "insert %d: inserted %b, oracle %b" r.key
                                 r.inserted expect)
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Two_three.Delete r ->
                        let expect = Oracle.Dict.remove o r.del_key in
                        if !err = None && r.deleted <> expect then
                          err :=
                            Some
                              (Printf.sprintf
                                 "delete %d: deleted %b, oracle %b" r.del_key
                                 r.deleted expect)
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Two_three.Mem r ->
                        let expect = Oracle.Dict.mem o r.mem_key in
                        if !err = None && r.found <> expect then
                          err :=
                            Some
                              (Printf.sprintf "mem %d: found %b, oracle %b"
                                 r.mem_key r.found expect)
                    | _ -> ())
                  b;
                !err);
            oracle_dump = (fun () -> ints (Oracle.Dict.keys o));
          });
    }

let ostree =
  Subject
    {
      name = "ostree";
      cost_model = (fun () -> Batched.Ostree.sim_model ~initial_size:512 ());
      fresh =
        (fun ~n ->
          let t = ref Batched.Ostree.empty in
          let o = Oracle.Dict.create () in
          {
            gen = Opgen.ostree_op ~n;
            run_batch = (fun ops -> t := Batched.Ostree.run_batch !t ops);
            dump =
              (fun () ->
                Batched.Ostree.check_invariants !t;
                ints (Batched.Ostree.to_sorted_list !t));
            oracle_batch =
              (fun b ->
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Ostree.Insert r ->
                        let expect = Oracle.Dict.add_if_absent o r.key in
                        if !err = None && r.inserted <> expect then
                          err :=
                            Some
                              (Printf.sprintf
                                 "insert %d: inserted %b, oracle %b" r.key
                                 r.inserted expect)
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Ostree.Delete r ->
                        let expect = Oracle.Dict.remove o r.del_key in
                        if !err = None && r.deleted <> expect then
                          err :=
                            Some
                              (Printf.sprintf
                                 "delete %d: deleted %b, oracle %b" r.del_key
                                 r.deleted expect)
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Ostree.Rank r ->
                        let expect = Oracle.Dict.rank o r.rank_of in
                        if !err = None && r.rank_result <> expect then
                          err :=
                            Some
                              (Printf.sprintf "rank %d: %d, oracle %d"
                                 r.rank_of r.rank_result expect)
                    | Batched.Ostree.Select s ->
                        let expect = Oracle.Dict.select o s.index in
                        if !err = None && s.selected <> expect then
                          err :=
                            Some
                              (Printf.sprintf "select %d: %s, oracle %s"
                                 s.index (int_opt s.selected) (int_opt expect))
                    | _ -> ())
                  b;
                !err);
            oracle_dump = (fun () -> ints (Oracle.Dict.keys o));
          });
    }

(* Render the full strict-precedence matrix over a node list; both sides
   use the same registry order, so equal strings mean equal relations. *)
let precedes_matrix nodes precedes =
  let nodes = Array.of_list nodes in
  let buf = Buffer.create (Array.length nodes * (Array.length nodes + 1)) in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          Buffer.add_char buf (if i <> j && precedes a b then '1' else '0'))
        nodes;
      Buffer.add_char buf '\n')
    nodes;
  Buffer.contents buf

let sp_order =
  Subject
    {
      name = "sp_order";
      cost_model = (fun () -> Batched.Sp_order.sim_model ());
      fresh =
        (fun ~n:_ ->
          let t, root = Batched.Sp_order.create () in
          let o, oroot = Oracle.Sp.create () in
          (* strand -> oracle node, newest first; every script op is a
             fork of the root, which NESTS (the continuation chains), so
             batching-order differences exercise real order churn. *)
          let reg = ref [ (root, oroot) ] in
          let lookup s =
            match List.assq_opt s !reg with
            | Some node -> node
            | None -> failwith "sp_order: strand not registered"
          in
          {
            gen = (fun _rng _i -> Batched.Sp_order.fork_op root);
            run_batch = Batched.Sp_order.run_batch t;
            dump =
              (fun () ->
                Batched.Sp_order.check_invariants t;
                let strands = List.rev_map fst !reg in
                precedes_matrix strands (Batched.Sp_order.precedes_seq t));
            oracle_batch =
              (fun b ->
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Sp_order.Fork r -> (
                        let l, rt, c = Oracle.Sp.fork o (lookup r.fork_of) in
                        match (r.left, r.right, r.continuation) with
                        | Some left, Some right, Some cont ->
                            reg :=
                              (cont, c) :: (right, rt) :: (left, l) :: !reg
                        | _ ->
                            if !err = None then
                              err := Some "fork: result strand missing")
                    | Batched.Sp_order.Precedes q ->
                        let expect =
                          Oracle.Sp.precedes o (lookup q.q_a) (lookup q.q_b)
                        in
                        if !err = None && q.q_precedes <> expect then
                          err :=
                            Some
                              (Printf.sprintf "precedes: %b, oracle %b"
                                 q.q_precedes expect))
                  b;
                !err);
            oracle_dump =
              (fun () ->
                let nodes =
                  Array.of_list (List.rev_map (fun (_, n) -> n) !reg)
                in
                (* Snapshot both order positions once; each pair is then
                   O(1), keeping the O(n^2) matrix cheap. *)
                let idx = Array.map (Oracle.Sp.indices o) nodes in
                let n = Array.length nodes in
                let buf = Buffer.create (n * (n + 1)) in
                for i = 0 to n - 1 do
                  for j = 0 to n - 1 do
                    let (ei, hi) = idx.(i) and (ej, hj) = idx.(j) in
                    Buffer.add_char buf
                      (if i <> j && ei < ej && hi < hj then '1' else '0')
                  done;
                  Buffer.add_char buf '\n'
                done;
                Buffer.contents buf);
          });
    }

let subjects =
  [
    counter; fifo; stack; pqueue; hashtable; skiplist; two_three; ostree;
    sp_order;
  ]

let find name =
  List.find (fun (Subject s) -> String.equal s.name name) subjects

(* ---------- the engine ---------- *)

let replay ~path ~oracle_batch batches =
  let rec go i = function
    | [] -> None
    | b :: rest -> (
        match oracle_batch b with
        | Some e -> Some (Printf.sprintf "%s batch %d: %s" path i e)
        | None -> go (i + 1) rest)
  in
  go 0 batches

let diff_state ~path ~dump ~oracle_dump =
  let s = dump () and o = oracle_dump () in
  if String.equal s o then None
  else
    Some
      (Printf.sprintf "%s: final state diverges\n  structure: %s\n  oracle:    %s"
         path s o)

let check ~path ~h batches =
  match replay ~path ~oracle_batch:h.oracle_batch batches with
  | Some e -> Some e
  | None -> diff_state ~path ~dump:h.dump ~oracle_dump:h.oracle_dump

(* Busy-wait inside the logged run_batch: a batch that takes a while to
   execute leaves the batch flag set long enough for other workers (or,
   on a single core, other preempted domains) to park their records, so
   the runtime path actually produces multi-operation batches instead of
   degenerating into 96 singletons. *)
let spin iters =
  let x = ref 0 in
  for i = 1 to iters do
    x := !x lxor i
  done;
  ignore (Sys.opaque_identity !x)

let run ?(n_ops = 96) ?(seed = 1) ?(workers = 3) ?(sim_p = 4) ?backoff
    (Subject s) =
  try
    (* Path 1: the real runtime. Ops submitted from a parallel loop at
       grain 1; run_batch logs the batches the CAS race produced. The
       paper's Lemma-2 bound of 2 is checked exactly, with Invariants
       1-3. *)
    let h = s.fresh ~n:n_ops in
    let script = Opgen.script ~gen:h.gen ~n:n_ops ~seed in
    let rt_batches = ref [] in
    let inv = Obs.Invariants.create ~mode:Obs.Invariants.Exact ~structures:1 () in
    let pool =
      Runtime.Pool.create
        ~probe:(Obs.Probe.create ~invariants:inv ())
        ?backoff ~num_workers:workers ()
    in
    let stats =
      Fun.protect
        ~finally:(fun () -> Runtime.Pool.teardown pool)
        (fun () ->
          let b =
            Runtime.Batcher_rt.create ~pool ~state:()
              ~run_batch:(fun _pool () ops ->
                rt_batches := Array.copy ops :: !rt_batches;
                spin 200_000;
                h.run_batch ops)
              ()
          in
          Runtime.Pool.run pool (fun () ->
              Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n_ops (fun i ->
                  Runtime.Batcher_rt.batchify b script.(i)));
          Runtime.Batcher_rt.stats b)
    in
    if stats.ops <> n_ops then
      Error
        (Printf.sprintf "%s runtime: %d ops batched, expected %d" s.name
           stats.ops n_ops)
    else if Obs.Invariants.total_violations inv > 0 then
      Error
        (Printf.sprintf "%s runtime: online checkers fired %s" s.name
           (Obs.Json.to_string (Obs.Invariants.to_json inv)))
    else
      match check ~path:"runtime" ~h (List.rev !rt_batches) with
      | Some e -> Error (s.name ^ " " ^ e)
      | None -> (
          (* Path 2: the simulator, with a second structure instance
             driven from inside the cost model — per-op results thread
             through the simulated schedule. *)
          let h2 = s.fresh ~n:n_ops in
          let script2 = Opgen.script ~gen:h2.gen ~n:n_ops ~seed in
          let sim_batches = ref [] in
          let inner = s.cost_model () in
          let model =
            {
              Batched.Model.name = inner.Batched.Model.name;
              reset = inner.Batched.Model.reset;
              batch_cost =
                (fun idxs ->
                  let ops = Array.map (fun i -> script2.(i)) idxs in
                  sim_batches := ops :: !sim_batches;
                  h2.run_batch ops;
                  inner.Batched.Model.batch_cost idxs);
              seq_cost = inner.Batched.Model.seq_cost;
            }
          in
          let wl =
            Sim.Workload.parallel_ops ~model ~records_per_node:1
              ~n_nodes:n_ops ()
          in
          let cfg = { (Sim.Batcher.default ~p:sim_p) with Sim.Batcher.seed } in
          let metrics, events = Sim.Batcher.run_traced cfg wl in
          match Sim.Trace.validate ~p:sim_p ~batch_cap:sim_p events with
          | Error e -> Error (Printf.sprintf "%s sim trace: %s" s.name e)
          | Ok () ->
              if metrics.Sim.Metrics.batch_size_total <> n_ops then
                Error
                  (Printf.sprintf "%s sim: %d ops batched, expected %d" s.name
                     metrics.Sim.Metrics.batch_size_total n_ops)
              else (
                match check ~path:"sim" ~h:h2 (List.rev !sim_batches) with
                | Some e -> Error (s.name ^ " " ^ e)
                | None ->
                    Ok
                      {
                        subject = s.name;
                        rt_batches = stats.batches;
                        rt_max_batch = stats.max_batch;
                        sim_batches = metrics.Sim.Metrics.batches;
                        sim_makespan = metrics.Sim.Metrics.makespan;
                      }))
  with
  | Failure msg -> Error (Printf.sprintf "%s: %s" s.name msg)
  | Invalid_argument msg -> Error (Printf.sprintf "%s: %s" s.name msg)

(* ---------- order-maintenance list ---------- *)

let order_list_check ?(n = 128) ?(seed = 7) () =
  try
    let t, e0 = Batched.Order_list.create () in
    let o, t0 = Oracle.Order.create () in
    let rng = Util.Rng.create ~seed in
    let elts = ref [| (e0, t0) |] in
    for _ = 1 to n do
      let i = Util.Rng.int rng (Array.length !elts) in
      let e, tok = (!elts).(i) in
      let e' = Batched.Order_list.insert_after t e in
      let tok' = Oracle.Order.insert_after o tok in
      elts := Array.append !elts [| (e', tok') |]
    done;
    Batched.Order_list.check_invariants t;
    if Batched.Order_list.size t <> Oracle.Order.size o then
      Error
        (Printf.sprintf "order_list: size %d, oracle %d"
           (Batched.Order_list.size t) (Oracle.Order.size o))
    else begin
      let arr = !elts in
      let idx = Array.map (fun (_, tok) -> Oracle.Order.index o tok) arr in
      let err = ref None in
      Array.iteri
        (fun i (a, _) ->
          Array.iteri
            (fun j (b, _) ->
              if !err = None && i <> j then begin
                let got = Batched.Order_list.precedes a b in
                let expect = idx.(i) < idx.(j) in
                if got <> expect then
                  err :=
                    Some
                      (Printf.sprintf
                         "order_list: precedes(#%d, #%d) = %b, oracle %b" i j
                         got expect)
              end)
            arr)
        arr;
      match !err with Some e -> Error e | None -> Ok ()
    end
  with Failure msg -> Error ("order_list: " ^ msg)
