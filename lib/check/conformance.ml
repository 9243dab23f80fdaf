(* The conformance engine. One seeded script per structure, executed
   through the real runtime and through the simulator; each execution's
   batch linearization (the order [run_batch] observed — a true
   linearization by Invariant 1) is replayed against the oracle with the
   structure's documented phase order inside each batch. The runtime leg
   runs K shards through [Runtime.Shard_rt], one structure instance and
   one oracle per shard: Invariant 1 holds per shard, so each shard's
   batches are that shard's own linearization. *)

type ('op, 'o) harness = {
  gen : Util.Rng.t -> int -> 'op;
  run_batch : 'op array -> unit;
  dump : unit -> string;
      (* renders final state; also runs the structure's own
         check_invariants where it has one *)
  oracle : 'o;
  oracle_batch : 'op array -> string option;
      (* applies one batch to the oracle, diffing per-op results *)
  oracle_dump : unit -> string;
}

(* How a subject shards: its [Batched.Shard] plan, and the fan-out
   queries submitted once the parallel loop has drained, each paired
   with a check of its merged answer against the K shard oracles. *)
type ('op, 'o) sharding = {
  plan : shards:int -> 'op -> 'op Batched.Shard.plan;
  fanouts : n:int -> ('op * ('o array -> string option)) list;
}

type subject =
  | Subject : {
      name : string;
      fresh : n:int -> shards:int -> ('op, 'o) harness;
      cost_model : unit -> Batched.Model.t;
      sharding : ('op, 'o) sharding option;
    }
      -> subject

let subject_name (Subject s) = s.name
let shardable (Subject s) = Option.is_some s.sharding
let shard_counts s = if shardable s then [ 1; 2; 4 ] else [ 1 ]

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

(* Keeps the first divergence a batch replay finds. *)
let note err fmt =
  Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt

(* ---------- fan-out checks ---------- *)

(* The sorted union of the shard oracles' keys: what a quiescent
   full-domain fan-out must gather. *)
let union_keys oracles =
  List.sort compare (List.concat_map Oracle.Dict.keys (Array.to_list oracles))

let full_range keys oracles =
  let expect = union_keys oracles in
  if keys = expect then None
  else
    Some
      (Printf.sprintf
         "cross-shard range merge diverges\n  merged: %s\n  oracle: %s"
         (ints keys) (ints expect))

(* ---------- subjects ---------- *)

let counter =
  Subject
    {
      name = "counter";
      cost_model = (fun () -> Batched.Counter.sim_model ());
      sharding = None;
      fresh =
        (fun ~n:_ ~shards:_ ->
          let t = Batched.Counter.create () in
          let o = Oracle.Counter.create () in
          {
            gen = Opgen.counter_op;
            run_batch = Batched.Counter.run_batch t;
            dump = (fun () -> string_of_int (Batched.Counter.value t));
            oracle = o;
            oracle_batch =
              (fun b ->
                let err = ref None in
                Array.iter
                  (fun (op : Batched.Counter.op) ->
                    let expect = Oracle.Counter.add o op.amount in
                    if op.result <> expect then
                      note err "add %d: result %d, oracle %d" op.amount
                        op.result expect)
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
      sharding = None;
      fresh =
        (fun ~n:_ ~shards:_ ->
          let t = Batched.Fifo.create () in
          let o = Oracle.Fifo.create () in
          {
            gen = Opgen.fifo_op;
            run_batch = Batched.Fifo.run_batch t;
            dump =
              (fun () ->
                Batched.Fifo.check_invariants t;
                ints (Batched.Fifo.to_list t));
            oracle = o;
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
                        if r.dequeued <> expect then
                          note err "dequeue: %s, oracle %s"
                            (int_opt r.dequeued) (int_opt expect))
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
      sharding = None;
      fresh =
        (fun ~n:_ ~shards:_ ->
          let t = Batched.Stack.create () in
          let o = Oracle.Lifo.create () in
          {
            gen = Opgen.stack_op;
            run_batch = Batched.Stack.run_batch t;
            dump = (fun () -> ints (Batched.Stack.to_list t));
            oracle = o;
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
                        if r.popped <> expect then
                          note err "pop: %s, oracle %s" (int_opt r.popped)
                            (int_opt expect))
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
      sharding = None;
      fresh =
        (fun ~n:_ ~shards:_ ->
          let t = ref Batched.Pqueue.empty in
          let o = Oracle.Heap.create () in
          {
            gen = Opgen.pqueue_op;
            run_batch = (fun ops -> t := Batched.Pqueue.run_batch !t ops);
            dump =
              (fun () ->
                Batched.Pqueue.check_invariants !t;
                pairs (Batched.Pqueue.to_sorted_list !t));
            oracle = o;
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
                        if r.extracted <> expect then
                          note err "extract_min: %s, oracle %s"
                            (pair_opt r.extracted) (pair_opt expect))
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
      sharding =
        Some
          {
            plan = Batched.Shard.hashtable.Batched.Shard.plan;
            fanouts = (fun ~n:_ -> []);
          };
      fresh =
        (fun ~n ~shards:_ ->
          let t = Batched.Hashtable.create () in
          let o = Oracle.Dict.create () in
          {
            gen = Opgen.hashtable_op ~n;
            run_batch = Batched.Hashtable.run_batch t;
            dump =
              (fun () ->
                Batched.Hashtable.check_invariants t;
                pairs (Batched.Hashtable.to_sorted_bindings t));
            oracle = o;
            oracle_batch =
              (fun b ->
                (* Records apply in batch order, as the oracle replays
                   them, so results match exactly. *)
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Hashtable.Insert r ->
                        let expect =
                          Oracle.Dict.insert o ~key:r.i_key ~value:r.i_value
                        in
                        if r.replaced <> expect then
                          note err "insert %d: replaced %b, oracle %b" r.i_key
                            r.replaced expect
                    | Batched.Hashtable.Lookup r ->
                        let expect = Oracle.Dict.find o r.l_key in
                        if r.l_value <> expect then
                          note err "lookup %d: %s, oracle %s" r.l_key
                            (int_opt r.l_value) (int_opt expect)
                    | Batched.Hashtable.Remove r ->
                        let expect = Oracle.Dict.remove o r.r_key in
                        if r.removed <> expect then
                          note err "remove %d: removed %b, oracle %b" r.r_key
                            r.removed expect)
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
      sharding =
        Some
          {
            plan = Batched.Shard.skiplist.Batched.Shard.plan;
            fanouts =
              (fun ~n:_ ->
                let r =
                  { Batched.Skiplist.r_lo = min_int; r_hi = max_int; r_keys = [] }
                in
                [ (Batched.Skiplist.Range r, fun os -> full_range r.r_keys os) ]);
          };
      fresh =
        (fun ~n ~shards:_ ->
          let t = Batched.Skiplist.create () in
          let o = Oracle.Dict.create () in
          {
            gen = Opgen.skiplist_op ~n;
            run_batch = Batched.Skiplist.run_batch t;
            dump =
              (fun () ->
                Batched.Skiplist.check_invariants t;
                ints (Batched.Skiplist.to_list t));
            oracle = o;
            oracle_batch =
              (fun b ->
                (* Inserts, then deletes, then queries. The insert phase
                   stable-sorts, so among equal keys batch order is
                   preserved — replaying inserts in batch order marks the
                   same record [inserted]. *)
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Skiplist.Insert r ->
                        let expect = Oracle.Dict.add_if_absent o r.key in
                        if r.inserted <> expect then
                          note err "insert %d: inserted %b, oracle %b" r.key
                            r.inserted expect
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Skiplist.Delete r ->
                        let expect = Oracle.Dict.remove o r.del_key in
                        if r.deleted <> expect then
                          note err "delete %d: deleted %b, oracle %b" r.del_key
                            r.deleted expect
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Skiplist.Mem r ->
                        let expect = Oracle.Dict.mem o r.mem_key in
                        if r.found <> expect then
                          note err "mem %d: found %b, oracle %b" r.mem_key
                            r.found expect
                    | Batched.Skiplist.Range r ->
                        let expect = Oracle.Dict.range o ~lo:r.r_lo ~hi:r.r_hi in
                        if r.r_keys <> expect then
                          note err "range [%d,%d): %s, oracle %s" r.r_lo r.r_hi
                            (ints r.r_keys) (ints expect)
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
      sharding = None;
      fresh =
        (fun ~n ~shards:_ ->
          let t = ref Batched.Two_three.empty in
          let o = Oracle.Dict.create () in
          {
            gen = Opgen.two_three_op ~n;
            run_batch = (fun ops -> t := Batched.Two_three.run_batch !t ops);
            dump =
              (fun () ->
                Batched.Two_three.check_invariants !t;
                ints (Batched.Two_three.to_sorted_list !t));
            oracle = o;
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
                        if r.inserted <> expect then
                          note err "insert %d: inserted %b, oracle %b" r.key
                            r.inserted expect
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Two_three.Delete r ->
                        let expect = Oracle.Dict.remove o r.del_key in
                        if r.deleted <> expect then
                          note err "delete %d: deleted %b, oracle %b" r.del_key
                            r.deleted expect
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Two_three.Mem r ->
                        let expect = Oracle.Dict.mem o r.mem_key in
                        if r.found <> expect then
                          note err "mem %d: found %b, oracle %b" r.mem_key
                            r.found expect
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
      sharding =
        Some
          {
            plan = Batched.Shard.ostree.Batched.Shard.plan;
            fanouts =
              (fun ~n ->
                let r =
                  { Batched.Ostree.r_lo = min_int; r_hi = max_int; r_keys = [] }
                in
                let k = { Batched.Ostree.rank_of = n; rank_result = 0 } in
                [
                  (Batched.Ostree.Range r, fun os -> full_range r.r_keys os);
                  ( Batched.Ostree.Rank k,
                    fun os ->
                      let expect =
                        List.length (List.filter (fun x -> x < n) (union_keys os))
                      in
                      if k.rank_result = expect then None
                      else
                        Some
                          (Printf.sprintf
                             "cross-shard rank %d summed to %d, oracle %d" n
                             k.rank_result expect) );
                ]);
          };
      fresh =
        (fun ~n ~shards ->
          let t = ref Batched.Ostree.empty in
          let o = Oracle.Dict.create () in
          {
            gen = Opgen.ostree_op ~n ~shards;
            run_batch = (fun ops -> t := Batched.Ostree.run_batch !t ops);
            dump =
              (fun () ->
                Batched.Ostree.check_invariants !t;
                ints (Batched.Ostree.to_sorted_list !t));
            oracle = o;
            oracle_batch =
              (fun b ->
                (* Inserts, then deletes, then queries. *)
                let err = ref None in
                Array.iter
                  (function
                    | Batched.Ostree.Insert r ->
                        let expect = Oracle.Dict.add_if_absent o r.key in
                        if r.inserted <> expect then
                          note err "insert %d: inserted %b, oracle %b" r.key
                            r.inserted expect
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Ostree.Delete r ->
                        let expect = Oracle.Dict.remove o r.del_key in
                        if r.deleted <> expect then
                          note err "delete %d: deleted %b, oracle %b" r.del_key
                            r.deleted expect
                    | _ -> ())
                  b;
                Array.iter
                  (function
                    | Batched.Ostree.Rank r ->
                        let expect = Oracle.Dict.rank o r.rank_of in
                        if r.rank_result <> expect then
                          note err "rank %d: %d, oracle %d" r.rank_of
                            r.rank_result expect
                    | Batched.Ostree.Select s ->
                        let expect = Oracle.Dict.select o s.index in
                        if s.selected <> expect then
                          note err "select %d: %s, oracle %s" s.index
                            (int_opt s.selected) (int_opt expect)
                    | Batched.Ostree.Range r ->
                        let expect = Oracle.Dict.range o ~lo:r.r_lo ~hi:r.r_hi in
                        if r.r_keys <> expect then
                          note err "range [%d,%d): %s, oracle %s" r.r_lo r.r_hi
                            (ints r.r_keys) (ints expect)
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
      sharding = None;
      fresh =
        (fun ~n:_ ~shards:_ ->
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
            oracle = o;
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
                        | _ -> note err "fork: result strand missing")
                    | Batched.Sp_order.Precedes q ->
                        let expect =
                          Oracle.Sp.precedes o (lookup q.q_a) (lookup q.q_b)
                        in
                        if q.q_precedes <> expect then
                          note err "precedes: %b, oracle %b" q.q_precedes
                            expect)
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

(* One execution's first divergence: its batches replayed in order
   against the oracle (each batch first passed to [route]), then the
   final states compared. *)
let check ~path ?(route = fun _ -> None) h batches =
  let rec go i = function
    | [] ->
        let s = h.dump () and o = h.oracle_dump () in
        if String.equal s o then None
        else
          Some
            (Printf.sprintf
               "%s: final state diverges\n  structure: %s\n  oracle:    %s"
               path s o)
    | b :: rest -> (
        let e = match route b with None -> h.oracle_batch b | e -> e in
        match e with
        | Some e -> Some (Printf.sprintf "%s batch %d: %s" path i e)
        | None -> go (i + 1) rest)
  in
  go 0 batches

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

let run ?(n_ops = 96) ?(seed = 1) ?(workers = 3) ?(sim_p = 4) ?(shards = 1)
    ?backoff (Subject s) =
  if shards < 1 || (shards > 1 && Option.is_none s.sharding) then
    Error (Printf.sprintf "%s: cannot run on %d shards" s.name shards)
  else
    try
      let plan, fanouts =
        match s.sharding with
        | Some sh -> (sh.plan ~shards, sh.fanouts ~n:n_ops)
        | None -> ((fun _ -> Batched.Shard.Point 0), [])
      in
      (* Path 1: the real runtime, K shards over one pool. Ops are
         submitted by their plan from a parallel loop at grain 1, and
         run_batch logs the batches the CAS race produced per shard. The
         paper's Lemma-2 bound of 2 is checked exactly, with Invariants
         1-3, on every shard. *)
      let hs = Array.init shards (fun _ -> s.fresh ~n:n_ops ~shards) in
      let script = Opgen.script ~gen:hs.(0).gen ~n:n_ops ~seed in
      let rt_batches = Array.make shards [] in
      let inv = Obs.Invariants.create ~structures:shards () in
      let pool =
        Runtime.Pool.create
          ~probe:(Obs.Probe.create ~invariants:inv ())
          ?backoff ~num_workers:workers ()
      in
      let stats =
        Fun.protect
          ~finally:(fun () -> Runtime.Pool.teardown pool)
          (fun () ->
            let rt =
              Runtime.Shard_rt.create ~pool ~shards
                ~state:(fun i -> i)
                ~run_batch:(fun _pool i ops ->
                  rt_batches.(i) <- Array.copy ops :: rt_batches.(i);
                  spin 200_000;
                  hs.(i).run_batch ops)
                ()
            in
            let submit op =
              match plan op with
              | Batched.Shard.Point i -> Runtime.Shard_rt.batchify rt ~shard:i op
              | Batched.Shard.Fanout { sub; merge } ->
                  Runtime.Shard_rt.scatter rt sub;
                  merge ()
            in
            Runtime.Pool.run pool (fun () ->
                Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n_ops
                  (fun i -> submit script.(i));
                (* The fan-outs go once the loop has drained: they see
                   a quiescent state the shard oracles can answer. *)
                List.iter (fun (op, _) -> submit op) fanouts);
            Runtime.Shard_rt.total_stats rt)
      in
      let width op =
        match plan op with
        | Batched.Shard.Point _ -> 1
        | Batched.Shard.Fanout { sub; _ } -> Array.length sub
      in
      let expected =
        List.fold_left
          (fun acc (op, _) -> acc + width op)
          (Array.fold_left (fun acc op -> acc + width op) 0 script)
          fanouts
      in
      (* Every point op in shard i's batches must plan to shard i;
         fan-out sub-operations plan as fan-outs and are skipped. *)
      let route i =
        Array.find_map (fun op ->
            match plan op with
            | Batched.Shard.Point j when j <> i ->
                Some (Printf.sprintf "op routed to shard %d ran on shard %d" j i)
            | _ -> None)
      in
      (* Each shard against its own oracle, then the fan-outs against
         all of them. *)
      let rec check_shards i =
        if i = shards then
          let oracles = Array.map (fun h -> h.oracle) hs in
          List.find_map (fun (_, check_fanout) -> check_fanout oracles) fanouts
        else
          let path =
            if shards = 1 then "runtime"
            else Printf.sprintf "runtime shard %d" i
          in
          match
            check ~path ~route:(route i) hs.(i) (List.rev rt_batches.(i))
          with
          | Some e -> Some e
          | None -> check_shards (i + 1)
      in
      if stats.ops <> expected then
        Error
          (Printf.sprintf "%s runtime: %d ops batched, expected %d" s.name
             stats.ops expected)
      else if Obs.Invariants.total_violations inv > 0 then
        Error
          (Printf.sprintf "%s runtime: online checkers fired %s" s.name
             (Obs.Json.to_string (Obs.Invariants.to_json inv)))
      else
        match check_shards 0 with
        | Some e -> Error (s.name ^ " " ^ e)
        | None -> (
            (* Path 2: the simulator, single-instance, with a fresh
               structure driven from inside the cost model — per-op
               results thread through the simulated schedule. [fresh]
               at the same K draws the same script. *)
            let h2 = s.fresh ~n:n_ops ~shards in
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
                    (Printf.sprintf "%s sim: %d ops batched, expected %d"
                       s.name metrics.Sim.Metrics.batch_size_total n_ops)
                else (
                  match check ~path:"sim" h2 (List.rev !sim_batches) with
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
