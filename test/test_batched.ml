(* Correctness tests for the batched data structures, oracle-checked
   against simple sequential references. *)

module C = Batched.Counter
module Sk = Batched.Skiplist
module T23 = Batched.Two_three
module Pq = Batched.Pqueue
module St = Batched.Stack

(* ---------- counter ---------- *)

let test_counter_batch_prefix () =
  let c = C.create ~init:10 () in
  let ops = [| C.op 1; C.op 2; C.op 3 |] in
  C.run_batch c ops;
  Alcotest.(check int) "r0" 11 ops.(0).C.result;
  Alcotest.(check int) "r1" 13 ops.(1).C.result;
  Alcotest.(check int) "r2" 16 ops.(2).C.result;
  Alcotest.(check int) "value" 16 (C.value c)

let test_counter_negative () =
  let c = C.create () in
  let ops = [| C.op 5; C.op (-3); C.op (-10) |] in
  C.run_batch c ops;
  Alcotest.(check int) "value" (-8) (C.value c);
  Alcotest.(check int) "r1" 2 ops.(1).C.result

let test_counter_empty_batch () =
  let c = C.create ~init:4 () in
  C.run_batch c [||];
  Alcotest.(check int) "unchanged" 4 (C.value c)

let test_counter_seq_matches_batch () =
  let a = C.create () and b = C.create () in
  let amounts = [ 3; -1; 7; 0; 2 ] in
  List.iter (fun x -> ignore (C.increment_seq a x)) amounts;
  C.run_batch b (Array.of_list (List.map C.op amounts));
  Alcotest.(check int) "same value" (C.value a) (C.value b)

let prop_counter_linearizable =
  QCheck.Test.make ~name:"counter batch = sequential prefix"
    QCheck.(list small_signed_int)
    (fun amounts ->
      let c = C.create () in
      let ops = Array.of_list (List.map C.op amounts) in
      C.run_batch c ops;
      let acc = ref 0 in
      Array.for_all
        (fun (o : C.op) ->
          acc := !acc + o.C.amount;
          o.C.result = !acc)
        ops
      && C.value c = !acc)

(* ---------- stack ---------- *)

let test_stack_push_pop () =
  let s = St.create () in
  St.run_batch s [| St.push 1; St.push 2; St.push 3 |];
  Alcotest.(check (list int)) "contents" [ 1; 2; 3 ] (St.to_list s);
  let p1 = St.pop () and p2 = St.pop () in
  St.run_batch s [| p1; p2 |];
  (match p1, p2 with
  | St.Pop r1, St.Pop r2 ->
      Alcotest.(check (option int)) "first pop" (Some 3) r1.St.popped;
      Alcotest.(check (option int)) "second pop" (Some 2) r2.St.popped
  | _ -> Alcotest.fail "expected pops");
  Alcotest.(check int) "size" 1 (St.size s)

let test_stack_pop_empty () =
  let s = St.create () in
  let p = St.pop () in
  St.run_batch s [| p |];
  (match p with
  | St.Pop r -> Alcotest.(check (option int)) "none" None r.St.popped
  | _ -> assert false)

let test_stack_mixed_batch_phases () =
  (* Pushes take effect before pops within a batch, per the paper. *)
  let s = St.create () in
  let p = St.pop () in
  St.run_batch s [| p; St.push 9 |];
  (match p with
  | St.Pop r -> Alcotest.(check (option int)) "pop sees the batch push" (Some 9) r.St.popped
  | _ -> assert false);
  Alcotest.(check int) "empty after" 0 (St.size s)

let test_stack_doubling () =
  let s = St.create () in
  let cap0 = St.capacity s in
  St.run_batch s (Array.init (4 * cap0) (fun i -> St.push i));
  Alcotest.(check bool) "grew" true (St.capacity s >= 4 * cap0);
  Alcotest.(check int) "size" (4 * cap0) (St.size s)

let test_stack_shrinking () =
  let s = St.create () in
  St.run_batch s (Array.init 64 (fun i -> St.push i));
  let big = St.capacity s in
  St.run_batch s (Array.init 62 (fun _ -> St.pop ()));
  Alcotest.(check bool) "shrank" true (St.capacity s < big)

let prop_stack_matches_list_model =
  QCheck.Test.make ~name:"stack batches match a list model" ~count:200
    QCheck.(
      list_of_size Gen.(0 -- 8)
        (list_of_size Gen.(0 -- 16) (option small_nat)))
    (fun batches ->
      (* Some v = push v, None = pop. *)
      let s = St.create () in
      let model = ref [] in
      List.for_all
        (fun batch ->
          let ops =
            List.map (function Some v -> St.push v | None -> St.pop ()) batch
          in
          St.run_batch s (Array.of_list ops);
          (* Model: all pushes first, then pops, LIFO. *)
          List.iter (function Some v -> model := v :: !model | None -> ()) batch;
          let expected =
            List.filter_map
              (function
                | Some _ -> None
                | None -> begin
                    match !model with
                    | [] -> Some None
                    | x :: rest ->
                        model := rest;
                        Some (Some x)
                  end)
              batch
          in
          let actual =
            List.filter_map
              (function St.Push _ -> None | St.Pop r -> Some r.St.popped)
              ops
          in
          actual = expected && St.to_list s = List.rev !model)
        batches)

(* ---------- fifo queue ---------- *)

module Fq = Batched.Fifo

let test_fifo_order () =
  let q = Fq.create () in
  Fq.run_batch q [| Fq.enqueue 1; Fq.enqueue 2; Fq.enqueue 3 |];
  Alcotest.(check (list int)) "contents" [ 1; 2; 3 ] (Fq.to_list q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Fq.dequeue_seq q);
  Alcotest.(check (option int)) "fifo" (Some 2) (Fq.dequeue_seq q);
  Alcotest.(check int) "size" 1 (Fq.size q);
  Fq.check_invariants q

let test_fifo_phases () =
  (* Enqueues land before dequeues within a batch. *)
  let q = Fq.create () in
  let d = Fq.dequeue () in
  Fq.run_batch q [| d; Fq.enqueue 7 |];
  (match d with
  | Fq.Dequeue r -> Alcotest.(check (option int)) "sees batch enqueue" (Some 7) r.Fq.dequeued
  | _ -> assert false);
  Alcotest.(check int) "empty" 0 (Fq.size q)

let test_fifo_empty_dequeue () =
  let q = Fq.create () in
  Alcotest.(check (option int)) "none" None (Fq.dequeue_seq q)

let test_fifo_growth_wraparound () =
  let q = Fq.create () in
  (* Interleave to force head wraparound across rebuilds. *)
  for i = 0 to 499 do
    Fq.enqueue_seq q i;
    if i mod 3 = 0 then ignore (Fq.dequeue_seq q)
  done;
  Fq.check_invariants q;
  let l = Fq.to_list q in
  Alcotest.(check int) "size" (Fq.size q) (List.length l);
  (* Remaining elements ascend (FIFO order preserved). *)
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "order preserved" true (ascending l)

let prop_fifo_matches_queue_model =
  QCheck.Test.make ~name:"fifo batches match a Queue model" ~count:200
    QCheck.(
      list_of_size Gen.(0 -- 8)
        (list_of_size Gen.(0 -- 16) (option small_nat)))
    (fun batches ->
      (* Some v = enqueue v, None = dequeue. *)
      let q = Fq.create () in
      let model = Queue.create () in
      List.for_all
        (fun batch ->
          let ops =
            List.map (function Some v -> Fq.enqueue v | None -> Fq.dequeue ()) batch
          in
          Fq.run_batch q (Array.of_list ops);
          List.iter (function Some v -> Queue.add v model | None -> ()) batch;
          let expected =
            List.filter_map
              (function
                | Some _ -> None
                | None -> Some (Queue.take_opt model))
              batch
          in
          let actual =
            List.filter_map
              (function Fq.Enqueue _ -> None | Fq.Dequeue r -> Some r.Fq.dequeued)
              ops
          in
          Fq.check_invariants q;
          actual = expected && Fq.to_list q = List.of_seq (Queue.to_seq model))
        batches)

let test_fifo_sim_model () =
  let w =
    Sim.Workload.parallel_ops ~model:(Fq.sim_model ()) ~records_per_node:1 ~n_nodes:150 ()
  in
  let m = Sim.Batcher.run (Sim.Batcher.default ~p:4) w in
  Alcotest.(check int) "ops all batched" 150 m.Sim.Metrics.batch_size_total

(* ---------- skip list ---------- *)

let test_skiplist_insert_mem () =
  let s = Sk.create () in
  Alcotest.(check bool) "fresh insert" true (Sk.insert_seq s 5);
  Alcotest.(check bool) "duplicate" false (Sk.insert_seq s 5);
  Alcotest.(check bool) "mem" true (Sk.mem_seq s 5);
  Alcotest.(check bool) "not mem" false (Sk.mem_seq s 6);
  Alcotest.(check int) "length" 1 (Sk.length s)

let test_skiplist_batch () =
  let s = Sk.create () in
  ignore (Sk.insert_seq s 10);
  let ops = [| Sk.insert 5; Sk.insert 15; Sk.insert 10; Sk.mem 5; Sk.mem 99 |] in
  Sk.run_batch s ops;
  (match ops.(0), ops.(2), ops.(3), ops.(4) with
  | Sk.Insert a, Sk.Insert dup, Sk.Mem m1, Sk.Mem m2 ->
      Alcotest.(check bool) "inserted 5" true a.Sk.inserted;
      Alcotest.(check bool) "dup not inserted" false dup.Sk.inserted;
      Alcotest.(check bool) "mem 5" true m1.Sk.found;
      Alcotest.(check bool) "mem 99" false m2.Sk.found
  | _ -> Alcotest.fail "unexpected ops");
  Alcotest.(check (list int)) "sorted" [ 5; 10; 15 ] (Sk.to_list s);
  Sk.check_invariants s

let test_skiplist_batch_duplicates_within () =
  let s = Sk.create () in
  let ops = [| Sk.insert 7; Sk.insert 7; Sk.insert 7 |] in
  Sk.run_batch s ops;
  Alcotest.(check int) "one key" 1 (Sk.length s);
  let inserted =
    Array.to_list ops
    |> List.filter (function Sk.Insert r -> r.Sk.inserted | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "exactly one marked inserted" 1 inserted

let test_skiplist_large_sorted () =
  let s = Sk.create ~seed:9 () in
  for i = 999 downto 0 do
    ignore (Sk.insert_seq s i)
  done;
  Alcotest.(check int) "length" 1000 (Sk.length s);
  Alcotest.(check (list int)) "sorted" (List.init 1000 Fun.id) (Sk.to_list s);
  Sk.check_invariants s

let prop_skiplist_matches_set =
  QCheck.Test.make ~name:"skiplist batches match Set" ~count:100
    QCheck.(
      pair small_int
        (list_of_size Gen.(0 -- 8) (list_of_size Gen.(0 -- 20) (int_bound 500))))
    (fun (seed, batches) ->
      let module IS = Set.Make (Int) in
      let s = Sk.create ~seed () in
      let model = ref IS.empty in
      List.iter
        (fun batch ->
          Sk.run_batch s (Array.of_list (List.map Sk.insert batch));
          List.iter (fun k -> model := IS.add k !model) batch)
        batches;
      Sk.check_invariants s;
      Sk.to_list s = IS.elements !model)

let test_skiplist_delete () =
  let s = Sk.create () in
  List.iter (fun k -> ignore (Sk.insert_seq s k)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "delete present" true (Sk.delete_seq s 3);
  Alcotest.(check bool) "delete absent" false (Sk.delete_seq s 3);
  Alcotest.(check (list int)) "remaining" [ 1; 2; 4; 5 ] (Sk.to_list s);
  Sk.check_invariants s

let test_skiplist_delete_all () =
  let s = Sk.create ~seed:5 () in
  for i = 0 to 199 do
    ignore (Sk.insert_seq s i)
  done;
  for i = 0 to 199 do
    Alcotest.(check bool) "deleted" true (Sk.delete_seq s i)
  done;
  Alcotest.(check int) "empty" 0 (Sk.length s);
  Sk.check_invariants s

let test_skiplist_batch_phases () =
  (* Inserts, then deletes, then membership. *)
  let s = Sk.create () in
  ignore (Sk.insert_seq s 1);
  let m1 = Sk.mem 1 and m2 = Sk.mem 2 in
  Sk.run_batch s [| m1; Sk.delete 1; Sk.insert 2; m2 |];
  (match m1, m2 with
  | Sk.Mem a, Sk.Mem b ->
      Alcotest.(check bool) "1 deleted before mem" false a.Sk.found;
      Alcotest.(check bool) "2 inserted before mem" true b.Sk.found
  | _ -> assert false);
  Sk.check_invariants s

let prop_skiplist_with_deletes_matches_set =
  QCheck.Test.make ~name:"skiplist insert/delete batches match Set" ~count:150
    QCheck.(
      list_of_size Gen.(0 -- 8)
        (list_of_size Gen.(0 -- 20) (pair bool (int_bound 100))))
    (fun batches ->
      let module IS = Set.Make (Int) in
      let s = Sk.create () in
      let model = ref IS.empty in
      List.iter
        (fun batch ->
          let ops =
            List.map (fun (ins, k) -> if ins then Sk.insert k else Sk.delete k) batch
          in
          Sk.run_batch s (Array.of_list ops);
          (* Model the same phases: all inserts, then all deletes. *)
          List.iter (fun (ins, k) -> if ins then model := IS.add k !model) batch;
          List.iter (fun (ins, k) -> if not ins then model := IS.remove k !model) batch)
        batches;
      Sk.check_invariants s;
      Sk.to_list s = IS.elements !model)

let seq_pfor n body =
  for i = 0 to n - 1 do
    body i
  done

let test_skiplist_parallel_bop_duplicates () =
  let s = Sk.create () in
  Sk.run_batch_with ~pfor:seq_pfor s [| Sk.insert 5; Sk.insert 5; Sk.insert 3 |];
  Alcotest.(check (list int)) "dedup" [ 3; 5 ] (Sk.to_list s);
  Sk.check_invariants s

let prop_skiplist_parallel_bop_matches_set =
  QCheck.Test.make ~name:"parallel BOP batches match Set" ~count:100
    QCheck.(list_of_size Gen.(0 -- 8) (list_of_size Gen.(0 -- 20) (int_bound 300)))
    (fun batches ->
      let module IS = Set.Make (Int) in
      let s = Sk.create () in
      let model = ref IS.empty in
      List.iter
        (fun batch ->
          Sk.run_batch_with ~pfor:seq_pfor s
            (Array.of_list (List.map Sk.insert batch));
          List.iter (fun k -> model := IS.add k !model) batch)
        batches;
      Sk.check_invariants s;
      Sk.to_list s = IS.elements !model)

(* [hi = None] stands for [max_int], the bound Shard.skiplist fan-outs
   pass; every query also runs on an empty list. Bounds reach past the
   stored keys on both sides, so [lo >= hi] and empty answers occur. *)
let prop_skiplist_range_matches_set =
  QCheck.Test.make ~name:"skiplist range_seq matches Set" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 60) (int_range (-50) 250))
        (list_of_size Gen.(1 -- 10)
           (pair (int_range (-60) 260) (option (int_range (-60) 260)))))
    (fun (keys, queries) ->
      let module IS = Set.Make (Int) in
      let s = Sk.create () and empty = Sk.create () in
      List.iter (fun k -> ignore (Sk.insert_seq s k)) keys;
      let model = IS.of_list keys in
      List.for_all
        (fun (lo, hi) ->
          let hi = Option.value hi ~default:max_int in
          let expect = IS.elements (IS.filter (fun k -> lo <= k && k < hi) model) in
          let q = Sk.range ~lo ~hi in
          Sk.run_batch s [| q |];
          Sk.range_seq s ~lo ~hi = expect
          && (match q with Sk.Range r -> r.Sk.r_keys = expect | _ -> false)
          && Sk.range_seq empty ~lo ~hi = [])
        queries)

(* max_int is the tail sentinel's key: refused on insert, before a batch
   changes anything, and never reported present or deleted. *)
let test_skiplist_max_int_reserved () =
  let s = Sk.create () in
  List.iter (fun k -> ignore (Sk.insert_seq s k)) [ min_int; -3; 7 ];
  let reserved = Invalid_argument "Skiplist: max_int is reserved for the tail sentinel" in
  Alcotest.check_raises "insert_seq" reserved (fun () -> ignore (Sk.insert_seq s max_int));
  Alcotest.check_raises "run_batch" reserved (fun () ->
      Sk.run_batch s [| Sk.insert 1; Sk.insert max_int |]);
  Alcotest.check_raises "run_batch_with" reserved (fun () ->
      Sk.run_batch_with ~pfor:seq_pfor s [| Sk.insert 1; Sk.insert max_int |]);
  Alcotest.(check (list int)) "unchanged" [ min_int; -3; 7 ] (Sk.to_list s);
  Alcotest.(check bool) "mem max_int" false (Sk.mem_seq s max_int);
  Alcotest.(check bool) "delete max_int" false (Sk.delete_seq s max_int);
  Alcotest.(check bool) "mem min_int" true (Sk.mem_seq s min_int);
  Alcotest.(check (list int)) "range to max_int" [ -3; 7 ]
    (Sk.range_seq s ~lo:(-3) ~hi:max_int);
  Alcotest.(check (list int)) "range from max_int" [] (Sk.range_seq s ~lo:max_int ~hi:max_int);
  Sk.check_invariants s

(* A membership search on a built list is closure-free and allocates
   nothing. Gc.minor_words boxes its own float result, hence the slack. *)
let test_skiplist_mem_allocation_free () =
  let s = Sk.create ~seed:3 () in
  for i = 0 to 4_999 do
    ignore (Sk.insert_seq s (2 * i))
  done;
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for k = 0 to 9_999 do
    if Sk.mem_seq s k then incr hits
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check int) "hits" 5_000 !hits;
  if delta > 16. then Alcotest.failf "mem_seq allocated %.0f minor words" delta

(* An insert_seq of a new key stores its node in the arena: it allocates
   at most the boxed 64-bit height draw (3 words) where Rng.next64 is not
   inlined across modules. A delete_seq allocates nothing: its slice goes
   on a free list. *)
let test_skiplist_update_allocation () =
  let s = Sk.create ~seed:3 () in
  for i = 0 to 4_999 do
    ignore (Sk.insert_seq s (2 * i))
  done;
  let hits = ref 0 in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let deletes =
    words (fun () ->
        for i = 0 to 2_499 do
          if Sk.delete_seq s (4 * i) then incr hits
        done)
  in
  let inserts =
    words (fun () ->
        for i = 0 to 1_999 do
          if Sk.insert_seq s ((2 * i) + 1) then incr hits
        done)
  in
  Alcotest.(check int) "hits" 4_500 !hits;
  Sk.check_invariants s;
  if deletes > 16. then Alcotest.failf "2500 delete_seq allocated %.0f minor words" deletes;
  if inserts > (3. *. 2_000.) +. 16. then
    Alcotest.failf "2000 insert_seq allocated %.0f minor words" inserts

(* A batch allocates per record only what insert_seq does, the boxed
   height draw: its sort, rows and searches reuse arrays the list keeps
   across batches. The first batch grows them; the second is measured.
   The bound is 5 words per inserted record. *)
let test_skiplist_batch_allocation () =
  let s = Sk.create ~seed:3 () in
  for i = 0 to 4_999 do
    ignore (Sk.insert_seq s (2 * i))
  done;
  let batch lo = Array.init 100 (fun i -> Sk.insert ((2 * (lo + i)) + 1)) in
  let warm = batch 0 and measured = batch 1_000 in
  Sk.run_batch_with ~pfor:seq_pfor s warm;
  let before = Gc.minor_words () in
  Sk.run_batch_with ~pfor:seq_pfor s measured;
  let words = Gc.minor_words () -. before in
  let inserted =
    Array.fold_left
      (fun n -> function Sk.Insert r when r.Sk.inserted -> n + 1 | _ -> n)
      0 measured
  in
  Alcotest.(check int) "inserted" 100 inserted;
  Sk.check_invariants s;
  if words > 5. *. 100. then
    Alcotest.failf "a batch of 100 inserts allocated %.0f minor words" words

(* Rounds of insert, delete-all and re-insert from an empty list: the
   first round grows the arena through several doublings, and later
   rounds reuse the freed slices instead of growing it further. *)
let test_skiplist_arena_churn () =
  let s = Sk.create ~seed:11 () in
  let words () = Obj.reachable_words (Obj.repr s) in
  let empty = words () in
  let n = 3_000 and full = ref 0 in
  for round = 1 to 5 do
    let key i = (7 * i) + round in
    for i = 0 to n - 1 do
      if not (Sk.insert_seq s (key i)) then Alcotest.failf "round %d: insert %d" round i
    done;
    Sk.check_invariants s;
    Alcotest.(check (list int)) "full" (List.init n key) (Sk.to_list s);
    if round = 1 then full := words ();
    (* Delete from the middle outwards, so free-list order differs from
       allocation order. *)
    for j = 0 to n - 1 do
      let i = if j mod 2 = 0 then (n / 2) + (j / 2) else (n / 2) - 1 - (j / 2) in
      if not (Sk.delete_seq s (key i)) then Alcotest.failf "round %d: delete %d" round i
    done;
    Sk.check_invariants s;
    Alcotest.(check int) "empty" 0 (Sk.length s)
  done;
  if !full < 8 * empty then
    Alcotest.failf "first round grew %d words to only %d" empty !full;
  if words () > 2 * !full then
    Alcotest.failf "five rounds took %d words, one took %d: freed slices not reused"
      (words ()) !full

module IS = Set.Make (Int)

let mixed_op (kind, k) =
  match kind with
  | 0 -> Sk.insert k
  | 1 -> Sk.delete k
  | 2 -> Sk.mem k
  | _ -> Sk.range ~lo:k ~hi:(k + 16)

(* A batch's answers against [model] in the documented phase order
   (inserts, then deletes, then queries), applying the batch to [model]. *)
let batch_matches_set model ops =
  let ok = ref true in
  let expect b = ok := !ok && b in
  Array.iter
    (function
      | Sk.Insert r ->
          expect (r.Sk.inserted = not (IS.mem r.Sk.key !model));
          model := IS.add r.Sk.key !model
      | _ -> ())
    ops;
  Array.iter
    (function
      | Sk.Delete r ->
          expect (r.Sk.deleted = IS.mem r.Sk.del_key !model);
          model := IS.remove r.Sk.del_key !model
      | _ -> ())
    ops;
  Array.iter
    (function
      | Sk.Mem r -> expect (r.Sk.found = IS.mem r.Sk.mem_key !model)
      | Sk.Range r ->
          expect
            (r.Sk.r_keys
            = IS.elements (IS.filter (fun k -> r.Sk.r_lo <= k && k < r.Sk.r_hi) !model))
      | _ -> ())
    ops;
  !ok

(* Mixed batches through run_batch_with with the searches spread over a
   real two-worker pool, checked op by op against Set in the documented
   phase order, and the arena audited after every batch. Batches reach
   past one chunk of searches, so chunks do run in parallel. *)
let pool2 = lazy (Runtime.Pool.create ~num_workers:2 ())

let () =
  at_exit (fun () -> if Lazy.is_val pool2 then Runtime.Pool.teardown (Lazy.force pool2))

let prop_skiplist_pooled_bop_matches_set =
  QCheck.Test.make ~name:"pooled BOP mixed batches match Set" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 8)
        (list_of_size Gen.(0 -- 400) (pair (int_bound 3) (int_bound 300))))
    (fun batches ->
      let pool = Lazy.force pool2 in
      let pfor n body = Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n body in
      let s = Sk.create () in
      let model = ref IS.empty in
      List.for_all
        (fun batch ->
          let ops = Array.of_list (List.map mixed_op batch) in
          Runtime.Pool.run pool (fun () -> Sk.run_batch_with ~pfor s ops);
          Sk.check_invariants s;
          batch_matches_set model ops && Sk.to_list s = IS.elements !model)
        batches)

(* Every path of the list against Set, with check_invariants after each
   step: ascending insert_seq runs, the finger's case; lone insert_seq
   and delete_seq of random and repeated keys; and mixed batches whose
   keys repeat and whose inserts and membership queries span several
   lockstep chunks. check_invariants audits the finger (row 0) on every
   call, so a path that leaves it stale fails here, as does a splice
   order that leaves a saved row stale. *)
type sl_step =
  | Run of int * int * int  (* insert_seq lo, lo + stride, ... : n keys *)
  | Ins of int
  | Del of int
  | Batch of (int * int) list

let sl_step_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map3 (fun lo n stride -> Run (lo, n, stride)) (int_bound 200) (int_range 1 40)
             (int_range 1 3));
        (3, map (fun k -> Ins k) (int_bound 300));
        (2, map (fun k -> Del k) (int_bound 300));
        ( 2,
          map
            (fun ops -> Batch ops)
            (list_size (int_range 2 300)
               (pair (frequencyl [ (3, 0); (1, 1); (2, 2); (1, 3) ]) (int_bound 300))) );
      ])

let sl_step_print = function
  | Run (lo, n, stride) -> Printf.sprintf "Run (%d, %d, %d)" lo n stride
  | Ins k -> Printf.sprintf "Ins %d" k
  | Del k -> Printf.sprintf "Del %d" k
  | Batch ops ->
      Printf.sprintf "Batch [%s]"
        (String.concat "; " (List.map (fun (o, k) -> Printf.sprintf "(%d, %d)" o k) ops))

let prop_skiplist_paths_match_set =
  QCheck.Test.make ~name:"skiplist seq and batch paths match Set" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair int (list sl_step_print))
       QCheck.Gen.(pair small_nat (list_size (int_range 1 25) sl_step_gen)))
    (fun (seed, steps) ->
      let s = Sk.create ~seed () in
      let model = ref IS.empty in
      let insert k =
        let fresh = not (IS.mem k !model) in
        model := IS.add k !model;
        Sk.insert_seq s k = fresh
      in
      List.for_all
        (fun step ->
          let ok =
            match step with
            | Run (lo, n, stride) ->
                List.for_all (fun i -> insert (lo + (i * stride))) (List.init n Fun.id)
            | Ins k -> insert k
            | Del k ->
                let present = IS.mem k !model in
                model := IS.remove k !model;
                Sk.delete_seq s k = present
            | Batch ops ->
                let ops = Array.of_list (List.map mixed_op ops) in
                Sk.run_batch_with ~pfor:seq_pfor s ops;
                batch_matches_set model ops
          in
          Sk.check_invariants s;
          ok && Sk.to_list s = IS.elements !model)
        steps)

(* ---------- 2-3 tree ---------- *)

let test_two_three_insert () =
  let t = List.fold_left T23.insert T23.empty [ 5; 2; 8; 1; 9; 3 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 8; 9 ] (T23.to_sorted_list t);
  Alcotest.(check int) "size" 6 (T23.size t);
  Alcotest.(check bool) "mem" true (T23.mem t 8);
  Alcotest.(check bool) "not mem" false (T23.mem t 4);
  T23.check_invariants t

let test_two_three_duplicates () =
  let t = List.fold_left T23.insert T23.empty [ 5; 5; 5 ] in
  Alcotest.(check int) "size" 1 (T23.size t)

let test_two_three_batch () =
  let t = List.fold_left T23.insert T23.empty [ 10; 20 ] in
  let ops = [| T23.insert_op 5; T23.insert_op 15; T23.insert_op 10; T23.mem_op 15 |] in
  let t = T23.run_batch t ops in
  Alcotest.(check (list int)) "sorted" [ 5; 10; 15; 20 ] (T23.to_sorted_list t);
  (match ops.(2), ops.(3) with
  | T23.Insert dup, T23.Mem m ->
      Alcotest.(check bool) "dup" false dup.T23.inserted;
      Alcotest.(check bool) "mem sees batch" true m.T23.found
  | _ -> Alcotest.fail "unexpected");
  T23.check_invariants t

let test_two_three_height_logarithmic () =
  let t = List.fold_left T23.insert T23.empty (List.init 1023 Fun.id) in
  (* Height of a 2-3 tree with n keys is at most log2(n+1). *)
  Alcotest.(check bool) "height bounded" true (T23.height t <= 10);
  T23.check_invariants t

let prop_two_three_matches_set =
  QCheck.Test.make ~name:"2-3 tree batches match Set" ~count:100
    QCheck.(list_of_size Gen.(0 -- 8) (list_of_size Gen.(0 -- 20) (int_bound 300)))
    (fun batches ->
      let module IS = Set.Make (Int) in
      let t, model =
        List.fold_left
          (fun (t, model) batch ->
            let ops = Array.of_list (List.map T23.insert_op batch) in
            let t = T23.run_batch t ops in
            (t, List.fold_left (fun m k -> IS.add k m) model batch))
          (T23.empty, IS.empty) batches
      in
      T23.check_invariants t;
      T23.to_sorted_list t = IS.elements model)

let test_two_three_delete () =
  let t = List.fold_left T23.insert T23.empty [ 5; 2; 8; 1; 9; 3; 7 ] in
  let t = T23.delete t 5 in
  T23.check_invariants t;
  Alcotest.(check (list int)) "after delete 5" [ 1; 2; 3; 7; 8; 9 ] (T23.to_sorted_list t);
  let t = T23.delete t 42 in
  Alcotest.(check int) "absent delete no-op" 6 (T23.size t);
  T23.check_invariants t

let test_two_three_delete_all_orders () =
  (* Delete every key in several orders; tree must stay balanced. *)
  let keys = List.init 64 Fun.id in
  let build () = List.fold_left T23.insert T23.empty keys in
  List.iter
    (fun order ->
      let t = List.fold_left T23.delete (build ()) order in
      T23.check_invariants t;
      Alcotest.(check int) "emptied" 0 (T23.size t))
    [ keys; List.rev keys; List.filter (fun k -> k mod 2 = 0) keys @ List.filter (fun k -> k mod 2 = 1) keys ]

let test_two_three_batch_delete () =
  let t = List.fold_left T23.insert T23.empty [ 1; 2; 3 ] in
  let d1 = T23.delete_op 2 and d2 = T23.delete_op 9 and m = T23.mem_op 2 in
  let t = T23.run_batch t [| d1; m; d2; T23.insert_op 4 |] in
  (match d1, d2, m with
  | T23.Delete a, T23.Delete b, T23.Mem q ->
      Alcotest.(check bool) "deleted 2" true a.T23.deleted;
      Alcotest.(check bool) "absent" false b.T23.deleted;
      Alcotest.(check bool) "mem after delete" false q.T23.found
  | _ -> assert false);
  Alcotest.(check (list int)) "net effect" [ 1; 3; 4 ] (T23.to_sorted_list t);
  T23.check_invariants t

let prop_two_three_with_deletes_matches_set =
  QCheck.Test.make ~name:"2-3 tree insert/delete matches Set" ~count:200
    QCheck.(list (pair bool (int_bound 60)))
    (fun cmds ->
      let module IS = Set.Make (Int) in
      let t, model =
        List.fold_left
          (fun (t, m) (ins, k) ->
            if ins then (T23.insert t k, IS.add k m) else (T23.delete t k, IS.remove k m))
          (T23.empty, IS.empty) cmds
      in
      T23.check_invariants t;
      T23.to_sorted_list t = IS.elements model)

(* ---------- priority queue ---------- *)

let test_pqueue_order () =
  let q =
    List.fold_left
      (fun q (p, v) -> Pq.insert q ~prio:p ~value:v)
      Pq.empty
      [ (5, 50); (1, 10); (3, 30) ]
  in
  Pq.check_invariants q;
  Alcotest.(check (option (pair int int))) "min" (Some (1, 10)) (Pq.find_min q);
  let sorted = Pq.to_sorted_list q in
  Alcotest.(check (list int)) "prios ascending" [ 1; 3; 5 ] (List.map fst sorted)

let test_pqueue_batch () =
  let q = Pq.insert Pq.empty ~prio:7 ~value:70 in
  let e1 = Pq.extract_op () and e2 = Pq.extract_op () in
  let ops = [| Pq.insert_op ~prio:3 ~value:30; e1; e2; Pq.insert_op ~prio:1 ~value:11 |] in
  let q = Pq.run_batch q ops in
  (* Inserts apply first: heap contains prios 7, 3, 1; extractions get 1 then 3. *)
  (match e1, e2 with
  | Pq.Extract_min r1, Pq.Extract_min r2 ->
      Alcotest.(check (option (pair int int))) "e1" (Some (1, 11)) r1.Pq.extracted;
      Alcotest.(check (option (pair int int))) "e2" (Some (3, 30)) r2.Pq.extracted
  | _ -> Alcotest.fail "unexpected");
  Alcotest.(check int) "size" 1 (Pq.size q);
  Pq.check_invariants q

let test_pqueue_extract_empty () =
  let e = Pq.extract_op () in
  let q = Pq.run_batch Pq.empty [| e |] in
  (match e with
  | Pq.Extract_min r -> Alcotest.(check (option (pair int int))) "none" None r.Pq.extracted
  | _ -> assert false);
  Alcotest.(check bool) "still empty" true (Pq.is_empty q)

let prop_pqueue_heapsort =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list small_nat)
    (fun l ->
      let q = List.fold_left (fun q p -> Pq.insert q ~prio:p ~value:p) Pq.empty l in
      Pq.check_invariants q;
      List.map fst (Pq.to_sorted_list q) = List.sort compare l)

let prop_pqueue_batch_equals_seq =
  QCheck.Test.make ~name:"pqueue batch inserts = sequential inserts" ~count:200
    QCheck.(list small_nat)
    (fun l ->
      let seq = List.fold_left (fun q p -> Pq.insert q ~prio:p ~value:p) Pq.empty l in
      let batched =
        Pq.run_batch Pq.empty
          (Array.of_list (List.map (fun p -> Pq.insert_op ~prio:p ~value:p) l))
      in
      Pq.to_sorted_list seq = Pq.to_sorted_list batched)

(* ---------- cost models ---------- *)

let test_counter_model_shape () =
  let m = C.sim_model () in
  let p = m.Batched.Model.batch_cost (Array.init 8 Fun.id) in
  (* Two sweeps over 8 leaves: work 2*22, span 2*7. *)
  Alcotest.(check int) "work" 44 (Par.work p);
  Alcotest.(check int) "span" 14 (Par.span p)

let test_skiplist_model_grows () =
  let m = Sk.sim_model ~initial_size:1024 () in
  let c1 = m.Batched.Model.seq_cost 0 in
  for i = 1 to 100_000 do
    ignore (m.Batched.Model.seq_cost i)
  done;
  let c2 = m.Batched.Model.seq_cost 0 in
  Alcotest.(check bool) "cost grows with size" true (c2 > c1);
  m.Batched.Model.reset ();
  Alcotest.(check int) "reset restores" c1 (m.Batched.Model.seq_cost 0)

let test_stack_model_amortized () =
  let m = St.sim_model () in
  (* Total work of n sequential pushes is O(n) amortized: <= c*n. *)
  let total = ref 0 in
  let n = 10_000 in
  for i = 0 to n - 1 do
    total := !total + m.Batched.Model.seq_cost i
  done;
  Alcotest.(check bool) "amortized linear" true (!total < 8 * n)

let test_model_log2 () =
  Alcotest.(check int) "log2 2" 1 (Batched.Model.log2_cost 2);
  Alcotest.(check int) "log2 1024" 10 (Batched.Model.log2_cost 1024);
  Alcotest.(check bool) "log2 small" true (Batched.Model.log2_cost 0 >= 1)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_counter_linearizable;
      prop_stack_matches_list_model;
      prop_fifo_matches_queue_model;
      prop_skiplist_matches_set;
      prop_skiplist_with_deletes_matches_set;
      prop_skiplist_parallel_bop_matches_set;
      prop_skiplist_range_matches_set;
      prop_skiplist_pooled_bop_matches_set;
      prop_skiplist_paths_match_set;
      prop_two_three_matches_set;
      prop_two_three_with_deletes_matches_set;
      prop_pqueue_heapsort;
      prop_pqueue_batch_equals_seq;
    ]

let () =
  Alcotest.run "batched"
    [
      ( "counter",
        [
          Alcotest.test_case "batch prefix" `Quick test_counter_batch_prefix;
          Alcotest.test_case "negative amounts" `Quick test_counter_negative;
          Alcotest.test_case "empty batch" `Quick test_counter_empty_batch;
          Alcotest.test_case "seq matches batch" `Quick test_counter_seq_matches_batch;
        ] );
      ( "stack",
        [
          Alcotest.test_case "push pop" `Quick test_stack_push_pop;
          Alcotest.test_case "pop empty" `Quick test_stack_pop_empty;
          Alcotest.test_case "mixed phases" `Quick test_stack_mixed_batch_phases;
          Alcotest.test_case "doubling" `Quick test_stack_doubling;
          Alcotest.test_case "shrinking" `Quick test_stack_shrinking;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "phases" `Quick test_fifo_phases;
          Alcotest.test_case "empty dequeue" `Quick test_fifo_empty_dequeue;
          Alcotest.test_case "growth wraparound" `Quick test_fifo_growth_wraparound;
          Alcotest.test_case "sim model" `Quick test_fifo_sim_model;
        ] );
      ( "skiplist",
        [
          Alcotest.test_case "insert mem" `Quick test_skiplist_insert_mem;
          Alcotest.test_case "batch" `Quick test_skiplist_batch;
          Alcotest.test_case "batch duplicates" `Quick test_skiplist_batch_duplicates_within;
          Alcotest.test_case "large sorted" `Quick test_skiplist_large_sorted;
          Alcotest.test_case "delete" `Quick test_skiplist_delete;
          Alcotest.test_case "delete all" `Quick test_skiplist_delete_all;
          Alcotest.test_case "batch phases" `Quick test_skiplist_batch_phases;
          Alcotest.test_case "parallel BOP duplicates" `Quick
            test_skiplist_parallel_bop_duplicates;
          Alcotest.test_case "max_int reserved" `Quick test_skiplist_max_int_reserved;
          Alcotest.test_case "mem allocation-free" `Quick test_skiplist_mem_allocation_free;
          Alcotest.test_case "update allocation" `Quick test_skiplist_update_allocation;
          Alcotest.test_case "batch allocation" `Quick test_skiplist_batch_allocation;
          Alcotest.test_case "arena churn" `Quick test_skiplist_arena_churn;
        ] );
      ( "two_three",
        [
          Alcotest.test_case "insert" `Quick test_two_three_insert;
          Alcotest.test_case "duplicates" `Quick test_two_three_duplicates;
          Alcotest.test_case "batch" `Quick test_two_three_batch;
          Alcotest.test_case "height" `Quick test_two_three_height_logarithmic;
          Alcotest.test_case "delete" `Quick test_two_three_delete;
          Alcotest.test_case "delete all orders" `Quick test_two_three_delete_all_orders;
          Alcotest.test_case "batch delete" `Quick test_two_three_batch_delete;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "batch" `Quick test_pqueue_batch;
          Alcotest.test_case "extract empty" `Quick test_pqueue_extract_empty;
        ] );
      ( "models",
        [
          Alcotest.test_case "counter shape" `Quick test_counter_model_shape;
          Alcotest.test_case "skiplist grows" `Quick test_skiplist_model_grows;
          Alcotest.test_case "stack amortized" `Quick test_stack_model_amortized;
          Alcotest.test_case "log2" `Quick test_model_log2;
        ] );
      ("properties", qcheck_cases);
    ]
