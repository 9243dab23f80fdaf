(* Tests for the order-maintenance list, the SP-order structure, and the
   batched hash table. *)

module OL = Batched.Order_list
module Sp = Batched.Sp_order
module H = Batched.Hashtable

(* ---------- order list ---------- *)

let test_order_list_basic () =
  let t, a = OL.create () in
  let b = OL.insert_after t a in
  let c = OL.insert_after t a in
  (* a < c < b : c was inserted after a, before b. *)
  Alcotest.(check bool) "a<b" true (OL.precedes a b);
  Alcotest.(check bool) "a<c" true (OL.precedes a c);
  Alcotest.(check bool) "c<b" true (OL.precedes c b);
  Alcotest.(check bool) "not b<c" false (OL.precedes b c);
  Alcotest.(check bool) "irreflexive" false (OL.precedes a a);
  Alcotest.(check int) "size" 3 (OL.size t);
  OL.check_invariants t

let test_order_list_dense_inserts () =
  (* Hammer one gap to force relabeling. *)
  let t, a = OL.create () in
  let _last =
    List.fold_left
      (fun prev _ ->
        let e = OL.insert_after t a in
        Alcotest.(check bool) "new elt before previous" true (OL.precedes e prev);
        e)
      (OL.insert_after t a)
      (List.init 5000 Fun.id)
  in
  Alcotest.(check bool) "relabeled at least once" true (OL.relabels t > 0);
  OL.check_invariants t

let test_order_list_different_orders_rejected () =
  let _, a = OL.create () in
  let _, b = OL.create () in
  (match OL.compare a b with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let prop_order_list_total_order =
  QCheck.Test.make ~name:"order list is a strict total order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 1000))
    (fun picks ->
      (* Build by inserting after random existing elements. *)
      let t, base = OL.create () in
      let elts = ref [| base |] in
      List.iter
        (fun r ->
          let anchor = !elts.(r mod Array.length !elts) in
          let e = OL.insert_after t anchor in
          elts := Array.append !elts [| e |])
        picks;
      OL.check_invariants t;
      let arr = !elts in
      let n = Array.length arr in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let ij = OL.precedes arr.(i) arr.(j) in
          let ji = OL.precedes arr.(j) arr.(i) in
          if i = j then begin
            if ij || ji then ok := false
          end
          else if ij = ji then ok := false (* exactly one direction *)
        done
      done;
      !ok)

(* ---------- SP order ---------- *)

let test_sp_fork_relations () =
  let t, root = Sp.create () in
  let l, r, c = Sp.fork_seq t root in
  Alcotest.(check bool) "root<l" true (Sp.precedes_seq t root l);
  Alcotest.(check bool) "root<r" true (Sp.precedes_seq t root r);
  Alcotest.(check bool) "root<c" true (Sp.precedes_seq t root c);
  Alcotest.(check bool) "l || r" true (Sp.parallel_seq t l r);
  Alcotest.(check bool) "l<c" true (Sp.precedes_seq t l c);
  Alcotest.(check bool) "r<c" true (Sp.precedes_seq t r c);
  Alcotest.(check bool) "irreflexive" false (Sp.precedes_seq t l l);
  Sp.check_invariants t

let test_sp_nested_forks () =
  let t, root = Sp.create () in
  let l, r, c = Sp.fork_seq t root in
  let ll, lr, lc = Sp.fork_seq t l in
  (* Descendants of l are parallel to r but precede c. *)
  Alcotest.(check bool) "ll || r" true (Sp.parallel_seq t ll r);
  Alcotest.(check bool) "lr || r" true (Sp.parallel_seq t lr r);
  Alcotest.(check bool) "lc || r" true (Sp.parallel_seq t lc r);
  Alcotest.(check bool) "ll<c" true (Sp.precedes_seq t ll c);
  Alcotest.(check bool) "lc<c" true (Sp.precedes_seq t lc c);
  Alcotest.(check bool) "ll || lr" true (Sp.parallel_seq t ll lr);
  Alcotest.(check bool) "ll<lc" true (Sp.precedes_seq t ll lc);
  (* And the right branch's descendants are parallel to all of l's. *)
  let rl, rr_, rc = Sp.fork_seq t r in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Alcotest.(check bool) "cross-branch parallel" true (Sp.parallel_seq t x y))
        [ rl; rr_; rc ])
    [ ll; lr; lc ];
  Sp.check_invariants t

let test_sp_batch () =
  let t, root = Sp.create () in
  let f1 = Sp.fork_op root in
  Sp.run_batch t [| f1 |];
  match f1 with
  | Sp.Fork { left = Some l; right = Some r; continuation = Some c; _ } ->
      (* A batch mixing a fork and queries: queries see the fork. *)
      let f2 = Sp.fork_op l in
      let q1 = Sp.precedes_op root c in
      let q2 = Sp.precedes_op l r in
      Sp.run_batch t [| q1; f2; q2 |];
      (match q1, q2 with
      | Sp.Precedes a, Sp.Precedes b ->
          Alcotest.(check bool) "root<c" true a.Sp.q_precedes;
          Alcotest.(check bool) "l not< r" false b.Sp.q_precedes
      | _ -> Alcotest.fail "bad records");
      (match f2 with
      | Sp.Fork { left = Some _; right = Some _; continuation = Some _; _ } -> ()
      | _ -> Alcotest.fail "fork not filled");
      Sp.check_invariants t
  | _ -> Alcotest.fail "fork not filled"

(* Oracle: compare SP relations against interval nesting computed from a
   random fork tree. Each strand gets the DFS interval of its subtree;
   a precedes b iff a is an ancestor-continuation relation... simpler:
   build the relation by construction rules and check transitivity and
   consistency properties instead. *)
let prop_sp_order_consistency =
  QCheck.Test.make ~name:"sp-order: precedence is a strict partial order" ~count:60
    QCheck.(list_of_size Gen.(1 -- 25) (int_bound 1000))
    (fun picks ->
      let t, root = Sp.create () in
      let strands = ref [| root |] in
      List.iter
        (fun r ->
          let s = !strands.(r mod Array.length !strands) in
          let l, rr, c = Sp.fork_seq t s in
          strands := Array.append !strands [| l; rr; c |])
        picks;
      Sp.check_invariants t;
      let arr = !strands in
      let n = Array.length arr in
      let prec i j = Sp.precedes_seq t arr.(i) arr.(j) in
      let ok = ref true in
      (* Antisymmetry + irreflexivity. *)
      for i = 0 to n - 1 do
        if prec i i then ok := false;
        for j = 0 to n - 1 do
          if i <> j && prec i j && prec j i then ok := false
        done
      done;
      (* Transitivity on a sample (full triple loop is n^3; n <= 76). *)
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if prec i j then
            for k = 0 to n - 1 do
              if prec j k && not (prec i k) then ok := false
            done
        done
      done;
      !ok)

(* ---------- hash table ---------- *)

let test_hashtable_basic () =
  let h = H.create () in
  Alcotest.(check bool) "fresh insert" false (H.insert_seq h ~key:1 ~value:10);
  Alcotest.(check bool) "replace" true (H.insert_seq h ~key:1 ~value:11);
  Alcotest.(check (option int)) "lookup" (Some 11) (H.lookup_seq h 1);
  Alcotest.(check (option int)) "missing" None (H.lookup_seq h 2);
  Alcotest.(check bool) "remove" true (H.remove_seq h 1);
  Alcotest.(check bool) "remove missing" false (H.remove_seq h 1);
  Alcotest.(check int) "empty" 0 (H.length h);
  H.check_invariants h

let test_hashtable_batch_order () =
  let h = H.create () in
  let l1 = H.lookup 5 in
  let l2 = H.lookup 5 in
  H.run_batch h [| l1; H.insert ~key:5 ~value:50; l2 |];
  (match l1, l2 with
  | H.Lookup a, H.Lookup b ->
      Alcotest.(check (option int)) "lookup before insert" None a.H.l_value;
      Alcotest.(check (option int)) "lookup after insert" (Some 50) b.H.l_value
  | _ -> assert false);
  H.check_invariants h

let test_hashtable_growth () =
  let h = H.create () in
  let b0 = H.buckets h in
  H.run_batch h (Array.init 500 (fun i -> H.insert ~key:i ~value:i));
  Alcotest.(check bool) "grew" true (H.buckets h > b0);
  Alcotest.(check int) "length" 500 (H.length h);
  H.check_invariants h;
  (* Shrink path: removals happen over several batches so the resize
     check runs as the table empties. *)
  let big = H.buckets h in
  for chunk = 0 to 4 do
    H.run_batch h (Array.init 100 (fun i -> H.remove ((chunk * 100) + i)))
  done;
  Alcotest.(check int) "emptied" 0 (H.length h);
  Alcotest.(check bool) "shrank" true (H.buckets h < big);
  H.check_invariants h

(* One op at a time, the table grows past 1 binding per 2 slots and
   shrinks under 1 per 16, down to 64 slots: in buckets of 4 slots, the
   points [sim_model] charges and the ledger's open-write sizing
   assumes. Only the counts are pinned, not the slot numbers. *)
let test_hashtable_resize_points () =
  let h = H.create () in
  let changes = ref [] in
  let watch f =
    let b = H.buckets h in
    f ();
    if H.buckets h <> b then changes := H.length h :: !changes
  in
  for k = 0 to 999 do
    watch (fun () -> ignore (H.insert_seq h ~key:k ~value:k))
  done;
  let grew = List.rev !changes in
  changes := [];
  for k = 0 to 999 do
    watch (fun () -> ignore (H.remove_seq h k))
  done;
  Alcotest.(check (list int)) "growth counts" [ 33; 65; 129; 257; 513 ] grew;
  Alcotest.(check (list int)) "shrink counts" [ 127; 63; 31; 15; 7 ] (List.rev !changes);
  H.check_invariants h

let prop_hashtable_matches_map =
  QCheck.Test.make ~name:"hashtable batches match Map" ~count:150
    QCheck.(
      list_of_size Gen.(0 -- 8)
        (list_of_size Gen.(0 -- 20) (pair (int_bound 100) (option (int_bound 50)))))
    (fun batches ->
      (* (k, Some v) = insert; (k, None) = remove. *)
      let module IM = Map.Make (Int) in
      let h = H.create () in
      let model = ref IM.empty in
      List.iter
        (fun batch ->
          let ops =
            List.map
              (function
                | k, Some v -> H.insert ~key:k ~value:v
                | k, None -> H.remove k)
              batch
          in
          H.run_batch h (Array.of_list ops);
          List.iter
            (function
              | k, Some v -> model := IM.add k v !model
              | k, None -> model := IM.remove k !model)
            batch)
        batches;
      H.check_invariants h;
      H.to_sorted_bindings h = IM.bindings !model)

(* Replace, remove, reinsert and lookup over a few hot keys, on a table
   grown by [fill] cold keys; then the cold keys are removed a chunk per
   batch, so the table shrink-resizes around the hot bindings. Every
   record's answer is checked against the model in batch order. The hot
   keys are mostly 0..20, with [min_int] (the empty-slot key, bound
   beside the array), [max_int] and -1..-8: at most 31 of them. *)
let hot_key =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [
          (14, int_bound 20);
          (1, oneofl [ min_int; max_int ]);
          (1, map (fun k -> -1 - k) (int_bound 7));
        ])

let prop_hashtable_churn_matches_map =
  QCheck.Test.make ~name:"hashtable replace/remove/reinsert/shrink matches Map"
    ~count:100
    QCheck.(
      pair (int_bound 400)
        (list_of_size Gen.(0 -- 10)
           (list_of_size Gen.(0 -- 30)
              (triple (int_bound 2) hot_key small_nat))))
    (fun (fill, batches) ->
      let module IM = Map.Make (Int) in
      let h = H.create () in
      let model = ref IM.empty in
      let apply batch =
        let ops =
          List.map
            (fun (kind, k, v) ->
              match kind with
              | 0 -> H.insert ~key:k ~value:v
              | 1 -> H.remove k
              | _ -> H.lookup k)
            batch
        in
        H.run_batch h (Array.of_list ops);
        List.for_all2
          (fun (_, k, v) op ->
            match op with
            | H.Insert r ->
                let ok = r.H.replaced = IM.mem k !model in
                model := IM.add k v !model;
                ok
            | H.Remove r ->
                let ok = r.H.removed = IM.mem k !model in
                model := IM.remove k !model;
                ok
            | H.Lookup r -> r.H.l_value = IM.find_opt k !model)
          batch ops
      in
      let cold = List.init fill (fun i -> (0, 1000 + i, i)) in
      let grown = apply cold in
      let churned = List.for_all apply batches in
      let big = H.buckets h in
      let rec drain = function
        | [] -> true
        | l ->
            let chunk = List.filteri (fun i _ -> i < 50) l in
            let rest = List.filteri (fun i _ -> i >= 50) l in
            apply (List.map (fun (_, k, _) -> (1, k, 0)) chunk) && drain rest
      in
      let drained = drain cold in
      H.check_invariants h;
      grown && churned && drained
      && H.to_sorted_bindings h = IM.bindings !model
      (* 200+ cold keys grow the table to >= 512 slots; at most 31 hot
         keys remain, under a sixteenth of that. *)
      && (fill < 200 || H.buckets h < big))

(* Below the growth threshold, only a hit's [Some] allocates: bindings
   are ints in the table's one array, keys compare as ints, and a miss
   returns the constant None. 10,000 bindings sit in 32,768 slots, so
   removing 5,000 stays above the shrink point and inserting them again
   stays below the growth point. *)
let test_hashtable_miss_allocation_free () =
  let h = H.create () in
  for k = 0 to 9_999 do
    ignore (H.insert_seq h ~key:(2 * k) ~value:k)
  done;
  let slots = H.buckets h in
  let words what f =
    let before = Gc.minor_words () in
    for k = 0 to 4_999 do
      f k
    done;
    let delta = Gc.minor_words () -. before in
    if delta > 16. then Alcotest.failf "%s allocated %.0f minor words" what delta
  in
  let misses = ref 0 and wrong = ref 0 in
  words "missed lookups" (fun k ->
      if Option.is_none (H.lookup_seq h ((2 * k) + 1)) then incr misses);
  words "removals that hit" (fun k -> if not (H.remove_seq h (2 * k)) then incr wrong);
  words "fresh inserts" (fun k -> if H.insert_seq h ~key:(2 * k) ~value:k then incr wrong);
  words "replacing inserts" (fun k ->
      if not (H.insert_seq h ~key:(2 * k) ~value:(k + 1)) then incr wrong);
  Alcotest.(check int) "misses" 5_000 !misses;
  Alcotest.(check int) "wrong answers" 0 !wrong;
  Alcotest.(check int) "no resize" slots (H.buckets h);
  Alcotest.(check int) "length" 10_000 (H.length h);
  H.check_invariants h

(* The keys [Shard.route] sends to shard 0 spread over the whole table
   they grow. At that size a uniform hash reaches only about 1 - e^-0.4
   of the slots, so the check reads homes 4 bits coarser (blocks of 16
   slots), which the keys outnumber 4 to 8 times: a uniform hash reaches
   about 98% of them. A home taken from the hash bits that the route
   reduces mod K would reach at most 1/K. *)
let test_hashtable_shard_spread () =
  let rec lg n = if n <= 1 then 0 else 1 + lg (n / 2) in
  List.iter
    (fun shards ->
      let keys =
        List.filter
          (fun k -> Batched.Shard.route ~shards k = 0)
          (List.init 50_000 (fun i -> 2 * i))
      in
      let h = H.create () in
      List.iter (fun k -> ignore (H.insert_seq h ~key:k ~value:k)) keys;
      let bits = lg (H.buckets h) - 4 in
      let reached = Array.make (1 lsl bits) false in
      List.iter (fun k -> reached.(H.home ~bits k) <- true) keys;
      let share =
        float_of_int (Array.fold_left (fun n r -> if r then n + 1 else n) 0 reached)
        /. float_of_int (1 lsl bits)
      in
      if share < 0.9 then
        Alcotest.failf "K=%d: shard 0's keys reach %.1f%% of the home blocks" shards
          (100. *. share))
    [ 2; 4 ]

(* ---------- order-statistic tree ---------- *)

module Os = Batched.Ostree

let test_ostree_basic () =
  let t = List.fold_left Os.insert Os.empty [ 50; 20; 80; 10; 30 ] in
  Os.check_invariants t;
  Alcotest.(check int) "size" 5 (Os.size t);
  Alcotest.(check bool) "mem" true (Os.mem t 30);
  Alcotest.(check int) "rank 30" 2 (Os.rank t 30);
  Alcotest.(check int) "rank 31" 3 (Os.rank t 31);
  Alcotest.(check int) "rank beyond" 5 (Os.rank t 999);
  Alcotest.(check (option int)) "select 0" (Some 10) (Os.select t 0);
  Alcotest.(check (option int)) "select 4" (Some 80) (Os.select t 4);
  Alcotest.(check (option int)) "select out" None (Os.select t 5)

let test_ostree_delete () =
  let t = List.fold_left Os.insert Os.empty (List.init 100 Fun.id) in
  let t = List.fold_left Os.delete t [ 0; 50; 99; 42 ] in
  Os.check_invariants t;
  Alcotest.(check int) "size" 96 (Os.size t);
  Alcotest.(check bool) "gone" false (Os.mem t 50);
  Alcotest.(check (option int)) "select shifts" (Some 2) (Os.select t 1)

let test_ostree_balance_adversarial () =
  (* Sorted and reverse-sorted insertions must stay balanced (shallow). *)
  List.iter
    (fun keys ->
      let t = List.fold_left Os.insert Os.empty keys in
      Os.check_invariants t;
      Alcotest.(check int) "size" 2048 (Os.size t))
    [ List.init 2048 Fun.id; List.rev (List.init 2048 Fun.id) ]

let test_ostree_batch () =
  let r = Os.rank_op 15 and s = Os.select_op 1 in
  let t =
    Os.run_batch Os.empty
      [| Os.insert_op 10; Os.insert_op 20; Os.insert_op 30; Os.delete_op 20; r; s |]
  in
  Os.check_invariants t;
  Alcotest.(check (list int)) "net" [ 10; 30 ] (Os.to_sorted_list t);
  (match r, s with
  | Os.Rank rr, Os.Select ss ->
      Alcotest.(check int) "rank sees net effect" 1 rr.Os.rank_result;
      Alcotest.(check (option int)) "select sees net effect" (Some 30) ss.Os.selected
  | _ -> assert false)

let prop_ostree_matches_set =
  QCheck.Test.make ~name:"ostree insert/delete matches Set; rank/select vs oracle"
    ~count:200
    QCheck.(list (pair bool (int_bound 120)))
    (fun cmds ->
      let module IS = Set.Make (Int) in
      let t, model =
        List.fold_left
          (fun (t, m) (ins, k) ->
            if ins then (Os.insert t k, IS.add k m) else (Os.delete t k, IS.remove k m))
          (Os.empty, IS.empty) cmds
      in
      Os.check_invariants t;
      let sorted = IS.elements model in
      Os.to_sorted_list t = sorted
      && List.for_all
           (fun k -> Os.rank t k = List.length (List.filter (fun x -> x < k) sorted))
           (List.map snd cmds)
      && List.mapi (fun i _ -> Os.select t i) sorted
         = List.map (fun k -> Some k) sorted)

(* ---------- sim models of the new structures ---------- *)

let test_new_models_run_in_sim () =
  List.iter
    (fun model ->
      let w = Sim.Workload.parallel_ops ~model ~records_per_node:1 ~n_nodes:200 () in
      let m = Sim.Batcher.run (Sim.Batcher.default ~p:4) w in
      Alcotest.(check int)
        (model.Batched.Model.name ^ ": all ops batched")
        200 m.Sim.Metrics.batch_size_total)
    [ Sp.sim_model (); H.sim_model (); Os.sim_model ~initial_size:1024 () ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_order_list_total_order; prop_sp_order_consistency; prop_hashtable_matches_map;
      prop_hashtable_churn_matches_map; prop_ostree_matches_set ]

let () =
  Alcotest.run "spds"
    [
      ( "order_list",
        [
          Alcotest.test_case "basic" `Quick test_order_list_basic;
          Alcotest.test_case "dense inserts relabel" `Quick test_order_list_dense_inserts;
          Alcotest.test_case "different orders" `Quick test_order_list_different_orders_rejected;
        ] );
      ( "sp_order",
        [
          Alcotest.test_case "fork relations" `Quick test_sp_fork_relations;
          Alcotest.test_case "nested forks" `Quick test_sp_nested_forks;
          Alcotest.test_case "batched ops" `Quick test_sp_batch;
        ] );
      ( "hashtable",
        [
          Alcotest.test_case "basic" `Quick test_hashtable_basic;
          Alcotest.test_case "batch order" `Quick test_hashtable_batch_order;
          Alcotest.test_case "growth and shrink" `Quick test_hashtable_growth;
          Alcotest.test_case "resize points" `Quick test_hashtable_resize_points;
          Alcotest.test_case "missed lookup allocation-free" `Quick
            test_hashtable_miss_allocation_free;
          Alcotest.test_case "shard keys spread over the table" `Quick
            test_hashtable_shard_spread;
        ] );
      ( "ostree",
        [
          Alcotest.test_case "basic" `Quick test_ostree_basic;
          Alcotest.test_case "delete" `Quick test_ostree_delete;
          Alcotest.test_case "adversarial balance" `Quick test_ostree_balance_adversarial;
          Alcotest.test_case "batch" `Quick test_ostree_batch;
        ] );
      ( "sim models",
        [ Alcotest.test_case "run in batcher sim" `Quick test_new_models_run_in_sim ] );
      ("properties", qcheck_cases);
    ]
