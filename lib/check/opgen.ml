(* Seeded operation-script generators for the conformance passes: one
   op constructor per batched structure, plus the script builder that
   replays them deterministically from a seed. Kept separate from [Gen]
   (the QCheck arbitraries) so [Schedule_fuzz]'s runtime-conformance leg
   can depend on [Conformance] without a module cycle. *)

let script ~gen ~n ~seed =
  let rng = Util.Rng.create ~seed in
  let rec build i acc = if i = n then List.rev acc else build (i + 1) (gen rng i :: acc) in
  Array.of_list (build 0 [])

let counter_op rng _i = Batched.Counter.op (Util.Rng.int rng 19 - 9)

let fifo_op rng _i =
  if Util.Rng.int rng 5 < 3 then Batched.Fifo.enqueue (Util.Rng.int rng 1000)
  else Batched.Fifo.dequeue ()

let stack_op rng _i =
  if Util.Rng.int rng 5 < 3 then Batched.Stack.push (Util.Rng.int rng 1000)
  else Batched.Stack.pop ()

let pqueue_op rng i =
  if Util.Rng.int rng 5 < 3 then
    (* 4096 * draw + i keeps priorities distinct across the script as
       long as it is shorter than 4096 ops. *)
    Batched.Pqueue.insert_op
      ~prio:((Util.Rng.int rng 1000 * 4096) + (i mod 4096))
      ~value:(Util.Rng.int rng 1000)
  else Batched.Pqueue.extract_op ()

let small_key ~n rng = Util.Rng.int rng (max 8 (n / 2))

(* About 1 key in 16 is [min_int] (the key the table keeps beside its
   array), [max_int] or a small negative key. *)
let hashtable_key ~n rng =
  if Util.Rng.int rng 16 > 0 then small_key ~n rng
  else
    match Util.Rng.int rng 3 with
    | 0 -> min_int
    | 1 -> max_int
    | _ -> -1 - small_key ~n rng

let hashtable_op ~n rng _i =
  match Util.Rng.int rng 4 with
  | 0 | 1 ->
      Batched.Hashtable.insert ~key:(hashtable_key ~n rng) ~value:(Util.Rng.int rng 1000)
  | 2 -> Batched.Hashtable.lookup (hashtable_key ~n rng)
  | _ -> Batched.Hashtable.remove (hashtable_key ~n rng)

let skiplist_op ~n rng _i =
  match Util.Rng.int rng 8 with
  | 0 | 1 | 2 -> Batched.Skiplist.insert (small_key ~n rng)
  | 3 | 4 -> Batched.Skiplist.mem (small_key ~n rng)
  | 5 | 6 -> Batched.Skiplist.delete (small_key ~n rng)
  | _ ->
      let lo = small_key ~n rng in
      Batched.Skiplist.range ~lo ~hi:(lo + 1 + Util.Rng.int rng (max 8 (n / 2)))

let two_three_op ~n rng i =
  match Util.Rng.int rng 4 with
  | 0 | 1 -> Batched.Two_three.insert_op (2 * i)
  | 2 -> Batched.Two_three.mem_op (Util.Rng.int rng (2 * max 1 n))
  | _ -> Batched.Two_three.delete_op (Util.Rng.int rng (2 * max 1 n))

let ostree_op ~n ~shards rng i =
  let key () = Util.Rng.int rng (2 * max 1 n) in
  match Util.Rng.int rng 8 with
  | 0 | 1 | 2 -> Batched.Ostree.insert_op (2 * i)
  | 3 | 4 -> Batched.Ostree.delete_op (key ())
  | 5 ->
      let lo = key () in
      Batched.Ostree.range_op ~lo ~hi:(lo + 1 + key ())
  | 6 when shards <= 1 -> Batched.Ostree.select_op (Util.Rng.int rng (max 1 n))
  | _ -> Batched.Ostree.rank_op (key ())
