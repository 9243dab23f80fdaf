let max_level = 32

(* Every level ends at [tail], whose key [max_int] is greater than any
   stored key (inserting [max_int] is refused), so a search step is one
   load and one compare with no end-of-list case. Its tower is empty and
   never followed; it is immutable, so every list shares it. *)
type node = {
  key : int;
  forward : node array;
}

let tail = { key = max_int; forward = [||] }

(* The head sentinel holds no key; [forward.(l)] is the first node at
   level l. Real nodes have towers of length [height]. *)
type t = {
  head : node;
  mutable level : int;  (* highest level in use, >= 1 *)
  mutable size : int;
  rng : Util.Rng.t;
  update : node array;
      (* Per-level predecessors for the sequential insert and delete
         paths. Only the batch's single writer uses it: searches that may
         run concurrently keep their own arrays. *)
}

let create ?(seed = 0xBA7C4) () =
  let head = { key = min_int; forward = Array.make max_level tail } in
  {
    head;
    level = 1;
    size = 0;
    rng = Util.Rng.create ~seed;
    update = Array.make max_level head;
  }

let length t = t.size

(* Geometric heights with p = 1/2, capped. *)
let random_height t =
  let bits = Util.Rng.next64 t.rng in
  let rec count h =
    if h >= max_level then max_level
    else if Int64.logand (Int64.shift_right_logical bits (h - 1)) 1L = 1L then count (h + 1)
    else h
  in
  count 1

let check_key key =
  if key = max_int then invalid_arg "Skiplist: max_int is reserved for the tail sentinel"

type insert_record = { key : int; mutable inserted : bool }
type mem_record = { mem_key : int; mutable found : bool }
type delete_record = { del_key : int; mutable deleted : bool }
type range_record = { r_lo : int; r_hi : int; mutable r_keys : int list }

type op =
  | Insert of insert_record
  | Mem of mem_record
  | Delete of delete_record
  | Range of range_record

let insert key = Insert { key; inserted = false }
let mem key = Mem { mem_key = key; found = false }
let delete key = Delete { del_key = key; deleted = false }
let range ~lo ~hi = Range { r_lo = lo; r_hi = hi; r_keys = [] }

(* The rightmost node at level l, from [x] on, whose key is < key. *)
let rec advance (x : node) l key =
  let nxt = x.forward.(l) in
  if nxt.key < key then advance nxt l key else x

(* The level-0 predecessor of [key]: advance at level l, then drop. *)
let rec descend x l key = if l < 0 then x else descend (advance x l key) (l - 1) key

(* Fill [update] with, per level below [t.level], the rightmost node
   whose key is < key. Every search starts at the head. *)
let search_update t (update : node array) key =
  let x = ref t.head in
  for l = t.level - 1 downto 0 do
    x := advance !x l key;
    update.(l) <- !x
  done

let splice t (update : node array) key =
  let h = random_height t in
  if h > t.level then begin
    for l = t.level to h - 1 do
      update.(l) <- t.head
    done;
    t.level <- h
  end;
  let fresh = { key; forward = Array.make h tail } in
  for l = 0 to h - 1 do
    fresh.forward.(l) <- update.(l).forward.(l);
    update.(l).forward.(l) <- fresh
  done;
  t.size <- t.size + 1

(* Splice [key] after the predecessors in [update] unless it is already
   there; [true] if it was new. *)
let insert_at t (update : node array) key =
  if update.(0).forward.(0).key = key then false
  else begin
    splice t update key;
    true
  end

let insert_seq t key =
  check_key key;
  search_update t t.update key;
  insert_at t t.update key

let mem_seq t key =
  key <> max_int && (descend t.head (t.level - 1) key).forward.(0).key = key

let delete_seq t key =
  let update = t.update in
  search_update t update key;
  let victim = update.(0).forward.(0) in
  if victim.key <> key || victim == tail then false
  else begin
    (* Unlink the victim's tower at every level it participates in. *)
    for l = 0 to Array.length victim.forward - 1 do
      if update.(l).forward.(l) == victim then
        update.(l).forward.(l) <- victim.forward.(l)
    done;
    (* Lower the list level past now-empty levels. *)
    while t.level > 1 && t.head.forward.(t.level - 1) == tail do
      t.level <- t.level - 1
    done;
    t.size <- t.size - 1;
    true
  end

let rec collect hi acc (n : node) =
  if n.key < hi then collect hi (n.key :: acc) n.forward.(0) else List.rev acc

(* Keys in [lo, hi), ascending: skip down to the predecessor of [lo],
   then walk level 0 until a key >= hi — at the latest the tail, so
   [hi = max_int] returns every key >= lo. O(lg n + answer). *)
let range_seq t ~lo ~hi = collect hi [] (descend t.head (t.level - 1) lo).forward.(0)

(* Step 1 (build): the batch's insert records, sorted by key. The sort is
   stable, so of equal keys the earliest in batch order is the one that
   inserts. Raises before any mutation if a key is reserved. *)
let sorted_inserts d =
  let n =
    Array.fold_left
      (fun n -> function
        | Insert r ->
            check_key r.key;
            n + 1
        | Mem _ | Delete _ | Range _ -> n)
      0 d
  in
  if n = 0 then [||]
  else begin
    let a = Array.make n { key = 0; inserted = false } in
    let j = ref 0 in
    Array.iter
      (function
        | Insert r ->
            a.(!j) <- r;
            incr j
        | Mem _ | Delete _ | Range _ -> ())
      d;
    Array.stable_sort (fun (x : insert_record) y -> Int.compare x.key y.key) a;
    a
  end

(* The phases after the splice: deletes, then queries (membership and
   ranges), which observe the batch's net effect. *)
let delete_then_query t d =
  Array.iter
    (function
      | Delete r -> r.deleted <- delete_seq t r.del_key
      | Insert _ | Mem _ | Range _ -> ())
    d;
  Array.iter
    (function
      | Insert _ | Delete _ -> ()
      | Mem r -> r.found <- mem_seq t r.mem_key
      | Range r -> r.r_keys <- range_seq t ~lo:r.r_lo ~hi:r.r_hi)
    d

let run_batch t d =
  (* Step 1 (build), then step 2 (search) and step 3 (splice) per key in
     ascending order, each search starting from the head. *)
  Array.iter
    (fun (r : insert_record) ->
      search_update t t.update r.key;
      if insert_at t t.update r.key then r.inserted <- true)
    (sorted_inserts d);
  delete_then_query t d

(* The paper's BOP with a caller-supplied parallel-for. Step 1 (build):
   sort the batch's insert keys. Step 2 (search): every key's update
   array is computed concurrently — searches only read the list, each
   into its own array. Step 3 (splice): sequential over ascending keys; a
   saved update entry may be stale where an earlier (smaller) key of the
   same batch spliced in front of it, so each level pointer is
   re-advanced before linking. Entries for levels the list grew into
   since the search are still the head, where the re-advance starts. *)
let run_batch_with ~pfor t d =
  let inserts = sorted_inserts d in
  let x = Array.length inserts in
  let updates = Array.make x [||] in
  if x > 0 then
    pfor x (fun i ->
        let u = Array.make max_level t.head in
        search_update t u inserts.(i).key;
        updates.(i) <- u);
  Array.iteri
    (fun i (r : insert_record) ->
      let u = updates.(i) in
      for l = t.level - 1 downto 0 do
        u.(l) <- advance u.(l) l r.key
      done;
      if insert_at t u r.key then r.inserted <- true)
    inserts;
  delete_then_query t d

let to_list t =
  let rec go acc (n : node) =
    if n == tail then List.rev acc else go (n.key :: acc) n.forward.(0)
  in
  go [] t.head.forward.(0)

let check_invariants t =
  (* Level-0 keys strictly ascending and size consistent. *)
  let keys = to_list t in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        if a >= b then failwith "Skiplist: keys not strictly ascending";
        sorted rest
    | _ -> ()
  in
  sorted keys;
  if List.length keys <> t.size then failwith "Skiplist: size mismatch";
  (* Every level-l list is a subsequence of the level-0 list. *)
  for l = 1 to t.level - 1 do
    let rec walk (n : node) =
      if n != tail then begin
        if not (List.mem n.key keys) then failwith "Skiplist: orphan tower";
        if Array.length n.forward <= l then failwith "Skiplist: tower too short";
        walk n.forward.(l)
      end
    in
    walk t.head.forward.(l)
  done

let sim_model ~initial_size ?(records_per_node = 1) ?(search_scale = 1.0) () =
  let size = ref initial_size in
  let reset () = size := initial_size in
  let search_cost () = Model.scaled (Model.log2_cost !size) search_scale in
  let batch_cost nodes =
    let x = records_per_node * Array.length nodes in
    let x = max 1 x in
    let per_search = search_cost () in
    let build = Par.leaf x in
    let searches = Par.balanced ~leaf_cost:(fun _ -> per_search) x in
    let splice_phase = Par.leaf x in
    size := !size + x;
    Par.series [ build; searches; splice_phase ]
  in
  let seq_cost _ =
    let c = search_cost () + 2 in
    size := !size + records_per_node;
    max 1 (records_per_node * c)
  in
  { Model.name = "skiplist"; reset; batch_cost; seq_cost }
