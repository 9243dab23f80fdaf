(* The whole table lives in one int array, [cells]. Slot i keeps its key
   at 2i and its value at 2i + 1, so a probe's key compare and the value
   read after it share a cache line. A binding is two ints: no heap
   block, no write barrier. An empty slot holds the key [empty]; a
   binding *for* [empty] lives in [side], so no key is reserved.

   A key's home slot is the top lg(slots) bits of a multiplicative hash,
   not the low bits of the hash [Shard.route] reduces mod K, so one
   shard's keys spread over its whole table; top bits also keep slot
   order close to hash order, so a doubling rehash writes the new array
   nearly front to back. Probing is linear, and a deletion shifts the
   rest of its probe run back, so there are no tombstones. *)
let empty = min_int
let min_slots = 64

type t = {
  mutable cells : int array;  (* 2 * slots ints, slots a power of two *)
  mutable shift : int;  (* 63 - lg slots: a home is the hash lsr shift *)
  mutable count : int;  (* bindings, [side] included *)
  mutable side : int option;  (* the binding of [empty] *)
}

let rec lg n = if n <= 1 then 0 else 1 + lg (n / 2)

let create () =
  {
    cells = Array.make (2 * min_slots) empty;
    shift = 63 - lg min_slots;
    count = 0;
    side = None;
  }

let length t = t.count
let buckets t = Array.length t.cells / 2

(* Fibonacci hashing: 2^63 / φ, rounded to odd. [lsr] reads the
   product as an unsigned 63-bit word, so its top bits are the home. *)
let[@inline] home_at shift key = (key * 0x4F1BBCDCBFA53E0B) lsr shift

let home ~bits key =
  if bits < 1 || bits > 62 then invalid_arg "Hashtable.home: bits outside 1..62";
  home_at (63 - bits) key

(* The slot holding [key] (not [empty]), or [-1 - e] for the empty slot
   e that ends its probe run. *)
let rec probe cells mask key i =
  let k = cells.(2 * i) in
  if k = key then i
  else if k = empty then -1 - i
  else probe cells mask key ((i + 1) land mask)

let rehash t n_slots =
  let old = t.cells in
  let cells = Array.make (2 * n_slots) empty in
  let shift = 63 - lg n_slots and mask = n_slots - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * i) in
    if k <> empty then begin
      let j = -1 - probe cells mask k (home_at shift k) in
      cells.(2 * j) <- k;
      cells.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done;
  t.cells <- cells;
  t.shift <- shift

(* Grow past one binding per two slots; shrink under one per sixteen,
   down to [min_slots]. In buckets of four slots these are [sim_model]'s
   growth points: past 2 bindings per bucket, from 16 buckets. *)
let rec grown count s = if count > s / 2 then grown count (2 * s) else s

let rec shrunk count s =
  if count < s / 16 && s > min_slots then shrunk count (s / 2) else s

let maybe_resize t =
  (* A whole batch lands before the check, so the table may need to grow
     or shrink by several factors at once. *)
  let n = buckets t in
  if t.count > n / 2 then rehash t (grown t.count n)
  else if t.count < n / 16 && n > min_slots then rehash t (shrunk t.count n)

(* [true] if an existing binding was replaced. *)
let add t key value =
  if key = empty then begin
    let had = Option.is_some t.side in
    t.side <- Some value;
    if not had then t.count <- t.count + 1;
    had
  end
  else begin
    (* A batch may insert many keys before its resize check: double
       before the load can pass 3/4, so a probe run always ends. *)
    if 4 * (t.count + 1) > 3 * buckets t then rehash t (2 * buckets t);
    let i = probe t.cells (buckets t - 1) key (home_at t.shift key) in
    if i >= 0 then begin
      t.cells.((2 * i) + 1) <- value;
      true
    end
    else begin
      let e = -1 - i in
      t.cells.(2 * e) <- key;
      t.cells.((2 * e) + 1) <- value;
      t.count <- t.count + 1;
      false
    end
  end

(* Empty [hole] by moving back the entries after it in its probe run.
   The entry at [j] may fill the hole unless its home lies cyclically in
   (hole, j]: then the hole is not on its probe path. *)
let rec close_gap t mask hole j =
  let k = t.cells.(2 * j) in
  if k = empty then t.cells.(2 * hole) <- empty
  else if (j - home_at t.shift k) land mask >= (j - hole) land mask then begin
    t.cells.(2 * hole) <- k;
    t.cells.((2 * hole) + 1) <- t.cells.((2 * j) + 1);
    close_gap t mask j ((j + 1) land mask)
  end
  else close_gap t mask hole ((j + 1) land mask)

(* [true] if a binding was removed. *)
let drop t key =
  if key = empty then begin
    let had = Option.is_some t.side in
    if had then begin
      t.side <- None;
      t.count <- t.count - 1
    end;
    had
  end
  else begin
    let mask = buckets t - 1 in
    let i = probe t.cells mask key (home_at t.shift key) in
    if i < 0 then false
    else begin
      close_gap t mask i ((i + 1) land mask);
      t.count <- t.count - 1;
      true
    end
  end

let get t key =
  if key = empty then t.side
  else
    let i = probe t.cells (buckets t - 1) key (home_at t.shift key) in
    if i >= 0 then Some t.cells.((2 * i) + 1) else None

type insert_record = { i_key : int; i_value : int; mutable replaced : bool }
type lookup_record = { l_key : int; mutable l_value : int option }
type remove_record = { r_key : int; mutable removed : bool }

type op =
  | Insert of insert_record
  | Lookup of lookup_record
  | Remove of remove_record

let insert ~key ~value = Insert { i_key = key; i_value = value; replaced = false }
let lookup key = Lookup { l_key = key; l_value = None }
let remove key = Remove { r_key = key; removed = false }

let run_batch t ops =
  (* Records apply in batch order, so a lookup sees the batch's earlier
     updates to its key. *)
  Array.iter
    (function
      | Insert r -> r.replaced <- add t r.i_key r.i_value
      | Lookup r -> r.l_value <- get t r.l_key
      | Remove r -> r.removed <- drop t r.r_key)
    ops;
  maybe_resize t

(* The single-op forms behave as one-op batches, resize check included. *)
let insert_seq t ~key ~value =
  let replaced = add t key value in
  maybe_resize t;
  replaced

let lookup_seq t key =
  let v = get t key in
  maybe_resize t;
  v

let remove_seq t key =
  let removed = drop t key in
  maybe_resize t;
  removed

let to_sorted_bindings t =
  let acc = ref (match t.side with Some v -> [ (empty, v) ] | None -> []) in
  for i = 0 to buckets t - 1 do
    let k = t.cells.(2 * i) in
    if k <> empty then acc := (k, t.cells.((2 * i) + 1)) :: !acc
  done;
  List.sort compare !acc

let check_invariants t =
  let n = buckets t in
  if n < min_slots || 1 lsl (63 - t.shift) <> n then
    failwith "Hashtable: slot count not a power of two >= 64 matching shift";
  let live = ref 0 in
  for i = 0 to n - 1 do
    let k = t.cells.(2 * i) in
    if k <> empty then begin
      incr live;
      (* Probing from k's home must stop at i: no empty slot lies
         between them, and no earlier slot holds k. *)
      if probe t.cells (n - 1) k (home_at t.shift k) <> i then
        failwith "Hashtable: key cut off from its home or duplicated"
    end
  done;
  (* [empty] written into the array would read as a free slot and
     show here as a count mismatch. *)
  if !live + Bool.to_int (Option.is_some t.side) <> t.count then
    failwith "Hashtable: count mismatch";
  if t.count > n / 2 then failwith "Hashtable: overfull";
  if n > min_slots && t.count < n / 16 then failwith "Hashtable: underfull"

(* The cost model counts buckets of four slots, so it grows where the
   table does. *)
let min_buckets = min_slots / 4

let sim_model ?(records_per_node = 1) () =
  let count = ref 0 in
  let n_buckets = ref min_buckets in
  let reset () =
    count := 0;
    n_buckets := min_buckets
  in
  (* Inserts only (the model's worst case for growth). *)
  let apply x =
    count := !count + x;
    if !count > 2 * !n_buckets then begin
      let copy = Par.balanced ~leaf_cost:(fun _ -> 1) (max 1 !count) in
      while !count > 2 * !n_buckets do
        n_buckets := 2 * !n_buckets
      done;
      Some copy
    end
    else None
  in
  let batch_cost nodes =
    let x = max 1 (records_per_node * Array.length nodes) in
    let resize = apply x in
    let partition = Par.leaf x in
    let walk = Par.balanced ~leaf_cost:(fun _ -> 2) x in
    match resize with
    | Some copy -> Par.series [ partition; walk; copy ]
    | None -> Par.series [ partition; walk ]
  in
  let seq_cost _ =
    match apply records_per_node with
    | Some copy -> (records_per_node * 3) + Par.work copy
    | None -> records_per_node * 3
  in
  { Model.name = "hashtable"; reset; batch_cost; seq_cost }
