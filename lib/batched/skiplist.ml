let max_level = 32

(* The whole list lives in one int array, the arena. A node is a slice
   [key; height; fwd_0; ...; fwd_{h-1}] at some offset, and a link is
   the successor's offset: a search hop loads a link and then the key at
   that offset, whose own links sit next to it in the same cache line.
   A splice writes ints, so a node costs no heap block and no write
   barrier, and the GC sees one block of immediates.

   The head sits at offset 0 with height [max_level] and holds no key.
   Every level ends at [tail], whose key [max_int] is greater than any
   stored key (inserting [max_int] is refused), so a search step needs
   no end-of-list case. The tail has height 0: its links are never
   read. *)
let head = 0
let tail = 2 + max_level
let first_slice = tail + 2
let nil = -1 (* end of a free list *)

(* The arena index of the level-l link of the slice at [o]. *)
let[@inline] link o l = o + 2 + l

type t = {
  mutable arena : int array;
  mutable top : int;  (* the slices tile [first_slice, top) *)
  free : int array;
      (* [free.(h)]: a freed slice of height h, or [nil]. A freed slice
         stores its height negated and chains through its [fwd_0]. *)
  mutable level : int;  (* highest level in use, >= 1 *)
  mutable size : int;
  rng : Util.Rng.t;
  update : int array;
      (* Per-level predecessors for the sequential insert and delete
         paths. Only the batch's single writer uses it: searches that may
         run concurrently keep their own arrays. *)
}

let create ?(seed = 0xBA7C4) () =
  let arena = Array.make 256 0 in
  arena.(head) <- min_int;
  arena.(head + 1) <- max_level;
  Array.fill arena (link head 0) max_level tail;
  arena.(tail) <- max_int;
  {
    arena;
    top = first_slice;
    free = Array.make (max_level + 1) nil;
    level = 1;
    size = 0;
    rng = Util.Rng.create ~seed;
    update = Array.make max_level head;
  }

let length t = t.size

(* Geometric heights with p = 1/2, capped: one level per bit of one
   draw, from bit 0 up to the first clear bit. *)
let rec height_of bits h =
  if h >= max_level then max_level
  else if (bits lsr (h - 1)) land 1 = 1 then height_of bits (h + 1)
  else h

let random_height t = height_of (Int64.to_int (Util.Rng.next64 t.rng)) 1

(* A slice for a tower of height [h]: a freed one of that height, else
   fresh space at [top], doubling the arena when it is full. Only the
   list's single writer allocates and frees — insert_seq and delete_seq,
   or a BOP's splice and delete phases, which run after its concurrent
   searches have joined — so no search ever reads an arena that is being
   replaced. *)
let alloc t h =
  let o =
    if t.free.(h) <> nil then begin
      let o = t.free.(h) in
      t.free.(h) <- t.arena.(link o 0);
      o
    end
    else begin
      let o = t.top and len = Array.length t.arena in
      if link o h > len then begin
        let a = Array.make (Int.max (link o h) (2 * len)) 0 in
        Array.blit t.arena 0 a 0 o;
        t.arena <- a
      end;
      t.top <- link o h;
      o
    end
  in
  t.arena.(o + 1) <- h;
  o

let release t o h =
  let a = t.arena in
  a.(o + 1) <- -h;
  a.(link o 0) <- t.free.(h);
  t.free.(h) <- o

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
let rec advance (a : int array) x l key =
  let nxt = a.(link x l) in
  if a.(nxt) < key then advance a nxt l key else x

(* The level-0 predecessor of [key]: advance at level l, then drop. *)
let rec descend a x l key = if l < 0 then x else descend a (advance a x l key) (l - 1) key

(* Fill [update] with, per level below [t.level], the rightmost node
   whose key is < key. Every search starts at the head. *)
let search_update t (update : int array) key =
  let a = t.arena in
  let x = ref head in
  for l = t.level - 1 downto 0 do
    x := advance a !x l key;
    update.(l) <- !x
  done

let splice t (update : int array) key =
  let h = random_height t in
  if h > t.level then begin
    for l = t.level to h - 1 do
      update.(l) <- head
    done;
    t.level <- h
  end;
  let o = alloc t h in
  let a = t.arena in
  a.(o) <- key;
  for l = 0 to h - 1 do
    let p = link update.(l) l in
    a.(link o l) <- a.(p);
    a.(p) <- o
  done;
  t.size <- t.size + 1

(* Splice [key] after the predecessors in [update] unless it is already
   there; [true] if it was new. *)
let insert_at t (update : int array) key =
  let a = t.arena in
  if a.(a.(link update.(0) 0)) = key then false
  else begin
    splice t update key;
    true
  end

let insert_seq t key =
  check_key key;
  search_update t t.update key;
  insert_at t t.update key

let mem_seq t key =
  let a = t.arena in
  key <> max_int && a.(a.(link (descend a head (t.level - 1) key) 0)) = key

let delete_seq t key =
  let update = t.update in
  search_update t update key;
  let a = t.arena in
  let victim = a.(link update.(0) 0) in
  if a.(victim) <> key || victim = tail then false
  else begin
    let h = a.(victim + 1) in
    (* Unlink the victim's tower at every level it participates in. *)
    for l = 0 to h - 1 do
      let p = link update.(l) l in
      if a.(p) = victim then a.(p) <- a.(link victim l)
    done;
    (* Lower the list level past now-empty levels. *)
    while t.level > 1 && a.(link head (t.level - 1)) = tail do
      t.level <- t.level - 1
    done;
    release t victim h;
    t.size <- t.size - 1;
    true
  end

let rec collect (a : int array) hi acc n =
  if a.(n) < hi then collect a hi (a.(n) :: acc) a.(link n 0) else List.rev acc

(* Keys in [lo, hi), ascending: skip down to the predecessor of [lo],
   then walk level 0 until a key >= hi — at the latest the tail, so
   [hi = max_int] returns every key >= lo. O(lg n + answer). *)
let range_seq t ~lo ~hi =
  let a = t.arena in
  collect a hi [] a.(link (descend a head (t.level - 1) lo) 0)

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
   same batch spliced in front of it, so each level link is re-advanced
   before linking. Entries for levels the list grew into since the
   search are still the head, where the re-advance starts. *)
let run_batch_with ~pfor t d =
  let inserts = sorted_inserts d in
  let x = Array.length inserts in
  let updates = Array.make x [||] in
  if x > 0 then
    pfor x (fun i ->
        let u = Array.make max_level head in
        search_update t u inserts.(i).key;
        updates.(i) <- u);
  Array.iteri
    (fun i (r : insert_record) ->
      let u = updates.(i) and a = t.arena in
      for l = t.level - 1 downto 0 do
        u.(l) <- advance a u.(l) l r.key
      done;
      if insert_at t u r.key then r.inserted <- true)
    inserts;
  delete_then_query t d

let to_list t =
  let a = t.arena in
  let rec go acc n = if n = tail then List.rev acc else go (a.(n) :: acc) a.(link n 0) in
  go [] a.(link head 0)

(* O(arena + n): one scan of the slices, one walk per level, one walk
   per free list. *)
let check_invariants t =
  let fail what = failwith ("Skiplist: " ^ what) in
  let a = t.arena in
  if a.(head + 1) <> max_level || a.(tail) <> max_int || a.(tail + 1) <> 0 then
    fail "sentinel overwritten";
  if t.top > Array.length a || t.level < 1 || t.level > max_level then
    fail "top or level out of range";
  (* The slices tile [first_slice, top) exactly. [mark] flags each live
     slice's offset with 1 and each freed one's with 2; [taller.(l)]
     counts the live towers of height > l. *)
  let mark = Bytes.make t.top '\000' in
  let taller = Array.make max_level 0 in
  let freed = ref 0 in
  let o = ref first_slice in
  while !o < t.top do
    let h = a.(!o + 1) in
    if h = 0 || abs h > max_level || link !o (abs h) > t.top then
      fail "slices do not tile the arena";
    if h > 0 then begin
      Bytes.set mark !o '\001';
      for l = 0 to h - 1 do
        taller.(l) <- taller.(l) + 1
      done
    end
    else begin
      Bytes.set mark !o '\002';
      incr freed
    end;
    o := link !o (abs h)
  done;
  (* Level l runs through live slices only, in strictly ascending key
     order (so it ends), and through exactly the towers of height > l:
     level 0 is every live slice, and each level above is a subsequence
     of it. *)
  for l = 0 to max_level - 1 do
    let rec walk n prev count =
      if n = tail then count
      else begin
        if n < 0 || n >= t.top || Bytes.get mark n <> '\001' then
          fail "link to a freed or misaligned slice";
        if a.(n + 1) <= l then fail "tower too short";
        if count > 0 && a.(n) <= prev then fail "keys not strictly ascending";
        walk a.(link n l) a.(n) (count + 1)
      end
    in
    let count = walk a.(link head l) min_int 0 in
    if count <> taller.(l) then fail "orphan tower";
    if l >= t.level && count > 0 then fail "a level above [level] is in use"
  done;
  if taller.(0) <> t.size then fail "size mismatch";
  (* Each freed slice is on its height's free list exactly once: a
     visited entry's mark becomes 3, so a cycle or a repeat fails. *)
  let listed = ref 0 in
  for h = 1 to max_level do
    let rec walk o =
      if o <> nil then begin
        if o < 0 || o >= t.top || Bytes.get mark o <> '\002' then
          fail "free list holds a live slice, a repeat or a misaligned offset";
        if a.(o + 1) <> -h then fail "freed slice on the wrong free list";
        Bytes.set mark o '\003';
        incr listed;
        walk a.(link o 0)
      end
    in
    walk t.free.(h)
  done;
  if !listed <> !freed then fail "freed slice missing from the free lists"

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
