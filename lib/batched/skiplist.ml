let max_level = 32

(* The whole list lives in one int array, the arena. A node is a slice
   [key; height; fwd_0; ...; fwd_{h-1}] at some offset, and a link is
   the successor's offset: a search hop loads a link and then the key at
   that offset, whose own links sit next to it in the same cache line.
   A splice writes ints, so a node costs no heap block and no write
   barrier, and the GC sees one block of immediates.

   The head sits at offset 0 with height [max_level] and holds no key;
   its key slot reads [min_int], at or below every key.
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
  mutable rows : int array;
      (* Predecessor rows of [max_level] ints: a search for [key] into
         row j writes, at [j * max_level + l], the rightmost node at
         level l whose key is < key, and the head at every level >=
         [level]. Row 0 serves the sequential paths; a batch writes one
         row per key, each concurrent search into its own rows. Only the
         list's single writer resizes it.
         Every path leaves row 0 exact: for some q, each of its entries
         is the rightmost node at its level whose key is < q. A search
         writes an exact row, a splice or an unlink keeps one exact, and
         a fresh matrix holds the head, exact for q = min_int. So
         insert_seq may start from row 0 as a finger. *)
  mutable keys : int array;  (* a batch's search keys, one per row *)
  mutable pos : int array;  (* each insert key's position in its batch *)
  mutable live : int array;  (* the searches still moving, per chunk *)
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
    rows = Array.make max_level head;
    keys = Array.make 1 0;
    pos = Array.make 1 0;
    live = Array.make 1 0;
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
        (* A loop, not [Array.blit]: a blit into an array in the major
           heap writes every word through [caml_modify]. *)
        let old = t.arena in
        for i = 0 to o - 1 do
          a.(i) <- old.(i)
        done;
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

(* Write levels l down to 0 of the row at [r] for [key], starting the
   level-l walk at [x]. *)
let rec fill_row (a : int array) (rows : int array) r x l key =
  if l >= 0 then begin
    let x = advance a x l key in
    rows.(r + l) <- x;
    fill_row a rows r x (l - 1) key
  end

let head_above t (rows : int array) r =
  for l = t.level to max_level - 1 do
    rows.(r + l) <- head
  done

(* The row at [r] for [key], every level walked from the head. *)
let search_row t r key =
  fill_row t.arena t.rows r head (t.level - 1) key;
  head_above t t.rows r

(* Rows [lo, hi) for [t.keys.(lo .. hi-1)], walked in lockstep. On each
   level, a round moves every search still moving by one hop and keeps
   in [t.live] those that may move again. A round's hops are independent
   loads, so their cache misses overlap, where a lone search waits out
   each miss before it can start the next. A round does not branch on a
   loaded key: a search that cannot move rewrites its node and drops out
   of [live] by arithmetic. *)
let search_rows t lo hi =
  let a = t.arena and rows = t.rows and keys = t.keys and live = t.live in
  let level = t.level in
  for j = lo to hi - 1 do
    head_above t rows (j * max_level)
  done;
  for l = level - 1 downto 0 do
    for j = lo to hi - 1 do
      let r = (j * max_level) + l in
      rows.(r) <- (if l + 1 < level then rows.(r + 1) else head);
      live.(j) <- j
    done;
    let n = ref hi in
    while !n > lo do
      let k = ref lo in
      for i = lo to !n - 1 do
        let j = live.(i) in
        let r = (j * max_level) + l in
        let x = rows.(r) in
        let nxt = a.(link x l) in
        let moves = Bool.to_int (a.(nxt) < keys.(j)) in
        rows.(r) <- x + ((nxt - x) * moves);
        live.(!k) <- j;
        k := !k + moves
      done;
      n := !k
    done
  done

(* Searches walked in lockstep together. A longer chunk overlaps more
   misses per round; 64 ran a little faster per key than 32 at 1M keys,
   and still splits a batch of 100 keys in two for [pfor]. *)
let chunk = 64

(* Rows 0 .. n-1 for [t.keys.(0 .. n-1)]: a lone key takes the plain
   search, more go in chunks of [chunk] in lockstep, the chunks under
   [pfor]. *)
let search_keys ~pfor t n =
  if n = 1 then search_row t 0 t.keys.(0)
  else if n > 1 then
    pfor ((n + chunk - 1) / chunk) (fun c ->
        search_rows t (c * chunk) (Int.min n ((c + 1) * chunk)))

(* Room for [n] keys and rows. Only the batch's single writer calls it,
   before its searches start. *)
let reserve t n =
  if Array.length t.keys < n then begin
    let n = Int.max n (2 * Array.length t.keys) in
    t.keys <- Array.make n 0;
    t.pos <- Array.make n 0;
    t.live <- Array.make n 0;
    t.rows <- Array.make (n * max_level) head
  end

(* Splice [key] after the predecessors in the row at [r]. Each spliced
   level's entry moves to the new node, so the row stays exact for
   [key + 1]. A level the list grows into holds the head in the row. *)
let splice t r key =
  let h = random_height t in
  if h > t.level then t.level <- h;
  let o = alloc t h in
  let a = t.arena and rows = t.rows in
  a.(o) <- key;
  for l = 0 to h - 1 do
    let p = link rows.(r + l) l in
    a.(link o l) <- a.(p);
    a.(p) <- o;
    rows.(r + l) <- o
  done;
  t.size <- t.size + 1

(* Splice [key] after the predecessors in the row at [r] unless it is
   already there; [true] if it was new. *)
let insert_at t r key =
  let a = t.arena in
  if a.(a.(link t.rows.(r) 0)) = key then false
  else begin
    splice t r key;
    true
  end

(* Levels a finger search climbs before it gives up for the head. *)
let finger_reach = 3

(* The lowest level l <= finger_reach, below [t.level], whose row 0
   entry is followed at level l by a key >= [key], or -1. With row 0
   exact and its level-0 key below [key], that entry is then [key]'s
   predecessor at level l, and so is every entry above it. *)
let rec finger_level t (a : int array) (rows : int array) key l =
  if l >= t.level || l > finger_reach then -1
  else if a.(a.(link rows.(l) l)) < key then finger_level t a rows key (l + 1)
  else l

(* A key above row 0's level-0 entry climbs from row 0 and walks down
   from where the climb stops: a run of ascending keys costs O(1)
   levels each. A key the climb cannot reach within [finger_reach]
   levels walks from the head, after a few cached loads. *)
let insert_seq t key =
  check_key key;
  let a = t.arena and rows = t.rows in
  let l = if a.(rows.(0)) < key then finger_level t a rows key 0 else -1 in
  if l < 0 then search_row t 0 key else fill_row a rows 0 rows.(l) (l - 1) key;
  insert_at t 0 key

let mem_seq t key =
  let a = t.arena in
  key <> max_int && a.(a.(link (descend a head (t.level - 1) key) 0)) = key

let delete_seq t key =
  search_row t 0 key;
  let a = t.arena and rows = t.rows in
  let victim = a.(link rows.(0) 0) in
  if a.(victim) <> key || victim = tail then false
  else begin
    let h = a.(victim + 1) in
    (* Unlink the victim's tower at every level it participates in. *)
    for l = 0 to h - 1 do
      let p = link rows.(l) l in
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

(* Heap sort of the first [n] (key, batch position) pairs of [keys] and
   [pos], by key and then position: of equal keys, the earliest in batch
   order comes first. In place, allocating nothing. *)
let[@inline] after (keys : int array) (pos : int array) i j =
  keys.(i) > keys.(j) || (keys.(i) = keys.(j) && pos.(i) > pos.(j))

let swap (keys : int array) (pos : int array) i j =
  let k = keys.(i) and p = pos.(i) in
  keys.(i) <- keys.(j);
  pos.(i) <- pos.(j);
  keys.(j) <- k;
  pos.(j) <- p

let rec sift keys pos i n =
  let c = (2 * i) + 1 in
  if c < n then begin
    let c = if c + 1 < n && after keys pos (c + 1) c then c + 1 else c in
    if after keys pos c i then begin
      swap keys pos i c;
      sift keys pos c n
    end
  end

let sort_pairs keys pos n =
  for i = (n / 2) - 1 downto 0 do
    sift keys pos i n
  done;
  for e = n - 1 downto 1 do
    swap keys pos 0 e;
    sift keys pos 0 e
  done

(* The paper's BOP with a caller-supplied parallel-for, in phases:
   inserts, then deletes, then queries, which see the batch's net
   effect.
   - Step 1 (build): the insert keys, each with its batch position,
     sorted. A reserved key raises here, before the list changes.
   - Step 2 (search): one predecessor row per key; the searches only
     read the list.
   - Step 3 (splice): descending key order. A splice adds a node after
     the row of every smaller key, so each saved row stays exact. Of
     equal keys only the earliest in batch order splices.
   Deletes then run one by one, and membership queries search like the
   inserts. *)
let run_batch_with ~pfor t d =
  reserve t (Array.length d);
  let keys = t.keys and pos = t.pos in
  let x = ref 0 in
  for i = 0 to Array.length d - 1 do
    match d.(i) with
    | Insert r ->
        check_key r.key;
        keys.(!x) <- r.key;
        pos.(!x) <- i;
        incr x
    | Mem _ | Delete _ | Range _ -> ()
  done;
  let x = !x in
  sort_pairs keys pos x;
  search_keys ~pfor t x;
  for i = x - 1 downto 0 do
    if i = 0 || keys.(i - 1) <> keys.(i) then
      match d.(pos.(i)) with
      | Insert r -> r.inserted <- insert_at t (i * max_level) r.key
      | Mem _ | Delete _ | Range _ -> ()
  done;
  let m = ref 0 in
  for i = 0 to Array.length d - 1 do
    match d.(i) with
    | Delete r -> r.deleted <- delete_seq t r.del_key
    | Mem r ->
        keys.(!m) <- r.mem_key;
        incr m
    | Insert _ | Range _ -> ()
  done;
  search_keys ~pfor t !m;
  let a = t.arena and rows = t.rows in
  let j = ref 0 in
  for i = 0 to Array.length d - 1 do
    match d.(i) with
    | Mem r ->
        r.found <-
          r.mem_key <> max_int && a.(a.(link rows.(!j * max_level) 0)) = r.mem_key;
        incr j
    | Range r -> r.r_keys <- range_seq t ~lo:r.r_lo ~hi:r.r_hi
    | Insert _ | Delete _ -> ()
  done

let run_batch t d =
  run_batch_with ~pfor:(fun n body -> for i = 0 to n - 1 do body i done) t d

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
  (* Row 0 is exact. With p its level-0 entry, each entry below [level]
     is the head or a node on its level whose key is at most p's and
     whose successor's exceeds p's; if p is the head, every entry is.
     The entries above [level] are the head. *)
  let rows = t.rows in
  let p = rows.(0) in
  for l = 0 to max_level - 1 do
    let x = rows.(l) in
    if l >= t.level then (if x <> head then fail "row 0 entry above [level]")
    else if
      x <> head
      && (x < first_slice || x >= t.top || Bytes.get mark x <> '\001' || a.(x + 1) <= l)
    then fail "row 0 entry off its level"
    else if p = head then (if x <> head then fail "row 0 not exact")
    else if a.(x) > a.(p) || a.(a.(link x l)) <= a.(p) then fail "row 0 not exact"
  done;
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

let sim_model ~initial_size ?(records_per_node = 1) () =
  let size = ref initial_size in
  let reset () = size := initial_size in
  let search_cost () = Model.log2_cost !size in
  (* The trees built at the current per-search cost, by record count: a
     batch that repeats both gets the physically same tree, so a
     caller's lookup of it ends at the root. *)
  let memo_cost = ref 0 and memo = Hashtbl.create 8 in
  let batch_cost nodes =
    let x = records_per_node * Array.length nodes in
    let x = max 1 x in
    let per_search = search_cost () in
    size := !size + x;
    if per_search <> !memo_cost then begin
      Hashtbl.reset memo;
      memo_cost := per_search
    end;
    match Hashtbl.find_opt memo x with
    | Some tree -> tree
    | None ->
        let build = Par.leaf x in
        let searches = Par.balanced ~leaf_cost:(fun _ -> per_search) x in
        let splice_phase = Par.leaf x in
        let tree = Par.series [ build; searches; splice_phase ] in
        Hashtbl.add memo x tree;
        tree
  in
  let seq_cost _ =
    let c = search_cost () + 2 in
    size := !size + records_per_node;
    max 1 (records_per_node * c)
  in
  { Model.name = "skiplist"; reset; batch_cost; seq_cost }
