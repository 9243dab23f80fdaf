(* Functional 2-3 tree. Internal nodes store routing keys equal to actual
   stored keys (classic BST-style 2-3 tree on values). *)

type t =
  | Leaf
  | Two of t * int * t
  | Three of t * int * t * int * t

let empty = Leaf

let rec size = function
  | Leaf -> 0
  | Two (l, _, r) -> 1 + size l + size r
  | Three (l, _, m, _, r) -> 2 + size l + size m + size r

let rec height = function
  | Leaf -> 0
  | Two (l, _, _) -> 1 + height l
  | Three (l, _, _, _, _) -> 1 + height l

let rec mem t k =
  match t with
  | Leaf -> false
  | Two (l, a, r) -> if k = a then true else if k < a then mem l k else mem r k
  | Three (l, a, m, b, r) ->
      if k = a || k = b then true
      else if k < a then mem l k
      else if k < b then mem m k
      else mem r k

(* Insertion: either the subtree absorbs the key at the same height, or it
   splits into (left, middle-key, right), each of the original height. *)
type grow =
  | Same of t
  | Split of t * int * t

let rec ins t k =
  match t with
  | Leaf -> Split (Leaf, k, Leaf)
  | Two (l, a, r) ->
      if k = a then Same t
      else if k < a then begin
        match ins l k with
        | Same l' -> Same (Two (l', a, r))
        | Split (x, b, y) -> Same (Three (x, b, y, a, r))
      end
      else begin
        match ins r k with
        | Same r' -> Same (Two (l, a, r'))
        | Split (x, b, y) -> Same (Three (l, a, x, b, y))
      end
  | Three (l, a, m, b, r) ->
      if k = a || k = b then Same t
      else if k < a then begin
        match ins l k with
        | Same l' -> Same (Three (l', a, m, b, r))
        | Split (x, c, y) -> Split (Two (x, c, y), a, Two (m, b, r))
      end
      else if k < b then begin
        match ins m k with
        | Same m' -> Same (Three (l, a, m', b, r))
        | Split (x, c, y) -> Split (Two (l, a, x), c, Two (y, b, r))
      end
      else begin
        match ins r k with
        | Same r' -> Same (Three (l, a, m, b, r'))
        | Split (x, c, y) -> Split (Two (l, a, m), b, Two (x, c, y))
      end

let insert t k =
  match ins t k with
  | Same t' -> t'
  | Split (l, a, r) -> Two (l, a, r)

(* Deletion: [del] returns the subtree plus whether its height shrank by
   one; a shrunken child is repaired at its parent by borrowing from a
   3-node sibling (rotation) or merging with a 2-node sibling
   (propagating the shrink). *)
type shrink =
  | Full of t  (* same height *)
  | Shrunk of t  (* height reduced by one *)

(* Repair [Shrunk] children of a Two node. *)
let fix_two_left l' a r =
  match r with
  | Two (rl, b, rr) -> Shrunk (Three (l', a, rl, b, rr))
  | Three (rl, b, rm, c, rr) -> Full (Two (Two (l', a, rl), b, Two (rm, c, rr)))
  | Leaf -> assert false

let fix_two_right l a r' =
  match l with
  | Two (ll, b, lr) -> Shrunk (Three (ll, b, lr, a, r'))
  | Three (ll, b, lm, c, lr) -> Full (Two (Two (ll, b, lm), c, Two (lr, a, r')))
  | Leaf -> assert false

(* Repair [Shrunk] children of a Three node (always yields Full). *)
let fix_three_left l' a m b r =
  match m with
  | Two (ml, c, mr) -> Full (Two (Three (l', a, ml, c, mr), b, r))
  | Three (ml, c, mm, d, mr) ->
      Full (Three (Two (l', a, ml), c, Two (mm, d, mr), b, r))
  | Leaf -> assert false

let fix_three_mid l a m' b r =
  match l, r with
  | Three (ll, c, lm, d, lr), _ ->
      Full (Three (Two (ll, c, lm), d, Two (lr, a, m'), b, r))
  | _, Three (rl, c, rm, d, rr) ->
      Full (Three (l, a, Two (m', b, rl), c, Two (rm, d, rr)))
  | Two (ll, c, lr), _ -> Full (Two (Three (ll, c, lr, a, m'), b, r))
  | Leaf, _ -> assert false

let fix_three_right l a m b r' =
  match m with
  | Two (ml, c, mr) -> Full (Two (l, a, Three (ml, c, mr, b, r')))
  | Three (ml, c, mm, d, mr) ->
      Full (Three (l, a, Two (ml, c, mm), d, Two (mr, b, r')))
  | Leaf -> assert false

(* Remove and return the minimum key of a nonempty subtree. *)
let rec del_min t =
  match t with
  | Leaf -> invalid_arg "Two_three.del_min: empty"
  | Two (Leaf, a, Leaf) -> (a, Shrunk Leaf)
  | Three (Leaf, a, Leaf, b, Leaf) -> (a, Full (Two (Leaf, b, Leaf)))
  | Two (l, a, r) -> begin
      match del_min l with
      | k, Full l' -> (k, Full (Two (l', a, r)))
      | k, Shrunk l' -> (k, fix_two_left l' a r)
    end
  | Three (l, a, m, b, r) -> begin
      match del_min l with
      | k, Full l' -> (k, Full (Three (l', a, m, b, r)))
      | k, Shrunk l' -> (k, fix_three_left l' a m b r)
    end

let rec del t k =
  match t with
  | Leaf -> Full Leaf
  | Two (Leaf, a, Leaf) -> if k = a then Shrunk Leaf else Full t
  | Three (Leaf, a, Leaf, b, Leaf) ->
      if k = a then Full (Two (Leaf, b, Leaf))
      else if k = b then Full (Two (Leaf, a, Leaf))
      else Full t
  | Two (l, a, r) ->
      if k < a then begin
        match del l k with
        | Full l' -> Full (Two (l', a, r))
        | Shrunk l' -> fix_two_left l' a r
      end
      else if k > a then begin
        match del r k with
        | Full r' -> Full (Two (l, a, r'))
        | Shrunk r' -> fix_two_right l a r'
      end
      else begin
        (* Replace a by its successor, then repair. *)
        match del_min r with
        | s, Full r' -> Full (Two (l, s, r'))
        | s, Shrunk r' -> fix_two_right l s r'
      end
  | Three (l, a, m, b, r) ->
      if k < a then begin
        match del l k with
        | Full l' -> Full (Three (l', a, m, b, r))
        | Shrunk l' -> fix_three_left l' a m b r
      end
      else if k = a then begin
        match del_min m with
        | s, Full m' -> Full (Three (l, s, m', b, r))
        | s, Shrunk m' -> fix_three_mid l s m' b r
      end
      else if k < b then begin
        match del m k with
        | Full m' -> Full (Three (l, a, m', b, r))
        | Shrunk m' -> fix_three_mid l a m' b r
      end
      else if k = b then begin
        match del_min r with
        | s, Full r' -> Full (Three (l, a, m, s, r'))
        | s, Shrunk r' -> fix_three_right l a m s r'
      end
      else begin
        match del r k with
        | Full r' -> Full (Three (l, a, m, b, r'))
        | Shrunk r' -> fix_three_right l a m b r'
      end

let delete t k =
  match del t k with
  | Full t' -> t'
  | Shrunk t' -> t'

type insert_record = { key : int; mutable inserted : bool }
type mem_record = { mem_key : int; mutable found : bool }
type delete_record = { del_key : int; mutable deleted : bool }

type op =
  | Insert of insert_record
  | Mem of mem_record
  | Delete of delete_record

let insert_op key = Insert { key; inserted = false }
let mem_op key = Mem { mem_key = key; found = false }
let delete_op key = Delete { del_key = key; deleted = false }

let run_batch t d =
  let records =
    Array.to_list d
    |> List.filter_map (function
         | Insert r -> Some r
         | Mem _ | Delete _ -> None)
  in
  let sorted =
    List.sort_uniq (fun (a : insert_record) b -> compare a.key b.key) records
  in
  let arr = Array.of_list sorted in
  (* Median-first recursion over the sorted batch (Paul-Vishkin-Wagener):
     after inserting the median, the halves target disjoint tree regions,
     which is what the parallel version exploits. *)
  let rec insert_range t lo hi =
    if lo >= hi then t
    else begin
      let mid = (lo + hi) / 2 in
      let r = arr.(mid) in
      let before = mem t r.key in
      let t = insert t r.key in
      if not before then r.inserted <- true;
      let t = insert_range t lo mid in
      insert_range t (mid + 1) hi
    end
  in
  let t = insert_range t 0 (Array.length arr) in
  (* Duplicate records in the same batch: mark inserted on the first
     occurrence only (sort_uniq already keeps one record per key; other
     records with the same key keep [inserted = false]). *)
  (* Delete phase. *)
  let t =
    Array.fold_left
      (fun t op ->
        match op with
        | Delete r ->
            if mem t r.del_key then begin
              r.deleted <- true;
              delete t r.del_key
            end
            else t
        | Insert _ | Mem _ -> t)
      t d
  in
  (* Membership phase observes the batch's net effect. *)
  Array.iter
    (function
      | Insert _ | Delete _ -> ()
      | Mem r -> r.found <- mem t r.mem_key)
    d;
  t

let rec to_sorted_list = function
  | Leaf -> []
  | Two (l, a, r) -> to_sorted_list l @ (a :: to_sorted_list r)
  | Three (l, a, m, b, r) ->
      to_sorted_list l @ (a :: to_sorted_list m) @ (b :: to_sorted_list r)

let check_invariants t =
  (* Uniform leaf depth. *)
  let rec depth = function
    | Leaf -> 0
    | Two (l, _, r) ->
        let dl = depth l and dr = depth r in
        if dl <> dr then failwith "Two_three: unbalanced Two node";
        dl + 1
    | Three (l, _, m, _, r) ->
        let dl = depth l and dm = depth m and dr = depth r in
        if dl <> dm || dm <> dr then failwith "Two_three: unbalanced Three node";
        dl + 1
  in
  ignore (depth t);
  (* Strictly ascending in-order keys. *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        if a >= b then failwith "Two_three: keys out of order";
        ascending rest
    | _ -> ()
  in
  ascending (to_sorted_list t)

let sim_model ~initial_size ?(records_per_node = 1) () =
  let size = ref initial_size in
  let reset () = size := initial_size in
  let batch_cost nodes =
    let x = max 1 (records_per_node * Array.length nodes) in
    let lg_x = Model.log2_cost x in
    let lg_n = Model.log2_cost !size in
    let sort = Par.balanced ~leaf_cost:(fun _ -> lg_x) x in
    let searches = Par.balanced ~leaf_cost:(fun _ -> lg_n) x in
    let insert_rec = Par.balanced ~leaf_cost:(fun _ -> lg_n) x in
    size := !size + x;
    Par.series [ sort; searches; insert_rec ]
  in
  let seq_cost _ =
    let c = Model.log2_cost !size + 2 in
    size := !size + records_per_node;
    max 1 (records_per_node * c)
  in
  { Model.name = "two_three"; reset; batch_cost; seq_cost }
