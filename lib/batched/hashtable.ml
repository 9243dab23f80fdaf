(* One block per binding. [value] and [next] are mutable, so a replace
   writes in place, a remove unlinks in place, and a resize re-links the
   existing blocks. *)
type chain =
  | Nil
  | Node of { key : int; mutable value : int; mutable next : chain }

type t = {
  mutable table : chain array;
  mutable count : int;
}

let min_buckets = 16

let create ?(initial_buckets = min_buckets) () =
  { table = Array.make (max 1 initial_buckets) Nil; count = 0 }

let length t = t.count
let buckets t = Array.length t.table

(* Fibonacci hashing on the key, reduced modulo the current table. *)
let bucket_of t key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land max_int mod Array.length t.table

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

let rec find key = function
  | Nil -> None
  | Node n -> if n.key = key then Some n.value else find key n.next

(* Overwrite [key]'s value; [false] if the chain does not hold [key]. *)
let rec replace key value = function
  | Nil -> false
  | Node n ->
      if n.key = key then begin
        n.value <- value;
        true
      end
      else replace key value n.next

(* Unlink [key] from the chain after the node [prev]; [false] if absent. *)
let rec unlink_after key prev =
  match prev with
  | Nil -> false
  | Node p -> (
      match p.next with
      | Nil -> false
      | Node n as cur ->
          if n.key = key then begin
            p.next <- n.next;
            true
          end
          else unlink_after key cur)

let rec fold_chain f acc = function
  | Nil -> acc
  | Node n -> fold_chain f (f acc n.key n.value) n.next

let rec relink t = function
  | Nil -> ()
  | Node n as node ->
      let rest = n.next in
      let b = bucket_of t n.key in
      n.next <- t.table.(b);
      t.table.(b) <- node;
      relink t rest

let resize t new_size =
  let old = t.table in
  t.table <- Array.make (max min_buckets new_size) Nil;
  Array.iter (relink t) old

let maybe_resize t =
  (* A whole batch lands before the check, so the table may need to grow
     or shrink by several factors at once. *)
  let n_buckets = Array.length t.table in
  if t.count > 2 * n_buckets then begin
    let rec grow s = if t.count > 2 * s then grow (2 * s) else s in
    resize t (grow n_buckets)
  end
  else if t.count < n_buckets / 4 && n_buckets > min_buckets then begin
    let rec shrink s =
      if t.count < s / 4 && s > min_buckets then shrink (s / 2) else s
    in
    resize t (shrink n_buckets)
  end

(* [true] if an existing binding was replaced. *)
let add t key value =
  let b = bucket_of t key in
  let chain = t.table.(b) in
  if replace key value chain then true
  else begin
    t.table.(b) <- Node { key; value; next = chain };
    t.count <- t.count + 1;
    false
  end

(* [true] if a binding was removed. *)
let drop t key =
  let b = bucket_of t key in
  let removed =
    match t.table.(b) with
    | Nil -> false
    | Node n as first ->
        if n.key = key then begin
          t.table.(b) <- n.next;
          true
        end
        else unlink_after key first
  in
  if removed then t.count <- t.count - 1;
  removed

let get t key = find key t.table.(bucket_of t key)

let run_batch t ops =
  (* The parallel version groups records by bucket and walks buckets
     concurrently; applying records in batch order per bucket gives the
     same results, which is what this sequential core does. *)
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
  Array.fold_left (fold_chain (fun acc k v -> (k, v) :: acc)) [] t.table
  |> List.sort compare

let check_invariants t =
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun b chain ->
      fold_chain
        (fun () k _ ->
          if bucket_of t k <> b then failwith "Hashtable: entry in wrong bucket";
          if Hashtbl.mem seen k then failwith "Hashtable: duplicate key";
          Hashtbl.add seen k ())
        () chain)
    t.table;
  if Hashtbl.length seen <> t.count then failwith "Hashtable: count mismatch";
  let n_buckets = Array.length t.table in
  if t.count > 2 * n_buckets then failwith "Hashtable: overfull";
  if n_buckets > min_buckets && t.count < n_buckets / 4 then
    failwith "Hashtable: underfull"

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
