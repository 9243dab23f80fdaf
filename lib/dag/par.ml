type t =
  | Leaf of int
  | Series of t list
  | Branch of t list

let leaf c = Leaf (max 1 c)

let series = function
  | [] -> invalid_arg "Par.series: empty"
  | [ x ] -> x
  | l -> Series l

let branch = function
  | [] -> invalid_arg "Par.branch: empty"
  | [ x ] -> x
  | l -> Branch l

let balanced ~leaf_cost k =
  if k < 1 then invalid_arg "Par.balanced: k must be >= 1";
  (* Build the leaf list; the Branch lowering produces the balanced binary
     fork/join tree over them. *)
  branch (List.init k (fun i -> leaf (leaf_cost i)))

(* Work and span are defined to agree exactly with the binary lowering in
   Dag.of_par: a Branch over the sublist [lo, hi) splits at the midpoint,
   spending one unit-cost fork node and one unit-cost join node per split. *)

let rec work = function
  | Leaf c -> c
  | Series l -> List.fold_left (fun acc x -> acc + work x) 0 l
  | Branch l ->
      let arr = Array.of_list l in
      branch_work arr 0 (Array.length arr)

and branch_work arr lo hi =
  if hi - lo = 1 then work arr.(lo)
  else begin
    let mid = (lo + hi) / 2 in
    2 + branch_work arr lo mid + branch_work arr mid hi
  end

let rec span = function
  | Leaf c -> c
  | Series l -> List.fold_left (fun acc x -> acc + span x) 0 l
  | Branch l ->
      let arr = Array.of_list l in
      branch_span arr 0 (Array.length arr)

and branch_span arr lo hi =
  if hi - lo = 1 then span arr.(lo)
  else begin
    let mid = (lo + hi) / 2 in
    2 + max (branch_span arr lo mid) (branch_span arr mid hi)
  end

let rec leaves = function
  | Leaf _ -> 1
  | Series l | Branch l -> List.fold_left (fun acc x -> acc + leaves x) 0 l

let rec pp fmt = function
  | Leaf c -> Format.fprintf fmt "%d" c
  | Series l ->
      Format.fprintf fmt "(seq@ %a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
        l
  | Branch l ->
      Format.fprintf fmt "(par@ %a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp)
        l
