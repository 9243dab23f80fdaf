(** Batched 2-3 tree — the search-tree example of Section 3, after Paul,
    Vishkin and Wagener's batched parallel dictionary.

    The batched insert sorts the batch's keys, inserts the median, and
    recurses on the two halves; every new key is thereby separated from
    the others by existing keys, which is what lets the parallel version
    proceed without concurrency control. The real implementation executes
    the same recursion sequentially (the recursion tree is the parallel
    structure); correctness is oracle-checked against [Stdlib.Set] in the
    tests.

    A size-x batch against n stored keys costs O(x·lg x) sort work plus
    O(x·lg n) search/insert work, with span O(lg x + lg n) — giving the
    paper's W(n) = O(n lg n), s(n) = O(lg n + sort(P)). *)

type t

val empty : t
val size : t -> int
val height : t -> int
val mem : t -> int -> bool
val insert : t -> int -> t
(** Single-key functional insert (the sequential baseline). *)

val delete : t -> int -> t
(** Single-key functional delete (no-op when absent), with standard 2-3
    rebalancing (rotate from a 3-node sibling, else merge and shrink). *)

type insert_record = { key : int; mutable inserted : bool }
type mem_record = { mem_key : int; mutable found : bool }
type delete_record = { del_key : int; mutable deleted : bool }

type op =
  | Insert of insert_record
  | Mem of mem_record
  | Delete of delete_record

val insert_op : int -> op
val mem_op : int -> op
val delete_op : int -> op

val run_batch : t -> op array -> t
(** Phase order within a batch: median-first recursive inserts, then
    deletes, then membership tests (which observe the net effect). *)

val to_sorted_list : t -> int list

val check_invariants : t -> unit
(** All leaves at equal depth, keys in order; raises [Failure]. *)

val sim_model : initial_size:int -> ?records_per_node:int -> unit -> Model.t
(** Cost model: sort (x parallel leaves of lg x each), search (x parallel
    leaves of ~lg n each), then the insertion recursion (balanced over x
    with lg n per leaf). *)
