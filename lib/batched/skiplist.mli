(** Batched skip list — the data structure of the paper's Section 7
    evaluation.

    The batched insert (BOP) follows the paper's three steps: (1) build a
    small list from the batch's records, (2) search for every record's
    position in the main list, (3) splice. In the real implementation the
    records are sorted by key and every search starts from the head, so a
    batch of [x] keys costs O(x lg N) expected; the simulator cost model
    exposes the parallel shape (searches in parallel, build/splice
    sequential), exactly as the prototype in the paper did.

    Tower heights come from a deterministic private stream, so runs are
    reproducible. Keys are a set: inserting a present key is a no-op.

    Every node is a slice [\[key; height; fwd_0 … fwd_{h-1}\]] of one
    growable [int array], with successors held as offsets into it (see
    DESIGN.md §16): a search allocates nothing, and an insert or delete
    allocates no node storage. Only the list's single writer — the
    sequential paths, or a batch's splice and delete phases — grows
    that array or frees slices.

    [max_int] is reserved: every level ends at a tail sentinel holding
    it. Inserting [max_int] raises [Invalid_argument] (a batch raises
    before changing the list), [mem_seq t max_int] and
    [delete_seq t max_int] return [false], and a range with
    [hi = max_int] returns every stored key [>= lo]. *)

type t

val create : ?seed:int -> unit -> t

val length : t -> int

type insert_record = { key : int; mutable inserted : bool }
type mem_record = { mem_key : int; mutable found : bool }
type delete_record = { del_key : int; mutable deleted : bool }

type range_record = { r_lo : int; r_hi : int; mutable r_keys : int list }
(** Half-open interval query: the stored keys in [\[r_lo, r_hi)],
    ascending — the cross-shard operation of {!Shard}: each shard
    answers over its own keys and the combinator merges the sorted
    sub-results. *)

type op =
  | Insert of insert_record
  | Mem of mem_record
  | Delete of delete_record
  | Range of range_record

val insert : int -> op
val mem : int -> op
val delete : int -> op
val range : lo:int -> hi:int -> op

val run_batch : t -> op array -> unit
(** Phase order within a batch: inserts, then deletes, then queries
    (membership and ranges, which observe the batch's net effect). *)

val run_batch_with :
  pfor:(int -> (int -> unit) -> unit) -> t -> op array -> unit
(** Like {!run_batch}, but the search phase runs through [pfor count body]
    — the paper's actual BOP: searches into the main list proceed in
    parallel (they are read-only), and the splice phase is sequential,
    revalidating each saved search position past splices of smaller keys
    from the same batch. Pass [Runtime.Pool.parallel_for pool ~lo:0
    ~hi:count] (suitably wrapped) to parallelize for real; behavior is
    identical to {!run_batch} for any correct [pfor].

    Only the insert searches go through [pfor]. Deletes, then membership
    and range queries, run sequentially after the splice phase: at the
    measured batch sizes (mean 2.0 on two workers) a forked membership
    search cost more than it saved (DESIGN.md §16). *)

val insert_seq : t -> int -> bool
(** Single-key insert; [true] if the key was new. The sequential baseline
    of Figure 5. Raises [Invalid_argument] on [max_int]. *)

val mem_seq : t -> int -> bool

val delete_seq : t -> int -> bool
(** [true] if the key was present (and is now removed). *)

val range_seq : t -> lo:int -> hi:int -> int list
(** Stored keys in [\[lo, hi)], ascending; O(lg n + answer). *)

val to_list : t -> int list
(** Ascending key order. *)

val check_invariants : t -> unit
(** Validates the whole layout in time linear in the array's size:
    slices tile the used region; the live ones are exactly the level-0
    list, strictly ascending, [length t] of them; every level-l list is
    a subsequence of level 0 through exactly the towers taller than l;
    every freed slice sits once on its height's free list. Raises
    [Failure]. *)

val sim_model :
  initial_size:int -> ?records_per_node:int -> ?search_scale:float -> unit -> Model.t
(** Cost model for inserting fresh keys into a list that starts with
    [initial_size] elements. A batch of [x] records costs: build Θ(x)
    sequential; searches [x] parallel leaves of ~[search_scale]·lg(size)
    each; splice Θ(x) sequential. A lone sequential insert costs
    ~[search_scale]·lg(size) + O(1). *)
