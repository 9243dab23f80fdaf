(** Batched skip list — the data structure of the paper's Section 7
    evaluation.

    The batched insert (BOP) follows the paper's three steps: (1) build a
    small list from the batch's records, (2) search for every record's
    position in the main list, (3) splice. Here the build sorts the
    batch's insert keys, the searches walk chunks of keys in lockstep so
    that their cache misses overlap (each from the head: a batch of [x]
    keys costs O(x lg N) expected), and the splice runs in descending key
    order, which keeps every saved search position valid. The simulator
    cost model exposes the parallel shape (searches in parallel,
    build/splice sequential), as the paper's implementation did.

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
(** [run_batch_with] with a sequential [pfor]. *)

val run_batch_with :
  pfor:(int -> (int -> unit) -> unit) -> t -> op array -> unit
(** The paper's BOP. Phase order within a batch: inserts, then deletes,
    then queries (membership and ranges, which observe the batch's net
    effect). Of equal insert keys, the earliest in batch order is the
    one that inserts.

    The insert searches, and then the membership searches, run in
    chunks of keys through [pfor count body]: pass
    [Runtime.Pool.parallel_for pool ~lo:0 ~hi:count] (suitably wrapped)
    to run chunks in parallel. The searches only read the list; the
    splices, deletes and range queries run sequentially. A lone insert
    or lone membership query takes the plain search, with no chunk.
    Results are the same for any correct [pfor].

    Each key's predecessor row goes into a matrix the list keeps across
    batches, so a batch allocates per inserted record only the height
    draw that {!insert_seq} allocates (pinned by a test). *)

val insert_seq : t -> int -> bool
(** Single-key insert; [true] if the key was new. The sequential baseline
    of Figure 5. Raises [Invalid_argument] on [max_int].

    It keeps a finger: every operation leaves one exact row of
    predecessors behind (for some key q, the rightmost node below q on
    each level). A key above the row's level-0 node climbs a few levels
    from the row before it walks down; any other key, or one the climb
    cannot reach, walks from the head. An ascending run of inserts then
    costs O(1) levels per key. *)

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
    every freed slice sits once on its height's free list; the finger
    holds exact predecessors. Raises [Failure]. *)

val sim_model :
  initial_size:int -> ?records_per_node:int -> unit -> Model.t
(** Cost model for inserting fresh keys into a list that starts with
    [initial_size] elements. A batch of [x] records costs: build Θ(x)
    sequential; searches [x] parallel leaves of ~lg(size) each; splice
    Θ(x) sequential. A lone sequential insert costs ~lg(size) + O(1).
    Batches with equal [x] and equal
    per-search cost get the physically same tree while that cost
    holds. *)
