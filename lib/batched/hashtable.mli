(** Batched hash table: open addressing over one [int array].

    Slot i keeps its key at index 2i and its value at 2i + 1, so a
    binding in the array costs no heap block. A key's home slot is the
    top bits of a multiplicative hash ({!home}), probing is linear, and
    a removal shifts the rest of its probe run back, so there are no
    tombstones.
    Every [int] is a valid key: the one the array uses to mark an empty
    slot ([min_int]) keeps its binding beside the array.

    The table grows by doubling when it holds more than one binding per
    two slots, and shrinks by halving when it holds fewer than one per
    sixteen, down to 64 slots; the check runs at the end of every batch.
    Inside a batch, an insert that could take the load past three
    quarters doubles the array first.

    A batch applies its records in batch order, so a lookup observes
    the batch's earlier updates to its key. *)

type t

val create : unit -> t
val length : t -> int

val buckets : t -> int
(** The slot count. It changes only when the table resizes. *)

val home : bits:int -> int -> int
(** [home ~bits key] is [key]'s home slot in a table of [2^bits] slots:
    the top [bits] bits of its multiplicative hash. It uses a different
    multiplier from {!Shard.route}'s, so the keys that one shard receives
    spread over the whole of its table. Raises [Invalid_argument] unless
    [1 <= bits <= 62]. *)

type insert_record = { i_key : int; i_value : int; mutable replaced : bool }
type lookup_record = { l_key : int; mutable l_value : int option }
type remove_record = { r_key : int; mutable removed : bool }

type op =
  | Insert of insert_record
  | Lookup of lookup_record
  | Remove of remove_record

val insert : key:int -> value:int -> op
val lookup : int -> op
val remove : int -> op

val run_batch : t -> op array -> unit

val insert_seq : t -> key:int -> value:int -> bool
(** [true] if an existing binding was replaced. *)

val lookup_seq : t -> int -> int option
val remove_seq : t -> int -> bool

val to_sorted_bindings : t -> (int * int) list

val check_invariants : t -> unit
(** Linear probing holds: probing from each stored key's home reaches
    its slot, so no empty slot lies between them and no key is stored
    twice. [length] counts the array's keys and the side binding, and
    the load is within the resize window. *)

val sim_model : ?records_per_node:int -> unit -> Model.t
(** Cost model: a batch of x records costs a Θ(x) partition plus x
    parallel constant-cost bucket operations; resizes add Θ(size) work
    at Θ(lg size) span. *)
