(** Seeded operation-script generators, one per batched structure, for
    {!Conformance} and the schedule fuzzer's runtime leg. Each is
    deterministic in its {!Util.Rng.t}.

    Script generators take the script length [n] where operand ranges
    depend on it. The 2-3 tree and order-statistic tree generators keep
    insert keys injective across the script: those structures dedupe
    same-key inserts {e within} a batch with [List.sort_uniq], whose
    surviving record is implementation-defined, so a conformance oracle
    could not predict which duplicate record gets the [inserted] flag.
    The skip list (stable insertion order) and hash table (batch order
    per bucket) define in-batch duplicates exactly, so their generators
    reuse keys freely. *)

val script : gen:(Util.Rng.t -> int -> 'op) -> n:int -> seed:int -> 'op array
(** [script ~gen ~n ~seed] draws ops [gen rng 0 .. gen rng (n-1)] in
    index order from a fresh stream — deterministic in [seed]. *)

val counter_op : Util.Rng.t -> int -> Batched.Counter.op
(** Increments of -9..9. *)

val fifo_op : Util.Rng.t -> int -> Batched.Fifo.op
(** ~60% enqueues. *)

val stack_op : Util.Rng.t -> int -> Batched.Stack.op
(** ~60% pushes. *)

val pqueue_op : Util.Rng.t -> int -> Batched.Pqueue.op
(** ~60% inserts; priorities are distinct across the script (extraction
    order on priority ties is implementation-defined). *)

val hashtable_op : n:int -> Util.Rng.t -> int -> Batched.Hashtable.op
(** Inserts, lookups and removes over a small key space (collisions
    intended). *)

val skiplist_op : n:int -> Util.Rng.t -> int -> Batched.Skiplist.op
(** Inserts, membership tests and deletes over a small key space, with
    ~1/8 range queries (cross-shard fan-outs when sharded). *)

val two_three_op : n:int -> Util.Rng.t -> int -> Batched.Two_three.op
(** Injective insert keys; queries and deletes over the same range. *)

val ostree_op : n:int -> shards:int -> Util.Rng.t -> int -> Batched.Ostree.op
(** Injective insert keys; deletes, ranks and range queries ride along
    (ranks and ranges fan out when sharded), and selects only when
    [shards <= 1] — an exact select is not shardable (see
    [Batched.Shard.ostree]). *)
