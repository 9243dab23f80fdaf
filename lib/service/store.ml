module type STORE = sig
  type t
  type op

  val name : string
  val supports_range : bool
  val create : seed:int -> shard:int -> t
  val prepopulate : t -> shards:int -> shard:int -> n_keys:int -> unit
  val op_of : Gen.requests -> int -> op
  val plan : shards:int -> op -> op Batched.Shard.plan
  val run_batch : Runtime.Pool.t -> t -> op array -> unit
  val model : n_keys:int -> shards:int -> int -> Batched.Model.t
end

(* Steady-state size of one shard: prepopulation inserts the even half
   of the key space, spread across shards by route. *)
let shard_size ~n_keys ~shards = max 1 (n_keys / 2 / max 1 shards)

let prepop_loop ~shards ~shard ~n_keys insert =
  let k = ref 0 in
  while !k < n_keys do
    if Batched.Shard.route ~shards !k = shard then insert !k;
    k := !k + 2
  done

module Skiplist_store = struct
  type t = Batched.Skiplist.t
  type op = Batched.Skiplist.op

  let name = "skiplist"
  let supports_range = true
  let create ~seed ~shard = Batched.Skiplist.create ~seed:(seed + shard) ()

  let prepopulate t ~shards ~shard ~n_keys =
    prepop_loop ~shards ~shard ~n_keys (fun k ->
        ignore (Batched.Skiplist.insert_seq t k))

  let op_of (r : Gen.requests) i =
    let key = r.key.(i) in
    match Gen.op_class r i with
    | Gen.Get -> Batched.Skiplist.mem key
    | Gen.Put -> Batched.Skiplist.insert key
    | Gen.Delete -> Batched.Skiplist.delete key
    | Gen.Range -> Batched.Skiplist.range ~lo:key ~hi:r.key2.(i)

  let plan = Batched.Shard.skiplist.Batched.Shard.plan

  let run_batch pool t ops =
    Batched.Skiplist.run_batch_with
      ~pfor:(fun count body ->
        Runtime.Pool.parallel_for pool ~lo:0 ~hi:count body)
      t ops

  let model ~n_keys ~shards _shard =
    Batched.Skiplist.sim_model ~initial_size:(shard_size ~n_keys ~shards) ()
end

module Hashtable_store = struct
  type t = Batched.Hashtable.t
  type op = Batched.Hashtable.op

  let name = "hashtable"
  let supports_range = false
  let create ~seed:_ ~shard:_ = Batched.Hashtable.create ()

  let prepopulate t ~shards ~shard ~n_keys =
    prepop_loop ~shards ~shard ~n_keys (fun k ->
        ignore (Batched.Hashtable.insert_seq t ~key:k ~value:k))

  let op_of (r : Gen.requests) i =
    let key = r.key.(i) in
    match Gen.op_class r i with
    | Gen.Get | Gen.Range -> Batched.Hashtable.lookup key
    | Gen.Put -> Batched.Hashtable.insert ~key ~value:r.key2.(i)
    | Gen.Delete -> Batched.Hashtable.remove key

  let plan = Batched.Shard.hashtable.Batched.Shard.plan
  let run_batch _pool t ops = Batched.Hashtable.run_batch t ops
  let model ~n_keys:_ ~shards:_ _shard = Batched.Hashtable.sim_model ()
end

module Two_three_store = struct
  type t = Batched.Two_three.t ref
  type op = Batched.Two_three.op

  let name = "two_three"
  let supports_range = false
  let create ~seed:_ ~shard:_ = ref Batched.Two_three.empty

  let prepopulate t ~shards ~shard ~n_keys =
    prepop_loop ~shards ~shard ~n_keys (fun k ->
        t := Batched.Two_three.insert !t k)

  let op_of (r : Gen.requests) i =
    let key = r.key.(i) in
    match Gen.op_class r i with
    | Gen.Get | Gen.Range -> Batched.Two_three.mem_op key
    | Gen.Put -> Batched.Two_three.insert_op key
    | Gen.Delete -> Batched.Two_three.delete_op key

  let op_key = function
    | Batched.Two_three.Insert r -> r.Batched.Two_three.key
    | Batched.Two_three.Mem r -> r.Batched.Two_three.mem_key
    | Batched.Two_three.Delete r -> r.Batched.Two_three.del_key

  let plan ~shards op =
    Batched.Shard.Point (Batched.Shard.route ~shards (op_key op))

  let run_batch _pool t ops = t := Batched.Two_three.run_batch !t ops

  let model ~n_keys ~shards _shard =
    Batched.Two_three.sim_model ~initial_size:(shard_size ~n_keys ~shards) ()
end

type t = (module STORE)

let skiplist : t = (module Skiplist_store)
let hashtable : t = (module Hashtable_store)
let two_three : t = (module Two_three_store)

let all =
  [ ("skiplist", skiplist); ("hashtable", hashtable); ("two_three", two_three) ]

let find name = List.assoc_opt name all
