(* Keyspace sharding across K independent batched-structure instances.

   Everything here is substrate-agnostic: the combinator computes WHERE
   an operation goes (a routing plan), not HOW it is submitted. The real
   runtime's K-instance wiring (one [Batcher_rt] per shard, fork-join
   scatter for fan-out plans) lives in [Runtime.Shard_rt]; the simulator
   models each shard as one more structure via [Sim.Workload.sharded_ops]
   with [route] as the assignment function. Invariant 1 (one batch in
   flight) then holds per shard by construction — each shard has its own
   batch flag — which is exactly what makes sharding a throughput lever. *)

let route ~shards key =
  if shards <= 1 then 0
  else begin
    (* Fibonacci mix so that clustered key ranges still spread across
       shards; [land max_int] clears the sign bit, making the result
       total over all of [int]. A hash table picks slots from the top
       bits of another multiplier ([Hashtable.home]), so one shard's keys
       still spread over its whole table. *)
    let h = key * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 31)) land max_int mod shards
  end

(* K-way merge of ascending lists into one ascending list. Shard counts
   are small, so a linear scan for the minimum head is fine. *)
let merge_sorted parts =
  let heads = Array.copy parts in
  let k = Array.length heads in
  let rec go acc =
    let best = ref (-1) in
    for i = k - 1 downto 0 do
      match heads.(i) with
      | [] -> ()
      | x :: _ -> (
          match !best with
          | -1 -> best := i
          | b -> (
              match heads.(b) with
              | y :: _ when y <= x -> ()
              | _ -> best := i))
    done;
    match !best with
    | -1 -> List.rev acc
    | i -> (
        match heads.(i) with
        | x :: rest ->
            heads.(i) <- rest;
            go (x :: acc)
        | [] -> assert false)
  in
  go []

type 'op plan =
  | Point of int
  | Fanout of { sub : 'op array; merge : unit -> unit }

type ('t, 'op) spec = {
  name : string;
  make : int -> 't;
  apply : 't -> 'op array -> unit;
  plan : shards:int -> 'op -> 'op plan;
}

type ('t, 'op) t = {
  spec : ('t, 'op) spec;
  instances : 't array;
}

let create spec ~shards =
  if shards < 1 then invalid_arg "Shard.create: shards >= 1";
  { spec; instances = Array.init shards spec.make }

let shards t = Array.length t.instances
let instance t i = t.instances.(i)
let plan t op = t.spec.plan ~shards:(Array.length t.instances) op
let run_shard_batch t ~shard ops = t.spec.apply t.instances.(shard) ops

let apply_seq t op =
  match plan t op with
  | Point s -> t.spec.apply t.instances.(s) [| op |]
  | Fanout { sub; merge } ->
      Array.iteri (fun s o -> t.spec.apply t.instances.(s) [| o |]) sub;
      merge ()

let models ~shards model_for = Array.init shards model_for

(* ---------- specs ---------- *)

let skiplist_key = function
  | Skiplist.Insert r -> Some r.Skiplist.key
  | Skiplist.Mem r -> Some r.Skiplist.mem_key
  | Skiplist.Delete r -> Some r.Skiplist.del_key
  | Skiplist.Range _ -> None

let skiplist : (Skiplist.t, Skiplist.op) spec =
  {
    name = "skiplist";
    (* Distinct tower-height streams per shard keep runs reproducible
       without the shards sharing an RNG. *)
    make = (fun i -> Skiplist.create ~seed:(0xBA7C4 + i) ());
    apply = Skiplist.run_batch;
    plan =
      (fun ~shards op ->
        match skiplist_key op with
        | Some key -> Point (route ~shards key)
        | None -> (
            match op with
            | Skiplist.Range r ->
                let sub =
                  Array.init shards (fun _ ->
                      Skiplist.range ~lo:r.Skiplist.r_lo ~hi:r.Skiplist.r_hi)
                in
                let merge () =
                  r.Skiplist.r_keys <-
                    merge_sorted
                      (Array.map
                         (function
                           | Skiplist.Range s -> s.Skiplist.r_keys
                           | _ -> assert false)
                         sub)
                in
                Fanout { sub; merge }
            | _ -> assert false));
  }

let hashtable : (Hashtable.t, Hashtable.op) spec =
  {
    name = "hashtable";
    make = (fun _ -> Hashtable.create ());
    apply = Hashtable.run_batch;
    plan =
      (fun ~shards op ->
        let key =
          match op with
          | Hashtable.Insert r -> r.Hashtable.i_key
          | Hashtable.Lookup r -> r.Hashtable.l_key
          | Hashtable.Remove r -> r.Hashtable.r_key
        in
        Point (route ~shards key));
  }

let ostree : (Ostree.t ref, Ostree.op) spec =
  {
    name = "ostree";
    make = (fun _ -> ref Ostree.empty);
    apply = (fun t ops -> t := Ostree.run_batch !t ops);
    plan =
      (fun ~shards op ->
        match op with
        | Ostree.Insert r -> Point (route ~shards r.Ostree.key)
        | Ostree.Delete r -> Point (route ~shards r.Ostree.del_key)
        | Ostree.Rank r ->
            (* The global rank is the sum of per-shard ranks: every key
               strictly below [rank_of] lives in exactly one shard. *)
            let sub =
              Array.init shards (fun _ -> Ostree.rank_op r.Ostree.rank_of)
            in
            let merge () =
              r.Ostree.rank_result <-
                Array.fold_left
                  (fun acc o ->
                    match o with
                    | Ostree.Rank s -> acc + s.Ostree.rank_result
                    | _ -> assert false)
                  0 sub
            in
            Fanout { sub; merge }
        | Ostree.Range r ->
            let sub =
              Array.init shards (fun _ ->
                  Ostree.range_op ~lo:r.Ostree.r_lo ~hi:r.Ostree.r_hi)
            in
            let merge () =
              r.Ostree.r_keys <-
                merge_sorted
                  (Array.map
                     (function
                       | Ostree.Range s -> s.Ostree.r_keys
                       | _ -> assert false)
                     sub)
            in
            Fanout { sub; merge }
        | Ostree.Select _ when shards <= 1 -> Point 0
        | Ostree.Select _ ->
            (* An exact order-statistic select needs a multi-round
               quantile search across shards; a single scatter round
               cannot answer it. Callers must not shard Select. *)
            invalid_arg "Shard.ostree: Select is not shardable");
  }
