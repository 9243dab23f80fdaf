(* The trapped BATCHIFY (DESIGN.md §8).

   The pending array has one slot per worker. A caller publishes its op
   into its own worker's slot and is then *trapped*: it runs only batch
   work until its op completes, so every worker has at most one op
   pending and at most P ops are pending at any instant. The slot also
   carries the op's state: [None] — no op of this worker pending;
   [Some op] — published and waiting, or collected into the batch in
   flight. A launcher collects by reading the slots (it leaves them
   [Some]) and marks a collected op done by setting its slot back to
   [None] when the batch completes, before it releases the batch flag.
   So, with the flag free, a [Some] slot is always an uncollected op:
   a trapped worker whose slot is still [Some] may launch, and a
   collected op can never be collected twice.

   Publication and launch ordering: the owner is the only writer of
   [None -> Some] and the flag holder the only writer of [Some -> None],
   so publication is a CAS that cannot fail (asserted) and collection
   needs no CAS at all. Every pending op belongs to a worker that keeps
   trying to launch while its slot is [Some] and the flag is free, so
   no op waits for a wake-up. The BOP's results reach the caller
   through the slot: the BOP's writes precede the launcher's
   [Atomic.set slot None], which the caller reads before returning.

   Lemma 2: the caller reads the launch counter after its op is
   published. A launch counted from then on either collected the op
   (its own batch) or collected before the publication and counted
   after the read (at most one such launch, since launches are
   serialized); a launch takes every published slot, so the next
   collect admits the op. So an op sees at most 2 launches while
   pending. *)

(* Per-worker batch stamps, written by the launcher before it marks the
   op done and read by the op's caller afterwards: worker [w]'s stripe
   of [stamps] holds, at these offsets, its batch's launch stamp, its
   finish stamp, the launch counter at the finish, and the worker that
   ran the batch. *)
let st_start = 0
let st_done = 1
let st_launches = 2
let st_worker = 3

(* Padding: [flag] and the counters are written by every launcher; each
   lives in its own padded block ([Pad.atomic]), and each slot is padded
   individually so two workers publishing to adjacent slots do not share
   a line. *)
type ('s, 'op) t = {
  pool : Pool.t;
  st : 's;
  run_batch : Pool.t -> 's -> 'op array -> unit;
  sid : int;
  obs : Obs.Probe.t;  (* the pool's probe: every observer of the batch path *)
  slots : 'op option Atomic.t array;  (* one per worker, padded *)
  stamps : int array;  (* per-worker stripes, see [st_start] *)
  taken : int array;  (* flag holder only: workers whose ops the batch holds *)
  flag : bool Atomic.t;
  launches : int Atomic.t;
  n_batches : int Atomic.t;
  n_ops : int Atomic.t;
  max_batch : int Atomic.t;
}

type stats = {
  batches : int;
  ops : int;
  max_batch : int;
  ovf : int;
}

let create ?(sid = 0) ~pool ~state ~run_batch () =
  let p = Pool.num_workers pool in
  {
    pool;
    st = state;
    run_batch;
    sid;
    obs = Pool.probe pool;
    slots = Array.init p (fun _ -> Pad.atomic None);
    stamps = Array.make (p * Pad.stride) 0;
    taken = Array.make p 0;
    flag = Pad.atomic false;
    launches = Pad.atomic 0;
    n_batches = Pad.atomic 0;
    n_ops = Pad.atomic 0;
    max_batch = Pad.atomic 0;
  }

let state t = t.st

let stats t =
  {
    batches = Atomic.get t.n_batches;
    ops = Atomic.get t.n_ops;
    max_batch = Atomic.get t.max_batch;
    ovf = 0;
  }

let rec atomic_max a v =
  let old = Atomic.get a in
  if v > old && not (Atomic.compare_and_set a old v) then atomic_max a v

let[@inline] recording t = Obs.Recorder.enabled (Obs.Probe.recorder t.obs)

let op_of t w =
  match Atomic.get t.slots.(w) with Some op -> op | None -> assert false

(* Flag-holder-only: take every published op into [taken]. At most P
   ops are pending, so the batch fits the cap P (Invariant 2). Θ(P)
   work, the paper's LAUNCHBATCH setup bound. *)
let collect t =
  let len = ref 0 in
  for w = 0 to Array.length t.slots - 1 do
    if Atomic.get t.slots.(w) != None then begin
      t.taken.(!len) <- w;
      incr len
    end
  done;
  !len

(* LAUNCHBATCH by the flag holder [me]: collect, run the BOP inline in
   batch context, stamp and mark the batch's ops done, release the
   flag. *)
let launch t me =
  let observed = recording t in
  (* Attribute this worker's time to the bound's terms: working-set
     assembly and the done marks are LAUNCHBATCH overhead (n·s(n)), the
     BOP body itself is batch work (W(n)). *)
  if observed then Pool.set_work_class t.pool Obs.Recorder.Wsetup;
  let len = collect t in
  if len > 0 then begin
    let ops = Array.make len (op_of t t.taken.(0)) in
    for i = 1 to len - 1 do
      ops.(i) <- op_of t t.taken.(i)
    done;
    Atomic.incr t.launches;
    let t_start = Obs.Probe.now t.obs in
    Obs.Probe.launch t.obs ~time:t_start ~worker:me ~sid:t.sid ~size:len
      ~setup:0 ~cap:(Array.length t.slots);
    if observed then Pool.set_work_class t.pool Obs.Recorder.Wbatch;
    Pool.exec_bop t.pool t.run_batch t.st ops;
    if observed then Pool.set_work_class t.pool Obs.Recorder.Wsetup;
    let done_time = Obs.Probe.now t.obs in
    if Obs.Probe.on t.obs then begin
      let done_launches = Atomic.get t.launches in
      for i = 0 to len - 1 do
        let base = t.taken.(i) * Pad.stride in
        t.stamps.(base + st_start) <- t_start;
        t.stamps.(base + st_done) <- done_time;
        t.stamps.(base + st_launches) <- done_launches;
        t.stamps.(base + st_worker) <- me
      done
    end;
    Obs.Probe.finish t.obs ~time:done_time ~worker:me ~sid:t.sid ~size:len;
    Atomic.incr t.n_batches;
    ignore (Atomic.fetch_and_add t.n_ops len);
    atomic_max t.max_batch len;
    for i = 0 to len - 1 do
      Atomic.set t.slots.(t.taken.(i)) None
    done
  end;
  Atomic.set t.flag false;
  if observed then Pool.set_work_class t.pool Obs.Recorder.Wwait

(* The trapped loop of worker [w]: until its op is done, launch when the
   flag is free (its op is then uncollected), else run one batch task or
   idle. *)
let rec trap t w misses =
  if Atomic.get t.slots.(w) != None then begin
    Obs.Probe.beat t.obs ~worker:w;
    if (not (Atomic.get t.flag)) && Atomic.compare_and_set t.flag false true
    then begin
      launch t w;
      trap t w 0
    end
    else trap t w (Pool.help t.pool misses)
  end

let batchify ?(token = -1) t op =
  let w =
    match Pool.worker_index () with
    | Some w -> w
    | None -> invalid_arg "Batcher_rt.batchify: must be called from a pool task"
  in
  if Pool.in_batch () then
    invalid_arg "Batcher_rt.batchify: called from batch work (inside a BOP)";
  let observed = recording t in
  let issue = Obs.Probe.now t.obs in
  Obs.Probe.submit t.obs ~time:issue ~worker:w ~sid:t.sid ~token;
  (* A trapped worker runs no core task, so its previous op is done and
     its slot is free. *)
  let published = Atomic.compare_and_set t.slots.(w) None (Some op) in
  assert published;
  (* The op is pending from here: Lemma 2 counts launches from now. *)
  let issue_launches = Atomic.get t.launches in
  let cls = if observed then Pool.work_class t.pool else Obs.Recorder.Wcore in
  if observed then Pool.set_work_class t.pool Obs.Recorder.Wwait;
  trap t w 0;
  if observed then Pool.set_work_class t.pool cls;
  if Obs.Probe.on t.obs then begin
    let base = w * Pad.stride in
    Obs.Probe.complete t.obs ~time:(Obs.Probe.now t.obs) ~worker:w ~sid:t.sid
      ~token ~issue ~launch:t.stamps.(base + st_start)
      ~finish:t.stamps.(base + st_done)
      ~seen:(t.stamps.(base + st_launches) - issue_launches)
      ~batch_worker:t.stamps.(base + st_worker)
  end
