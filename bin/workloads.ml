(* Workload specs of schedview.exe: one spec runs through BOTH the
   discrete-event simulator (Timesteps recorder, dual-deque scheduler)
   and the real OCaml-domains runtime (Nanoseconds recorder, trapped
   Batcher_rt). *)

type kind = Fig5 | Counter | Multi

let of_string = function
  | "fig5" | "skiplist" -> Some Fig5
  | "counter" -> Some Counter
  | "multi" -> Some Multi
  | _ -> None

let name = function Fig5 -> "fig5" | Counter -> "counter" | Multi -> "multi"

(* ---- simulator run ---- *)

let sim_workload kind ~n =
  match kind with
  | Fig5 ->
      Sim.Workload.parallel_ops
        ~model:
          (Batched.Skiplist.sim_model ~initial_size:100_000 ~records_per_node:100
             ())
        ~records_per_node:100 ~n_nodes:n ()
  | Counter ->
      Sim.Workload.parallel_ops
        ~model:(Batched.Counter.sim_model ())
        ~records_per_node:1 ~n_nodes:n ()
  | Multi ->
      Sim.Workload.interleaved_ops
        ~models:
          [
            Batched.Counter.sim_model ();
            Batched.Skiplist.sim_model ~initial_size:100_000
              ~records_per_node:10 ();
          ]
        ~records_per_node:10 ~n_nodes:n ()

(* Returns the recorder, the metrics, and the workload (for bound
   prediction). With [snapshot_oc], one snapshot line is appended to
   the channel after the run (the simulator has no mid-run hook; its
   totals still separate the sim and runtime phases in the stream). *)
let run_sim ?snapshot_oc kind ~p ~n ~seed ~overhead =
  let w = sim_workload kind ~n in
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Timesteps ~workers:p () in
  let cfg = { (Sim.Batcher.default ~p) with Sim.Batcher.seed; overhead } in
  let m = Sim.Batcher.run ~probe:(Obs.Probe.create ~recorder:rc ()) cfg w in
  Option.iter
    (fun oc ->
      let s = Obs.Snapshot.to_channel rc oc in
      Obs.Snapshot.sample ~time:m.Sim.Metrics.makespan s;
      Obs.Snapshot.close s)
    snapshot_oc;
  (rc, m, w)

(* ---- real-runtime run ---- *)

(* With [snapshot_oc], a dedicated sampler domain polls the recorder's
   live counters every [snapshot_interval_s] while the workload runs,
   appending JSONL lines the user can `tail -f`. *)
let run_runtime ?snapshot_oc ?(snapshot_interval_s = 0.01) kind ~p ~n ~seed =
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Nanoseconds ~workers:p () in
  let pool =
    Runtime.Pool.create ~probe:(Obs.Probe.create ~recorder:rc ()) ~num_workers:p
      ()
  in
  let stop = Atomic.make false in
  let sampler =
    Option.map
      (fun oc ->
        let snap = Obs.Snapshot.to_channel rc oc in
        Domain.spawn (fun () ->
            Obs.Snapshot.every snap ~interval_s:snapshot_interval_s
              ~stop:(fun () -> Atomic.get stop);
            Obs.Snapshot.close snap))
      snapshot_oc
  in
  let pfor pool n body =
    Runtime.Pool.parallel_for pool ~lo:0 ~hi:n body
  in
  let skiplist ~sid =
    let sl = Batched.Skiplist.create ~seed () in
    for i = 0 to 9_999 do
      ignore (Batched.Skiplist.insert_seq sl (2 * i))
    done;
    Runtime.Batcher_rt.create ~sid ~pool ~state:sl
      ~run_batch:(fun pool sl ops ->
        Batched.Skiplist.run_batch_with ~pfor:(pfor pool) sl ops)
      ()
  in
  let counter ~sid =
    Runtime.Batcher_rt.create ~sid ~pool ~state:(Batched.Counter.create ())
      ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
      ()
  in
  (match kind with
  | Fig5 ->
      let b = skiplist ~sid:0 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              Runtime.Batcher_rt.batchify b (Batched.Skiplist.insert (20_000 + i))))
  | Counter ->
      let b = counter ~sid:0 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun _ ->
              Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)))
  | Multi ->
      let c = counter ~sid:0 and s = skiplist ~sid:1 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              if i land 1 = 0 then
                Runtime.Batcher_rt.batchify c (Batched.Counter.op 1)
              else
                Runtime.Batcher_rt.batchify s
                  (Batched.Skiplist.insert (20_000 + i)))));
  Runtime.Pool.teardown pool;
  Atomic.set stop true;
  Option.iter Domain.join sampler;
  rc
