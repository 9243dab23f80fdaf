let slo_ns = 100_000_000
let stall_ns = 1_000_000_000

type phase = Pending | Exec

let n_phases = 2
let phase_idx = function Pending -> 0 | Exec -> 1
let phase_name = function Pending -> "pending" | Exec -> "exec"
let phases = [ Pending; Exec ]

type t = {
  on : bool;
  workers : int;
  structures : int;
  hb : int array;  (* last beat (Clock ns) per worker; 0 = never *)
  hb_skip : int array;  (* beats until the next clock read, per worker *)
  pend : int Atomic.t array;  (* pending-op gauge per structure *)
  pending_since : int array;  (* ns; meaningful while pend > 0 *)
  last_launch : int array;  (* ns of the last collection per structure *)
  launches : int Atomic.t array;
  ops : int Atomic.t array;  (* ops with recorded phases per structure *)
  stalled : bool array;  (* an open stall episode per structure *)
  stalls : int Atomic.t;
  (* Histograms indexed ((worker * structures) + sid) * n_phases +
     phase: one writer each (the worker whose op completed), merged by
     readers. *)
  phase : Summary.Histo.t array;
  burn : int Atomic.t array;  (* sid * n_phases + phase *)
}

let null =
  {
    on = false;
    workers = 0;
    structures = 0;
    hb = [||];
    hb_skip = [||];
    pend = [||];
    pending_since = [||];
    last_launch = [||];
    launches = [||];
    ops = [||];
    stalled = [||];
    stalls = Atomic.make 0;
    phase = [||];
    burn = [||];
  }

let create ~workers ~structures () =
  if workers < 1 then invalid_arg "Health.create: workers >= 1";
  if structures < 1 then invalid_arg "Health.create: structures >= 1";
  {
    on = true;
    workers;
    structures;
    hb = Array.make workers 0;
    hb_skip = Array.make workers 0;
    pend = Array.init structures (fun _ -> Atomic.make 0);
    pending_since = Array.make structures 0;
    last_launch = Array.make structures 0;
    launches = Array.init structures (fun _ -> Atomic.make 0);
    ops = Array.init structures (fun _ -> Atomic.make 0);
    stalled = Array.make structures false;
    stalls = Atomic.make 0;
    phase =
      Array.init (workers * structures * n_phases) (fun _ ->
          Summary.Histo.create ());
    burn = Array.init (structures * n_phases) (fun _ -> Atomic.make 0);
  }

let enabled t = t.on
let workers t = t.workers
let structures t = t.structures

let[@inline] sid_ok t sid = sid >= 0 && sid < t.structures

(* The clock read (~30 ns) dominates a beat, and beats come once per
   scheduler-loop iteration, so only every 8th beat reads it: beat ages
   are at most 8 iterations stale — noise against the second-scale
   thresholds they feed, for 1/8th of the hot-path cost. *)
let[@inline] beat t ~worker =
  if t.on && worker >= 0 && worker < t.workers then begin
    let c = t.hb_skip.(worker) in
    if c = 0 then begin
      t.hb_skip.(worker) <- 7;
      t.hb.(worker) <- Clock.now_ns ()
    end
    else t.hb_skip.(worker) <- c - 1
  end

let op_issued t ~sid ~now =
  if t.on && sid_ok t sid then begin
    let old = Atomic.fetch_and_add t.pend.(sid) 1 in
    (* Plain store; racing first-issuers write near-identical stamps. *)
    if old = 0 then t.pending_since.(sid) <- now
  end

let batch_collected t ~sid ~size ~now =
  if t.on && sid_ok t sid then begin
    ignore (Atomic.fetch_and_add t.pend.(sid) (-size));
    t.last_launch.(sid) <- now;
    Atomic.incr t.launches.(sid);
    t.stalled.(sid) <- false
  end

let op_phases t ~worker ~sid ~pending ~exec =
  if t.on && sid_ok t sid && worker >= 0 && worker < t.workers then begin
    let base = ((worker * t.structures) + sid) * n_phases in
    Summary.Histo.add t.phase.(base) pending;
    Summary.Histo.add t.phase.(base + 1) exec;
    Atomic.incr t.ops.(sid);
    let bb = sid * n_phases in
    if pending > slo_ns then Atomic.incr t.burn.(bb);
    if exec > slo_ns then Atomic.incr t.burn.(bb + 1)
  end

let check_stalls ?now t =
  if t.on then begin
    let now = match now with Some v -> v | None -> Clock.now_ns () in
    for sid = 0 to t.structures - 1 do
      if Atomic.get t.pend.(sid) > 0 && not t.stalled.(sid) then begin
        (* The episode clock starts at the later of "structure became
           pending" and "last launch" — a structure being steadily
           drained never stalls however long its backlog lives. *)
        let since = max t.pending_since.(sid) t.last_launch.(sid) in
        if since > 0 && now - since > stall_ns then begin
          t.stalled.(sid) <- true;
          Atomic.incr t.stalls
        end
      end
    done
  end

let stall_count t = Atomic.get t.stalls

let heartbeat_age_ns t ~worker ~now =
  if (not t.on) || worker < 0 || worker >= t.workers || t.hb.(worker) = 0 then -1
  else now - t.hb.(worker)

let phase_histo t ~sid ph =
  let acc = ref (Summary.Histo.create ()) in
  if t.on && sid_ok t sid then
    for w = 0 to t.workers - 1 do
      acc :=
        Summary.Histo.merge !acc
          t.phase.((((w * t.structures) + sid) * n_phases) + phase_idx ph)
    done;
  !acc

let burn_count t ~sid ph =
  if t.on && sid_ok t sid then
    Atomic.get t.burn.((sid * n_phases) + phase_idx ph)
  else 0

let phase_json t ~sid ph =
  let h = phase_histo t ~sid ph in
  Json.Obj
    [
      ("count", Json.Int (Summary.Histo.count h));
      ("mean_ns", Json.Float (Summary.Histo.mean h));
      ("p50_ns", Json.Float (Summary.Histo.percentile h 0.5));
      ("p99_ns", Json.Float (Summary.Histo.percentile h 0.99));
      ("max_ns", Json.Int (Summary.Histo.max_v h));
      ("burn", Json.Int (burn_count t ~sid ph));
    ]

let to_json ?now t =
  if not t.on then Json.Null
  else begin
    let now = match now with Some v -> v | None -> Clock.now_ns () in
    Json.Obj
      [
        ("stall_ns", Json.Int stall_ns);
        ("stalls", Json.Int (stall_count t));
        ( "workers",
          Json.List
            (List.init t.workers (fun w ->
                 Json.Obj
                   [
                     ("w", Json.Int w);
                     ("beat_age_ns", Json.Int (heartbeat_age_ns t ~worker:w ~now));
                   ])) );
        ( "structures",
          Json.List
            (List.init t.structures (fun sid ->
                 Json.Obj
                   [
                     ("sid", Json.Int sid);
                     ("pending", Json.Int (Atomic.get t.pend.(sid)));
                     ("launches", Json.Int (Atomic.get t.launches.(sid)));
                     ("ops", Json.Int (Atomic.get t.ops.(sid)));
                     ("stalled", Json.Bool t.stalled.(sid));
                     ( "phases",
                       Json.Obj
                         (List.map
                            (fun ph -> (phase_name ph, phase_json t ~sid ph))
                            phases) );
                   ])) );
      ]
  end
