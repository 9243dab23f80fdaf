let stall_ns = 1_000_000_000

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
  ops : int Atomic.t array;  (* completed ops per structure *)
  stalled : bool array;  (* an open stall episode per structure *)
  stalls : int Atomic.t;
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

let op_done t ~sid = if t.on && sid_ok t sid then Atomic.incr t.ops.(sid)

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
                   ])) );
      ]
  end
