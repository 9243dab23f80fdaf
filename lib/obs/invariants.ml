type t = {
  on : bool;
  rc : Recorder.t;
  lemma2_bound : int;
  pend : int Atomic.t array;  (* submitted − collected, per structure *)
  inflight : int Atomic.t array;  (* launched − ended, per structure *)
  checks : int Atomic.t;
  viol : int Atomic.t array;  (* length Recorder.n_checks *)
}

let null =
  {
    on = false;
    rc = Recorder.null;
    lemma2_bound = 0;
    pend = [||];
    inflight = [||];
    checks = Atomic.make 0;
    viol = [||];
  }

let create ?(lemma2_bound = 2) ?(recorder = Recorder.null) ~structures () =
  if structures < 0 then invalid_arg "Invariants.create: structures >= 0";
  {
    on = true;
    rc = recorder;
    lemma2_bound;
    pend = Array.init structures (fun _ -> Atomic.make 0);
    inflight = Array.init structures (fun _ -> Atomic.make 0);
    checks = Atomic.make 0;
    viol = Array.init Recorder.n_checks (fun _ -> Atomic.make 0);
  }

let active t = t.on

let[@inline] in_range t sid = sid >= 0 && sid < Array.length t.pend

let fire t ~worker ~time check ~sid ~arg =
  Atomic.incr t.viol.(Recorder.check_code check);
  Recorder.emit_violation t.rc ~worker ~time ~check ~sid ~arg

let[@inline] op_submitted t ~sid =
  if t.on && in_range t sid then Atomic.incr t.pend.(sid)

let batch_started t ~worker ~time ~sid ~size ~cap =
  if t.on && in_range t sid then begin
    Atomic.incr t.checks;
    (* Invariant 1: this launch must be the only one in flight. *)
    let f = Atomic.fetch_and_add t.inflight.(sid) 1 in
    if f <> 0 then fire t ~worker ~time Recorder.Inv1 ~sid ~arg:(f + 1);
    (* Invariant 2: working set within the substrate's cap. *)
    if size > cap then fire t ~worker ~time Recorder.Inv2 ~sid ~arg:size;
    (* Invariant 3: the batch only collects ops that are pending —
       the balance may never go negative. [p] is the pre-subtraction
       balance, so the deficit is [size - p]. *)
    let p = Atomic.fetch_and_add t.pend.(sid) (-size) in
    if p < size then fire t ~worker ~time Recorder.Inv3 ~sid ~arg:(size - p)
  end

let batch_ended t ~worker ~time ~sid =
  if t.on && in_range t sid then begin
    let f = Atomic.fetch_and_add t.inflight.(sid) (-1) in
    (* An end without a matching start is an Invariant-1 breach too. *)
    if f <> 1 then fire t ~worker ~time Recorder.Inv1 ~sid ~arg:f
  end

let op_completed t ~worker ~time ~sid ~batches_seen =
  if t.on then begin
    Atomic.incr t.checks;
    if batches_seen > t.lemma2_bound then
      fire t ~worker ~time Recorder.Lemma2 ~sid ~arg:batches_seen
  end

let violations t =
  if not t.on then Array.make Recorder.n_checks 0
  else Array.map Atomic.get t.viol

let total_violations t = Array.fold_left ( + ) 0 (violations t)
let checks_run t = Atomic.get t.checks

let pending t ~sid = if t.on && in_range t sid then Atomic.get t.pend.(sid) else 0

let to_json t =
  if not t.on then Json.Null
  else
    Json.Obj
      [
        ("checks", Json.Int (checks_run t));
        ( "violations",
          Json.Obj
            (Array.to_list
               (Array.mapi
                  (fun k c ->
                    (Recorder.check_name (Recorder.check_of_code k), Json.Int c))
                  (violations t))) );
      ]
