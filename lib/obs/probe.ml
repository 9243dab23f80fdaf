type t = {
  on : bool;  (* any subscriber enabled *)
  rc : Recorder.t;
  inv : Invariants.t;
  hl : Health.t;
  rt : Reqtrace.t;
  epoch : int;  (* the recorder's: a raw stamp minus [epoch] is its time *)
}

let null =
  {
    on = false;
    rc = Recorder.null;
    inv = Invariants.null;
    hl = Health.null;
    rt = Reqtrace.null;
    epoch = 0;
  }

let create ?(recorder = Recorder.null) ?(invariants = Invariants.null)
    ?(health = Health.null) ?(reqtrace = Reqtrace.null) () =
  {
    on =
      Recorder.enabled recorder || Invariants.active invariants
      || Health.enabled health || Reqtrace.enabled reqtrace;
    rc = recorder;
    inv = invariants;
    hl = health;
    rt = reqtrace;
    epoch = Recorder.epoch recorder;
  }

let on p = p.on
let recorder p = p.rc
let health p = p.hl
let reqtrace p = p.rt

let[@inline] now p = if p.on then Clock.now_ns () else 0

let[@inline] beat p ~worker = Health.beat p.hl ~worker

let submit p ~time ~worker ~sid ~token =
  if p.on then begin
    Recorder.emit_op_issue p.rc ~worker ~time:(time - p.epoch) ~sid;
    Invariants.op_submitted p.inv ~sid;
    Health.op_issued p.hl ~sid ~now:time;
    Reqtrace.on_submit p.rt ~token ~sid ~now:time
  end

let launch p ~time ~worker ~sid ~size ~setup ~cap =
  if p.on then begin
    Recorder.emit_batch_start p.rc ~worker ~time:(time - p.epoch) ~sid ~size
      ~setup;
    Invariants.batch_started p.inv ~sid ~size ~cap;
    Health.batch_collected p.hl ~sid ~size ~now:time
  end

let finish p ~time ~worker ~sid ~size =
  if p.on then begin
    Recorder.emit_batch_end p.rc ~worker ~time:(time - p.epoch) ~sid ~size;
    Invariants.batch_ended p.inv ~sid
  end

let complete p ~time ~worker ~sid ~token ~issue ~launch ~finish ~seen
    ~batch_worker =
  if p.on then begin
    Health.op_done p.hl ~sid;
    Reqtrace.on_batch p.rt ~token ~pending:(launch - issue)
      ~exec:(finish - launch) ~seen ~worker:batch_worker;
    Recorder.emit_op_done p.rc ~worker ~time:(time - p.epoch) ~sid
      ~batches_seen:seen ~latency:(finish - issue);
    Invariants.op_completed p.inv ~batches_seen:seen
  end
