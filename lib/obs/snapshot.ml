type t = {
  health : Health.t;
  invariants : Invariants.t;
  extra : unit -> (string * Json.t) list;
  oc : out_channel;
  epoch : int;
  mutable seq : int;
  mutable closed : bool;
}

let to_file ~health ~invariants ?(extra = fun () -> []) ~path () =
  let oc = open_out path in
  {
    health;
    invariants;
    extra;
    oc;
    epoch = Clock.now_ns ();
    seq = 0;
    closed = false;
  }

let sample t =
  if not t.closed then begin
    (* The sampler thread is the stall detector: every line scans for
       stalled structures before reporting. *)
    Health.check_stalls t.health;
    let line =
      Json.Obj
        ([
           ("seq", Json.Int t.seq);
           ("t", Json.Int (Clock.now_ns () - t.epoch));
           ("health", Health.to_json t.health);
           ("invariants", Invariants.to_json t.invariants);
         ]
        @ t.extra ())
    in
    output_string t.oc (Json.to_string line);
    output_char t.oc '\n';
    flush t.oc;
    t.seq <- t.seq + 1
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end

let every t ~interval_s ~stop =
  sample t;
  while not (stop ()) do
    Unix.sleepf interval_s;
    sample t
  done;
  sample t
