type t = {
  rc : Recorder.t;
  health : Health.t;
  extra : unit -> (string * Json.t) list;
  oc : out_channel;
  owns_oc : bool;
  mutable prev : int array;
  mutable seq : int;
  mutable closed : bool;
}

let no_extra () = []

let to_channel ?(health = Health.null) ?(extra = no_extra) rc oc =
  {
    rc;
    health;
    extra;
    oc;
    owns_oc = false;
    prev = Array.make Recorder.n_tags 0;
    seq = 0;
    closed = false;
  }

let to_file ?(health = Health.null) ?(extra = no_extra) rc ~path =
  let oc = open_out path in
  {
    rc;
    health;
    extra;
    oc;
    owns_oc = true;
    prev = Array.make Recorder.n_tags 0;
    seq = 0;
    closed = false;
  }

let counters_json totals =
  Json.Obj
    (Array.to_list
       (Array.mapi
          (fun k name -> (name, Json.Int totals.(k)))
          Recorder.tag_names))

let sample ?time t =
  if not t.closed then begin
    let totals = Recorder.tag_totals t.rc in
    let time =
      match time with
      | Some v -> v
      | None -> (
          match Recorder.clock t.rc with
          | Recorder.Nanoseconds when Recorder.enabled t.rc -> Recorder.now t.rc
          | _ -> t.seq)
    in
    let deltas =
      Array.init Recorder.n_tags (fun k -> totals.(k) - t.prev.(k))
    in
    let health_fields =
      if not (Health.enabled t.health) then []
      else begin
        (* The sampler thread is the stall detector: every snapshot
           scans for stalled structures before reporting. *)
        Health.check_stalls t.health;
        [ ("health", Health.to_json t.health) ]
      end
    in
    let line =
      Json.Obj
        ([
           ("seq", Json.Int t.seq);
           ("t", Json.Int time);
           ("dropped", Json.Int (Recorder.total_dropped t.rc));
           ("totals", counters_json totals);
           ("deltas", counters_json deltas);
         ]
        @ health_fields @ t.extra ())
    in
    output_string t.oc (Json.to_string line);
    output_char t.oc '\n';
    flush t.oc;
    t.prev <- totals;
    t.seq <- t.seq + 1
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.owns_oc then close_out t.oc else flush t.oc
  end

let every t ~interval_s ~stop =
  sample t;
  while not (stop ()) do
    Unix.sleepf interval_s;
    sample t
  done;
  sample t
