(* Request-scoped span capture. See reqtrace.mli for the model.

   Layout: one flat array per milestone/attribute, indexed by the
   request token. Each slot has exactly one writer (the dispatcher for
   arrive, the serve task's worker for start/submit, the op's resuming
   worker for the deltas and fin), so plain unsynchronized stores
   suffice — same discipline as the Recorder rings. Raw-ns milestones
   use 0 as the unset sentinel (the monotonic clock never reads 0 in
   practice); deltas default to 0, which is also the correct value for
   a phase that never happened.

   The reservoir is workers x classes single-writer top-K segments:
   res_lat/res_tok strips of length k each, kept descending-sorted by
   insertion. Only the owning worker writes its segments, so inserts
   are lock-free without CAS; readout merges segments after the run.
   Per-worker completion counters live at stride 8 to keep writers off
   each other's cache lines. *)

(* counter stride: one slot per worker, 8 words apart (64B lines). *)
let c_stride = 8

type t = {
  on : bool;
  cap : int;
  k : int;
  workers : int;
  classes : int;
  sample_every : int;
  (* raw-ns milestones (0 = unset) *)
  arrive : int array;
  start : int array;
  submit : int array;
  fin : int array;
  (* batch-path deltas + metadata *)
  d_pending : int array;
  d_exec : int array;
  seen : int array;
  cls : int array;
  sid : int array;
  finished : bool array;  (* the done mark: the span is complete *)
  w_start : int array;
  w_batch : int array;
  w_done : int array;
  (* slowest-K reservoir: workers x classes segments of length k *)
  res_lat : int array;
  res_tok : int array;
  n_done : int array; (* per-worker completion counters, stride 8 *)
}

let empty = [||]

let null =
  {
    on = false;
    cap = 0;
    k = 0;
    workers = 0;
    classes = 0;
    sample_every = 1;
    arrive = empty;
    start = empty;
    submit = empty;
    fin = empty;
    d_pending = empty;
    d_exec = empty;
    seen = empty;
    cls = empty;
    sid = empty;
    finished = [||];
    w_start = empty;
    w_batch = empty;
    w_done = empty;
    res_lat = empty;
    res_tok = empty;
    n_done = empty;
  }

let create ?(sample_every = 32) ?(k = 16) ~workers ~classes ~capacity () =
  if workers < 1 then invalid_arg "Reqtrace.create: workers < 1";
  if classes < 1 then invalid_arg "Reqtrace.create: classes < 1";
  if capacity < 0 then invalid_arg "Reqtrace.create: capacity < 0";
  if k < 1 then invalid_arg "Reqtrace.create: k < 1";
  if sample_every < 1 then invalid_arg "Reqtrace.create: sample_every < 1";
  let a () = Array.make (max 1 capacity) 0 in
  let res = workers * classes * k in
  {
    on = true;
    cap = capacity;
    k;
    workers;
    classes;
    sample_every;
    arrive = a ();
    start = a ();
    submit = a ();
    fin = a ();
    d_pending = a ();
    d_exec = a ();
    seen = a ();
    cls = a ();
    sid = a ();
    finished = Array.make (max 1 capacity) false;
    w_start = a ();
    w_batch = a ();
    w_done = a ();
    res_lat = Array.make (max 1 res) (-1);
    res_tok = Array.make (max 1 res) (-1);
    n_done = Array.make (workers * c_stride) 0;
  }

let enabled t = t.on
let capacity t = t.cap
let k t = t.k
let classes t = t.classes

let[@inline] tracked t token = t.on && token >= 0 && token < t.cap

(* ---- hooks ---- *)

let[@inline] on_release t ~token ~arrive_ns =
  if tracked t token then Array.unsafe_set t.arrive token arrive_ns

let[@inline] on_start t ~token ~cls ~worker =
  if tracked t token then begin
    Array.unsafe_set t.start token (Clock.now_ns ());
    Array.unsafe_set t.cls token cls;
    Array.unsafe_set t.w_start token worker
  end

let[@inline] on_submit t ~token ~sid ~now =
  if tracked t token then begin
    Array.unsafe_set t.submit token now;
    Array.unsafe_set t.sid token sid
  end

let[@inline] on_batch t ~token ~pending ~exec ~seen ~worker =
  if tracked t token then begin
    Array.unsafe_set t.d_pending token pending;
    Array.unsafe_set t.d_exec token exec;
    Array.unsafe_set t.seen token seen;
    Array.unsafe_set t.w_batch token worker
  end

(* Single-writer descending insertion into the (worker, cls) segment.
   The common case — lat no better than the segment's current floor —
   is one compare against the last slot. *)
let offer t ~worker ~cls ~token ~lat =
  if t.on && worker >= 0 && worker < t.workers && cls >= 0 && cls < t.classes
  then begin
    let base = ((worker * t.classes) + cls) * t.k in
    let last = base + t.k - 1 in
    if lat > Array.unsafe_get t.res_lat last then begin
      (* shift everything smaller than lat down one slot, drop the tail *)
      let i = ref last in
      while
        !i > base && Array.unsafe_get t.res_lat (!i - 1) < lat
      do
        Array.unsafe_set t.res_lat !i (Array.unsafe_get t.res_lat (!i - 1));
        Array.unsafe_set t.res_tok !i (Array.unsafe_get t.res_tok (!i - 1));
        decr i
      done;
      Array.unsafe_set t.res_lat !i lat;
      Array.unsafe_set t.res_tok !i token
    end
  end

let[@inline] on_done t ~token ~worker =
  if tracked t token then begin
    let fin = Clock.now_ns () in
    Array.unsafe_set t.fin token fin;
    Array.unsafe_set t.w_done token worker;
    Array.unsafe_set t.finished token true;
    let w = if worker >= 0 && worker < t.workers then worker else 0 in
    offer t ~worker:w
      ~cls:(Array.unsafe_get t.cls token)
      ~token
      ~lat:(fin - Array.unsafe_get t.arrive token);
    let c = w * c_stride in
    Array.unsafe_set t.n_done c (Array.unsafe_get t.n_done c + 1)
  end

let record_sim t ~token ~cls ~sid ~arrive_ns ~pending_ns ~exec_ns ~seen =
  if tracked t token then begin
    t.arrive.(token) <- arrive_ns;
    t.start.(token) <- arrive_ns;
    t.submit.(token) <- arrive_ns;
    t.fin.(token) <- arrive_ns + pending_ns + exec_ns;
    t.d_pending.(token) <- pending_ns;
    t.d_exec.(token) <- exec_ns;
    t.seen.(token) <- seen;
    t.cls.(token) <- cls;
    t.sid.(token) <- sid;
    t.finished.(token) <- true;
    offer t ~worker:0 ~cls ~token ~lat:(pending_ns + exec_ns);
    t.n_done.(0) <- t.n_done.(0) + 1
  end

(* ---- read-out ---- *)

type span = {
  token : int;
  cls : int;
  sid : int;
  sampled : bool;
  arrive_ns : int;
  latency_ns : int;
  queue_ns : int;
  sched_pre_ns : int;
  pending_ns : int;
  exec_ns : int;
  sched_post_ns : int;
  batches_seen : int;
  w_start : int;
  w_batch : int;
  w_done : int;
}

let phase_names = [ "queue"; "sched"; "pending"; "exec" ]

let span t token =
  if (not t.on) || token < 0 || token >= t.cap || not t.finished.(token)
  then None
  else
    let arrive = t.arrive.(token)
    and start = t.start.(token)
    and submit = t.submit.(token)
    and fin = t.fin.(token) in
    let pending = t.d_pending.(token) and exec = t.d_exec.(token) in
    let latency = fin - arrive in
    (* The residual decomposition: latency = queue + sched_pre +
       pending + exec + sched_post by construction (sched_post is
       defined as whatever is left after the directly-measured
       phases). check() asserts each term is nonnegative. *)
    let queue = start - arrive in
    let sched_pre = submit - start in
    let sched_post = fin - submit - pending - exec in
    Some
      {
        token;
        cls = t.cls.(token);
        sid = t.sid.(token);
        sampled = token mod t.sample_every = 0;
        arrive_ns = arrive;
        latency_ns = latency;
        queue_ns = queue;
        sched_pre_ns = sched_pre;
        pending_ns = pending;
        exec_ns = exec;
        sched_post_ns = sched_post;
        batches_seen = t.seen.(token);
        w_start = t.w_start.(token);
        w_batch = t.w_batch.(token);
        w_done = t.w_done.(token);
      }

let completed t =
  if not t.on then 0
  else begin
    let s = ref 0 in
    for w = 0 to t.workers - 1 do
      s := !s + t.n_done.(w * c_stride)
    done;
    !s
  end

let reservoir ?cls t =
  if not t.on then []
  else begin
    let acc = ref [] in
    for w = 0 to t.workers - 1 do
      for c = 0 to t.classes - 1 do
        if match cls with None -> true | Some c' -> c = c' then begin
          let base = ((w * t.classes) + c) * t.k in
          for i = 0 to t.k - 1 do
            let lat = t.res_lat.(base + i) in
            if lat >= 0 then acc := (lat, t.res_tok.(base + i)) :: !acc
          done
        end
      done
    done;
    let all =
      List.sort (fun (a, _) (b, _) -> compare (b : int) a) !acc
    in
    List.filteri (fun i _ -> i < t.k) all
  end

let slowest ?cls t =
  List.filter_map (fun (_, tok) -> span t tok) (reservoir ?cls t)

let exported t =
  let slow = Array.make (max 1 t.cap) false in
  for c = 0 to t.classes - 1 do
    List.iter (fun (_, tok) -> slow.(tok) <- true) (reservoir ~cls:c t)
  done;
  let acc = ref [] in
  for tok = t.cap - 1 downto 0 do
    if slow.(tok) || tok mod t.sample_every = 0 then
      Option.iter (fun s -> acc := s :: !acc) (span t tok)
  done;
  !acc

type totals = {
  n : int;
  t_latency : int;
  t_queue : int;
  t_sched : int;
  t_pending : int;
  t_exec : int;
}

let totals ?cls t =
  let n = ref 0
  and lat = ref 0
  and q = ref 0
  and sc = ref 0
  and p = ref 0
  and e = ref 0 in
  for tok = 0 to t.cap - 1 do
    match span t tok with
    | Some s when (match cls with None -> true | Some c -> s.cls = c) ->
        incr n;
        lat := !lat + s.latency_ns;
        q := !q + s.queue_ns;
        sc := !sc + s.sched_pre_ns + s.sched_post_ns;
        p := !p + s.pending_ns;
        e := !e + s.exec_ns
    | _ -> ()
  done;
  {
    n = !n;
    t_latency = !lat;
    t_queue = !q;
    t_sched = !sc;
    t_pending = !p;
    t_exec = !e;
  }

let shares tt =
  let d = float_of_int tt.t_latency in
  let f x = if tt.t_latency = 0 then 0.0 else float_of_int x /. d in
  [
    ("queue", f tt.t_queue);
    ("sched", f tt.t_sched);
    ("pending", f tt.t_pending);
    ("exec", f tt.t_exec);
  ]

let check t =
  let err = ref None in
  let tok = ref 0 in
  while !err = None && !tok < t.cap do
    (match span t !tok with
    | None -> ()
    | Some s ->
        let sum =
          s.queue_ns + s.sched_pre_ns + s.pending_ns + s.exec_ns
          + s.sched_post_ns
        in
        if sum <> s.latency_ns then
          err :=
            Some
              (Printf.sprintf
                 "token %d: phase sum %d <> latency %d (q=%d sp=%d p=%d e=%d \
                  ss=%d)"
                 s.token sum s.latency_ns s.queue_ns s.sched_pre_ns
                 s.pending_ns s.exec_ns s.sched_post_ns)
        else if s.queue_ns < 0 then
          err := Some (Printf.sprintf "token %d: queue %d < 0" s.token s.queue_ns)
        else if s.sched_pre_ns < 0 then
          err :=
            Some
              (Printf.sprintf "token %d: sched_pre %d < 0" s.token
                 s.sched_pre_ns)
        else if s.pending_ns < 0 then
          err :=
            Some
              (Printf.sprintf "token %d: pending %d < 0" s.token s.pending_ns)
        else if s.exec_ns < 0 then
          err := Some (Printf.sprintf "token %d: exec %d < 0" s.token s.exec_ns)
        else if s.sched_post_ns < 0 then
          err :=
            Some
              (Printf.sprintf "token %d: sched_post %d < 0 (fin-submit=%d \
                               pending=%d exec=%d)"
                 s.token s.sched_post_ns
                 (t.fin.(s.token) - t.submit.(s.token))
                 s.pending_ns s.exec_ns));
    incr tok
  done;
  match !err with None -> Ok () | Some e -> Error e
