type check = Inv1 | Inv2 | Inv3 | Lemma2

let n_checks = 4
let check_code = function Inv1 -> 0 | Inv2 -> 1 | Inv3 -> 2 | Lemma2 -> 3

let check_of_code = function
  | 0 -> Inv1
  | 1 -> Inv2
  | 2 -> Inv3
  | _ -> Lemma2

let check_name = function
  | Inv1 -> "inv1"
  | Inv2 -> "inv2"
  | Inv3 -> "inv3"
  | Lemma2 -> "lemma2"

type t = {
  on : bool;
  lemma2_bound : int;
  pend : int Atomic.t array;  (* submitted − collected, per structure *)
  inflight : int Atomic.t array;  (* launched − ended, per structure *)
  checks : int Atomic.t;
  viol : int Atomic.t array;  (* indexed by check_code *)
}

let null =
  {
    on = false;
    lemma2_bound = 0;
    pend = [||];
    inflight = [||];
    checks = Atomic.make 0;
    viol = [||];
  }

let create ?(lemma2_bound = 2) ~structures () =
  if structures < 0 then invalid_arg "Invariants.create: structures >= 0";
  {
    on = true;
    lemma2_bound;
    pend = Array.init structures (fun _ -> Atomic.make 0);
    inflight = Array.init structures (fun _ -> Atomic.make 0);
    checks = Atomic.make 0;
    viol = Array.init n_checks (fun _ -> Atomic.make 0);
  }

let active t = t.on

let[@inline] in_range t sid = sid >= 0 && sid < Array.length t.pend

let fire t check = Atomic.incr t.viol.(check_code check)

let[@inline] op_submitted t ~sid =
  if t.on && in_range t sid then Atomic.incr t.pend.(sid)

let batch_started t ~sid ~size ~cap =
  if t.on && in_range t sid then begin
    Atomic.incr t.checks;
    (* Invariant 1: this launch must be the only one in flight. *)
    let f = Atomic.fetch_and_add t.inflight.(sid) 1 in
    if f <> 0 then fire t Inv1;
    (* Invariant 2: working set within the substrate's cap. *)
    if size > cap then fire t Inv2;
    (* Invariant 3: the batch only collects ops that are pending —
       the balance may never go negative. [p] is the pre-subtraction
       balance. *)
    let p = Atomic.fetch_and_add t.pend.(sid) (-size) in
    if p < size then fire t Inv3
  end

let batch_ended t ~sid =
  if t.on && in_range t sid then begin
    let f = Atomic.fetch_and_add t.inflight.(sid) (-1) in
    (* An end without a matching start is an Invariant-1 breach too. *)
    if f <> 1 then fire t Inv1
  end

let op_completed t ~batches_seen =
  if t.on then begin
    Atomic.incr t.checks;
    if batches_seen > t.lemma2_bound then fire t Lemma2
  end

let violations t =
  if not t.on then Array.make n_checks 0
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
                  (fun k c -> (check_name (check_of_code k), Json.Int c))
                  (violations t))) );
      ]
