type clock = Timesteps | Nanoseconds

type status = Free | Pending | Executing | Done

type work_class = Wcore | Wbatch | Wsetup | Wsched | Wwait

type kind =
  | Status of status
  | Steal of { victim : int; success : bool; batch_deque : bool }
  | Batch_start of { sid : int; size : int; setup : int }
  | Batch_end of { sid : int; size : int }
  | Op_issue of { sid : int }
  | Op_done of { sid : int; batches_seen : int; latency : int }
  | Steals_suppressed of { count : int }
  | Work of { cls : work_class; units : int }

type event = { worker : int; time : int; kind : kind }

(* Flat storage: one slot = (tag, time, a, b, c), all ints, in five
   parallel arrays. Tags: 0 status, 1 steal, 2 batch_start, 3 batch_end,
   4 op_issue, 5 op_done, 6 steals_suppressed, 7 work. *)
type ring = {
  tag : int array;
  tm : int array;
  a : int array;
  b : int array;
  c : int array;
  mutable next : int;  (* total events ever emitted on this ring *)
}

type t = {
  enabled : bool;
  clk : clock;
  mask : int;  (* capacity - 1; capacity is a power of two *)
  cap : int;
  rings : ring array;
  epoch : int;
}

let null =
  { enabled = false; clk = Timesteps; mask = 0; cap = 0; rings = [||]; epoch = 0 }

let round_pow2 n =
  let rec go k = if k >= n then k else go (k * 2) in
  go 1

let create ?(capacity = 65536) ~clock ~workers () =
  if workers < 1 then invalid_arg "Recorder.create: workers >= 1";
  if capacity < 1 then invalid_arg "Recorder.create: capacity >= 1";
  let cap = round_pow2 capacity in
  {
    enabled = true;
    clk = clock;
    mask = cap - 1;
    cap;
    rings =
      Array.init workers (fun _ ->
          {
            tag = Array.make cap 0;
            tm = Array.make cap 0;
            a = Array.make cap 0;
            b = Array.make cap 0;
            c = Array.make cap 0;
            next = 0;
          });
    epoch = (match clock with Nanoseconds -> Clock.now_ns () | Timesteps -> 0);
  }

let enabled t = t.enabled
let clock t = t.clk
let workers t = Array.length t.rings

let now t =
  match t.clk with
  | Nanoseconds -> Clock.now_ns () - t.epoch
  | Timesteps -> invalid_arg "Recorder.now: timestep recorder has no clock"

let epoch t = t.epoch

let[@inline] emit t ~worker ~time tag a b c =
  if t.enabled then begin
    let r = t.rings.(worker) in
    let i = r.next land t.mask in
    r.tag.(i) <- tag;
    r.tm.(i) <- time;
    r.a.(i) <- a;
    r.b.(i) <- b;
    r.c.(i) <- c;
    r.next <- r.next + 1
  end

let status_code = function Free -> 0 | Pending -> 1 | Executing -> 2 | Done -> 3

let status_of_code = function
  | 0 -> Free
  | 1 -> Pending
  | 2 -> Executing
  | _ -> Done

let class_code = function
  | Wcore -> 0
  | Wbatch -> 1
  | Wsetup -> 2
  | Wsched -> 3
  | Wwait -> 4

let class_of_code = function
  | 0 -> Wcore
  | 1 -> Wbatch
  | 2 -> Wsetup
  | 3 -> Wsched
  | _ -> Wwait

let clock_name = function Timesteps -> "steps" | Nanoseconds -> "ns"

let status_name = function
  | Free -> "free"
  | Pending -> "pending"
  | Executing -> "executing"
  | Done -> "done"

let work_class_name = function
  | Wcore -> "core"
  | Wbatch -> "batch"
  | Wsetup -> "setup"
  | Wsched -> "sched"
  | Wwait -> "wait"

let emit_status t ~worker ~time s = emit t ~worker ~time 0 (status_code s) 0 0

let emit_steal t ~worker ~time ~victim ~success ~batch_deque =
  emit t ~worker ~time 1 victim (if success then 1 else 0) (if batch_deque then 1 else 0)

let emit_batch_start t ~worker ~time ~sid ~size ~setup =
  emit t ~worker ~time 2 sid size setup

let emit_batch_end t ~worker ~time ~sid ~size = emit t ~worker ~time 3 sid size 0

let emit_op_issue t ~worker ~time ~sid = emit t ~worker ~time 4 sid 0 0

let emit_op_done t ~worker ~time ~sid ~batches_seen ~latency =
  emit t ~worker ~time 5 sid batches_seen latency

let emit_steals_suppressed t ~worker ~time ~count =
  emit t ~worker ~time 6 count 0 0

let emit_work t ~worker ~time ~cls ~units =
  emit t ~worker ~time 7 (class_code cls) units 0

let length t ~worker =
  if not t.enabled then 0 else min t.rings.(worker).next t.cap

let dropped t ~worker =
  if not t.enabled then 0 else max 0 (t.rings.(worker).next - t.cap)

let total_dropped t =
  if not t.enabled then 0
  else Array.fold_left (fun acc r -> acc + max 0 (r.next - t.cap)) 0 t.rings

let kind_of_slot r i =
  match r.tag.(i) with
  | 0 -> Status (status_of_code r.a.(i))
  | 1 -> Steal { victim = r.a.(i); success = r.b.(i) = 1; batch_deque = r.c.(i) = 1 }
  | 2 -> Batch_start { sid = r.a.(i); size = r.b.(i); setup = r.c.(i) }
  | 3 -> Batch_end { sid = r.a.(i); size = r.b.(i) }
  | 4 -> Op_issue { sid = r.a.(i) }
  | 6 -> Steals_suppressed { count = r.a.(i) }
  | 7 -> Work { cls = class_of_code r.a.(i); units = r.b.(i) }
  | _ -> Op_done { sid = r.a.(i); batches_seen = r.b.(i); latency = r.c.(i) }

let events_of_worker t worker =
  if not t.enabled then []
  else begin
    let r = t.rings.(worker) in
    let first = max 0 (r.next - t.cap) in
    List.init (r.next - first) (fun k ->
        let i = (first + k) land t.mask in
        { worker; time = r.tm.(i); kind = kind_of_slot r i })
  end

let all_events t =
  if not t.enabled then []
  else begin
    let per = List.init (workers t) (fun w -> events_of_worker t w) in
    (* Stable merge by time: List.stable_sort keeps each worker's
       (already chronological) order for equal times. *)
    List.stable_sort (fun e1 e2 -> compare e1.time e2.time) (List.concat per)
  end
