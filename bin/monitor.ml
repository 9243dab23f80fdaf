(* Snapshot-stream monitor: consumes the JSONL written by
   [Obs.Snapshot] (one JSON object per line, carrying counter
   totals/deltas and, with a [Health] instance attached, a ["health"]
   field), renders a status table, and exits non-zero if the stream
   ever shows an invariant violation, a stall-watchdog episode, or a
   stalled structure — the CI teeth behind the always-on monitoring
   layer. A counter-only stream is rendered too.

   Each row is one sample: its seq and time [t], the completed ops and
   their delta, the work/steal/batch-start/batch-end event deltas, the
   violation and stall counts, the pending ops, the dropped events, and
   the oldest worker heartbeat.

     dune exec bin/service.exe -- --scenario smoke --snapshot health.jsonl
     dune exec bin/monitor.exe -- health.jsonl
     dune exec bin/monitor.exe -- --follow --interval 0.5 live.jsonl

   One-shot mode (default) reads the file to EOF and renders every
   line; --follow keeps polling for appended lines until none arrive
   for --idle-timeout seconds (a live run that stops writing is
   finished), exiting early as soon as the stream turns unhealthy. *)

module Json = Obs.Json

let usage () =
  prerr_endline
    "usage: monitor [--follow] [--interval S] [--idle-timeout S] [--quiet] FILE\n\n\
     Renders a snapshot stream (Obs.Snapshot JSONL, with or without a\n\
     \"health\" field) and exits 1 on any invariant violation or stall,\n\
     or on an empty or unparseable stream.\n\
    \  --follow        poll FILE for appended lines instead of one pass\n\
    \  --interval      poll period in seconds (default 0.5)\n\
    \  --idle-timeout  stop following after S seconds with no new lines\n\
    \                  (default 10)\n\
    \  --quiet         print only the final verdict\n\
     Exit status: 0 healthy, 1 unhealthy, 2 usage/IO error."

(* ---- JSON field access ---- *)

let rec path keys j =
  match keys with
  | [] -> Some j
  | k :: rest -> ( match Json.member k j with Some j' -> path rest j' | None -> None)

let jint keys j =
  match path keys j with
  | Some (Json.Int i) -> Some i
  | Some (Json.Float f) -> Some (int_of_float f)
  | _ -> None

let jint0 keys j = Option.value ~default:0 (jint keys j)

let jlist keys j =
  match path keys j with Some (Json.List l) -> l | _ -> []

(* Sum of every numeric field of an object (the violations maps). *)
let obj_sum keys j =
  match path keys j with
  | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (_, v) ->
          match v with
          | Json.Int i -> acc + i
          | Json.Float f -> acc + int_of_float f
          | _ -> acc)
        0 fields
  | _ -> 0

(* ---- per-line digest ---- *)

type digest = {
  seq : int;
  t : int;
  ops_total : int;
  ops_delta : int;
  deltas : int list;  (* work, steal, batch_start, batch_end *)
  dropped : int;
  violation_events : int;  (* recorder tag total *)
  inv_violations : int;  (* health.invariants.violations, summed *)
  stalls : int;
  stalled_now : int;  (* structures currently flagged *)
  pending : int;
  max_beat_age_ms : float;
  has_health : bool;
}

let digest_of j =
  let workers = jlist [ "health"; "workers" ] j in
  let structures = jlist [ "health"; "structures" ] j in
  {
    seq = jint0 [ "seq" ] j;
    t = jint0 [ "t" ] j;
    ops_total = jint0 [ "totals"; "op_done" ] j;
    ops_delta = jint0 [ "deltas"; "op_done" ] j;
    deltas =
      List.map
        (fun tag -> jint0 [ "deltas"; tag ] j)
        [ "work"; "steal"; "batch_start"; "batch_end" ];
    dropped = jint0 [ "dropped" ] j;
    violation_events = jint0 [ "totals"; "violation" ] j;
    inv_violations = obj_sum [ "health"; "invariants"; "violations" ] j;
    stalls = jint0 [ "health"; "stalls" ] j;
    stalled_now =
      List.fold_left
        (fun acc s ->
          match path [ "stalled" ] s with Some (Json.Bool true) -> acc + 1 | _ -> acc)
        0 structures;
    pending =
      List.fold_left (fun acc s -> acc + jint0 [ "pending" ] s) 0 structures;
    max_beat_age_ms =
      List.fold_left
        (fun acc w -> Float.max acc (float_of_int (jint0 [ "beat_age_ns" ] w)))
        0.0 workers
      /. 1.0e6;
    has_health = path [ "health" ] j <> None;
  }

let unhealthy d =
  d.violation_events > 0 || d.inv_violations > 0 || d.stalls > 0
  || d.stalled_now > 0

let describe d =
  String.concat ", "
    (List.filter
       (fun s -> s <> "")
       [
         (if d.violation_events > 0 then
            Printf.sprintf "%d violation events" d.violation_events
          else "");
         (if d.inv_violations > 0 then
            Printf.sprintf "%d checker violations" d.inv_violations
          else "");
         (if d.stalls > 0 then Printf.sprintf "%d stall episodes" d.stalls else "");
         (if d.stalled_now > 0 then
            Printf.sprintf "%d structures stalled" d.stalled_now
          else "");
       ])

(* ---- rendering + accumulation ---- *)

type state = {
  mutable lines : int;
  mutable parse_errors : int;
  mutable rows_since_header : int;
  mutable worst : digest option;  (* first unhealthy digest seen *)
  mutable last : digest option;
  quiet : bool;
}

let header st =
  if not st.quiet && st.rows_since_header = 0 then
    Printf.printf "%6s %14s %10s %8s %8s %8s %8s %8s %6s %6s %7s %7s %10s\n"
      "seq" "t" "ops" "+ops" "+work" "+steal" "+bstart" "+bend" "viol" "stall"
      "pend" "drop" "beat(ms)"

let row st d =
  if not st.quiet then begin
    header st;
    st.rows_since_header <- (st.rows_since_header + 1) mod 20;
    Printf.printf "%6d %14d %10d %8d" d.seq d.t d.ops_total d.ops_delta;
    List.iter (Printf.printf " %8d") d.deltas;
    Printf.printf " %6d %6d %7d %7d %10.1f%s\n"
      (d.violation_events + d.inv_violations)
      d.stalls d.pending d.dropped d.max_beat_age_ms
      (if unhealthy d then "  <-- UNHEALTHY" else "")
  end

let feed st line =
  if String.trim line <> "" then begin
    st.lines <- st.lines + 1;
    match Json.parse line with
    | Error e ->
        st.parse_errors <- st.parse_errors + 1;
        if not st.quiet then Printf.printf "parse error on line %d: %s\n" st.lines e
    | Ok j ->
        let d = digest_of j in
        st.last <- Some d;
        row st d;
        if unhealthy d && st.worst = None then begin
          st.worst <- Some d;
          if not st.quiet then
            Printf.printf "first unhealthy sample: seq %d: %s\n" d.seq (describe d)
        end
  end

let verdict st =
  match (st.worst, st.last) with
  | Some d, _ ->
      Printf.printf "UNHEALTHY after %d lines (first at seq %d): %s\n" st.lines
        d.seq (describe d);
      1
  | None, _ when st.parse_errors > 0 ->
      Printf.printf "UNHEALTHY: %d unparseable lines out of %d\n" st.parse_errors
        st.lines;
      1
  | None, _ when st.lines = 0 ->
      Printf.printf "UNHEALTHY: stream is empty\n";
      1
  | None, Some d when not d.has_health ->
      (* Counter-only snapshots: still useful (the violation event tag
         is checked) but say so. *)
      Printf.printf "HEALTHY: %d lines, no violations (no health field)\n"
        st.lines;
      0
  | None, _ ->
      Printf.printf "HEALTHY: %d lines, no violations, no stalls\n" st.lines;
      0

(* ---- file tailing ---- *)

(* Read newly appended COMPLETE lines from [path] past [ofs]; returns
   the new offset (end of the last complete line). *)
let read_new path ofs k =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len <= ofs then ofs
      else begin
        seek_in ic ofs;
        let chunk = really_input_string ic (len - ofs) in
        let last_nl = String.rindex_opt chunk '\n' in
        match last_nl with
        | None -> ofs (* partial line still being written *)
        | Some i ->
            String.split_on_char '\n' (String.sub chunk 0 i)
            |> List.iter k;
            ofs + i + 1
      end)

let () =
  let follow = ref false in
  let interval = ref 0.5 in
  let idle_timeout = ref 10.0 in
  let quiet = ref false in
  let file = ref None in
  let bad fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("monitor: " ^ m);
        usage ();
        exit 2)
      fmt
  in
  let parse_float name v =
    match float_of_string_opt v with
    | Some f when f > 0.0 -> f
    | _ -> bad "%s expects a positive number, got %S" name v
  in
  let args = Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  let rec go = function
    | [] -> ()
    | arg :: rest ->
        let key, inline_value =
          match String.index_opt arg '=' with
          | Some i ->
              ( String.sub arg 0 i,
                Some (String.sub arg (i + 1) (String.length arg - i - 1)) )
          | None -> (arg, None)
        in
        let value rest k =
          match (inline_value, rest) with
          | Some v, _ -> k v rest
          | None, v :: rest -> k v rest
          | None, [] -> bad "%s expects a value" key
        in
        (match key with
        | "--follow" | "-follow" -> go rest
        | "--quiet" | "-quiet" -> go rest
        | "--interval" | "-interval" ->
            value rest (fun v rest ->
                interval := parse_float key v;
                go rest)
        | "--idle-timeout" | "-idle-timeout" ->
            value rest (fun v rest ->
                idle_timeout := parse_float key v;
                go rest)
        | "--help" | "-help" | "-h" ->
            usage ();
            exit 0
        | _ when String.length key > 0 && key.[0] = '-' ->
            bad "unknown option %s" key
        | _ -> (
            match !file with
            | None ->
                file := Some arg;
                go rest
            | Some _ -> bad "multiple files given"));
        (* flags with no value fall through above; record them here so
           the recursion structure stays uniform *)
        if key = "--follow" || key = "-follow" then follow := true;
        if key = "--quiet" || key = "-quiet" then quiet := true
  in
  go args;
  let path = match !file with Some p -> p | None -> bad "no input file" in
  if not (Sys.file_exists path) then bad "no such file: %s" path;
  let st =
    { lines = 0; parse_errors = 0; rows_since_header = 0; worst = None;
      last = None; quiet = !quiet }
  in
  let ofs = ref 0 in
  ofs := read_new path !ofs (feed st);
  if !follow then begin
    (* Poll [Unix.stat] and only open the file when its mtime or size
       moved — a quiescent stream costs one stat per tick, not an
       open/seek/read (inotify would remove even the stat, but is
       Linux-only and out of scope). A size below the current offset
       means the writer truncated and restarted the file (a new run
       reusing the path): start over from offset 0 rather than waiting
       at a position past EOF forever. *)
    let idle = ref 0.0 in
    let last_mtime = ref neg_infinity and last_size = ref (-1) in
    while !idle < !idle_timeout && st.worst = None do
      Unix.sleepf !interval;
      match Unix.stat path with
      | exception Unix.Unix_error _ ->
          (* Deleted mid-follow; keep waiting for it to reappear. *)
          idle := !idle +. !interval
      | s ->
          let size = s.Unix.st_size in
          if size < !ofs then begin
            if not !quiet then
              Printf.printf "file truncated (%d -> %d bytes); re-reading\n%!"
                !ofs size;
            ofs := 0
          end;
          if s.Unix.st_mtime <> !last_mtime || size <> !last_size then begin
            last_mtime := s.Unix.st_mtime;
            last_size := size;
            let ofs' = read_new path !ofs (feed st) in
            if ofs' > !ofs then idle := 0.0 else idle := !idle +. !interval;
            ofs := ofs'
          end
          else idle := !idle +. !interval
    done
  end;
  exit (verdict st)
