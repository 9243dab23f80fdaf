(* Health-stream monitor: consumes the JSONL written by
   [Obs.Snapshot] (one JSON object per line, carrying a ["health"]
   object from [Obs.Health] and an ["invariants"] object from the
   online checkers, [Obs.Invariants]), renders a status table, and
   exits non-zero when the stream shows the run unhealthy — the CI
   teeth behind the always-on monitoring layer. Four causes make a
   line unhealthy:

   - a checker violation (Invariant 1, 2 or 3, or Lemma 2);
   - a stall: an episode counted by Health, or a structure flagged now;
   - a stale worker: a heartbeat older than the line's [stall_ns];
   - no ["health"] object on the line.

   A stream whose last line shows that no checker ran (["invariants"]
   null, or zero checks) is unhealthy too, so the gate cannot pass on
   a stream that checked nothing.

   Each row is one sample: its seq and time [t], the completed ops and
   the launches summed over structures with their deltas since the
   previous line, the checks run, the violation and stall counts, the
   pending ops, and the oldest worker heartbeat.

     dune exec bin/service.exe -- --scenario smoke --exec runtime --snapshot health.jsonl
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
     Renders a health stream (Obs.Snapshot JSONL) and exits 1 when a\n\
     line shows a checker violation, a stall, a worker heartbeat older\n\
     than the line's stall_ns, or no health field; when the last line\n\
     shows that no checker ran; or when the stream is empty or has an\n\
     unparseable line.\n\
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

let sum key l = List.fold_left (fun acc o -> acc + jint0 [ key ] o) 0 l

(* ---- per-line digest ---- *)

type digest = {
  seq : int;
  t : int;
  ops : int;  (* completed ops, summed over structures *)
  launches : int;
  checks : int;  (* 0 when the line has no checker *)
  violations : int;  (* invariants.violations, summed *)
  stalls : int;
  stalled_now : int;  (* structures currently flagged *)
  pending : int;
  max_beat_age_ns : int;
  stale : (int * int) list;  (* (worker, beat age) past stall_ns *)
  has_health : bool;
}

let digest_of j =
  let structures = jlist [ "health"; "structures" ] j in
  let stall_ns = jint [ "health"; "stall_ns" ] j in
  let ages =
    List.map (fun w -> (jint0 [ "w" ] w, jint0 [ "beat_age_ns" ] w))
      (jlist [ "health"; "workers" ] j)
  in
  let violations =
    match path [ "invariants"; "violations" ] j with
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (_, v) -> match v with Json.Int i -> acc + i | _ -> acc)
          0 fields
    | _ -> 0
  in
  {
    seq = jint0 [ "seq" ] j;
    t = jint0 [ "t" ] j;
    ops = sum "ops" structures;
    launches = sum "launches" structures;
    checks = jint0 [ "invariants"; "checks" ] j;
    violations;
    stalls = jint0 [ "health"; "stalls" ] j;
    stalled_now =
      List.length
        (List.filter (fun s -> path [ "stalled" ] s = Some (Json.Bool true)) structures);
    pending = sum "pending" structures;
    max_beat_age_ns = List.fold_left (fun acc (_, a) -> max acc a) 0 ages;
    stale =
      (match stall_ns with
      | Some limit -> List.filter (fun (_, a) -> a > limit) ages
      | None -> []);
    has_health = (match path [ "health" ] j with Some (Json.Obj _) -> true | _ -> false);
  }

let unhealthy d =
  (not d.has_health) || d.violations > 0 || d.stalls > 0 || d.stalled_now > 0
  || d.stale <> []

let describe d =
  String.concat ", "
    (List.filter
       (fun s -> s <> "")
       [
         (if d.has_health then "" else "no health field");
         (if d.violations > 0 then
            Printf.sprintf "%d checker violations" d.violations
          else "");
         (if d.stalls > 0 then Printf.sprintf "%d stall episodes" d.stalls else "");
         (if d.stalled_now > 0 then
            Printf.sprintf "%d structures stalled" d.stalled_now
          else "");
         String.concat ", "
           (List.map
              (fun (w, a) ->
                Printf.sprintf "worker %d beat %.1f ms ago" w (float_of_int a /. 1e6))
              d.stale);
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
    Printf.printf "%6s %14s %10s %8s %9s %8s %10s %6s %6s %7s %10s\n" "seq" "t"
      "ops" "+ops" "launches" "+launch" "checks" "viol" "stall" "pend" "beat(ms)"

let row st d =
  if not st.quiet then begin
    header st;
    st.rows_since_header <- (st.rows_since_header + 1) mod 20;
    let prev_ops, prev_launches =
      match st.last with Some p -> (p.ops, p.launches) | None -> (0, 0)
    in
    Printf.printf "%6d %14d %10d %8d %9d %8d %10d %6d %6d %7d %10.1f%s\n" d.seq d.t
      d.ops (d.ops - prev_ops) d.launches (d.launches - prev_launches) d.checks
      d.violations d.stalls d.pending
      (float_of_int d.max_beat_age_ns /. 1e6)
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
        row st d;
        st.last <- Some d;
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
  | None, None ->
      Printf.printf "UNHEALTHY: stream is empty\n";
      1
  | None, Some d when d.checks = 0 ->
      Printf.printf "UNHEALTHY: %d lines, but the last shows no checker ran\n"
        st.lines;
      1
  | None, Some d ->
      Printf.printf
        "HEALTHY: %d lines, %d checks, no violations, no stalls, no stale worker\n"
        st.lines d.checks;
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
